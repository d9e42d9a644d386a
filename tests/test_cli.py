import json
import re
from pathlib import Path

import pytest

from linksgould import alexander, checks, cli, engine, knotdata
from linksgould.braid import BraidWord, mirror, render
from linksgould.checks import MARKOV_CHECKS, run_markov_suite
from linksgould.cli import main
from linksgould.engine import NonScalarTangleError, SparseTangle
from linksgould.invariant import parse_machine
from linksgould.ring import ONE, LaurentQP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_trefoil(capsys):
    code, out, _ = run(capsys, "eval", "1 1 1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1 + 2 q^{2}, - q^{1} - q^{3}, q^{2}"
    assert any(line.startswith("writhe:") and line.endswith("3") for line in lines)
    assert any(line.startswith("palindromic:  no") for line in lines)


def test_eval_unknot(capsys):
    code, out, _ = run(capsys, "eval", "", "--strings", "1")
    assert code == 0
    assert out.splitlines()[0] == "1"


def test_eval_split_link_notes_zero(capsys):
    code, out, _ = run(capsys, "eval", "", "--strings", "2")
    assert code == 0
    assert out.splitlines()[0] == "0"
    assert "split" in out


def test_eval_zero_exponent_keeps_its_strings(capsys):
    # 2^0 names strings 2 and 3: the closure is a 3-component unlink
    code, out, _ = run(capsys, "eval", "2^0")
    assert code == 0
    assert out.splitlines()[0] == "0"
    assert "strings:      3" in out
    code, _, err = run(capsys, "eval", "--strings", "2", "--", "3^0 1 1 1")
    assert code == 2
    assert "--strings 2 below inferred minimum 4" in err


def test_eval_size_cap_refusal(capsys):
    code, _, err = run(capsys, "eval", "1 1 1 1 1 1", "--strings", "6")
    assert code == 1
    assert "16777216" in err
    # raising the cap admits the evaluation
    code, out, _ = run(
        capsys, "eval", "1 1 1 1 1 1", "--strings", "6", "--max-size", str(4**12)
    )
    assert code == 0
    assert out.splitlines()[0] == "0"  # four free strands: split closure


def test_eval_far_over_cap_is_refused(capsys):
    # 5001 strings: M^(2n) has over 6000 digits and must not be printed
    code, _, err = run(capsys, "eval", "5000")
    assert code == 1
    assert err.startswith("error: tangle on 5001 strings")


def test_eval_word_led_by_inverse_letter_with_exponent(capsys):
    code, out, _ = run(capsys, "eval", "-1^48", "--format", "compact-machine")
    assert code == 0
    code, after_dashes, _ = run(capsys, "eval", "--format", "compact-machine", "--", "-1^48")
    assert code == 0
    assert out == after_dashes
    # T(2,-48), the mirror of T(2,48): its top P-block is q^-47
    assert out.rstrip().endswith("; 47: [-47:1]")


def test_eval_parse_error(capsys):
    code, _, err = run(capsys, "eval", "1 bogus")
    assert code == 2
    assert "bogus" in err
    # an integer too long to convert is a syntax error too, not a traceback
    code, _, err = run(capsys, "eval", "1" * 5000)
    assert code == 2
    assert err.startswith("error: integer in token at position 1")


@pytest.mark.parametrize("word", ["１ １ １", "١^3"])
def test_eval_refuses_non_ascii_digits(capsys, word):
    code, out, err = run(capsys, "eval", word)
    assert code == 2 and not out
    assert "bad token" in err


def test_eval_machine_format(capsys):
    code, out, err = run(capsys, "eval", "1^3", "--format", "compact-machine")
    assert code == 0
    assert out == "0: [0:1, 2:2]; 1: [1:-1, 3:-1]; 2: [2:1]\n"
    assert "elapsed" in err  # metadata moved off stdout


def test_eval_laurent_format(capsys):
    code, out, _ = run(capsys, "eval", "1 1", "--format", "laurent")
    assert code == 0
    assert out == "1*q^1*P^-1 + -1 + -1*q^2 + 1*q^1*P^1\n"


def test_eval_json_format(capsys):
    code, out, _ = run(capsys, "eval", "1 -2 1 -2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["strings"] == 3
    assert doc["writhe"] == 0
    assert doc["components"] == 1
    assert doc["palindromic_q"] is True
    assert doc["compact"][0] == [[-2, 2], [0, 7], [2, 2]]


def test_machine_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "eval", "1^2 2^3 3^3", "--format", "compact-machine")
    _, second, _ = run(capsys, "eval", "1^2 2^3 3^3", "--format", "compact-machine")
    assert first == second


def test_batch(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("# two standard closures\ntrefoil 1 1 1\nfig8 1 -2 1 -2\n")
    code, out, _ = run(capsys, "batch", str(batch))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "trefoil; 0: [0:1, 2:2]; 1: [1:-1, 3:-1]; 2: [2:1]"
    assert lines[1].startswith("fig8; 0: [-2:2, 0:7, 2:2]")


def test_batch_splits_name_from_word_on_any_whitespace(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("trefoil\t1 1 1\nhopf \t 1\t1\n")
    code, out, _ = run(capsys, "batch", str(batch))
    assert code == 0
    assert out.splitlines() == [
        "trefoil; 0: [0:1, 2:2]; 1: [1:-1, 3:-1]; 2: [2:1]",
        "hopf; 0: [0:-1, 2:-1]; 1: [1:1]",
    ]
    assert [parse_machine(line)[0] for line in out.splitlines()] == ["trefoil", "hopf"]


def test_batch_file_not_utf8(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_bytes(b"a 1 1 1\n\xff\xfe 1\n")
    code, out, err = run(capsys, "batch", str(batch))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {batch}: ")
    assert "utf-8" in err


def test_batch_file_byte_order_mark_is_not_part_of_the_first_name(tmp_path, capsys):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"a 1 1 1\nb 1 1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    expected = run(capsys, "batch", str(plain))
    assert expected[0] == 0 and expected[1].startswith("a; ")
    assert run(capsys, "batch", str(marked)) == expected


@pytest.mark.parametrize(
    "jobs, message",
    [("0", "must be at least 1"), ("-4", "must be at least 1"), ("x", "not an integer")],
    ids=["0", "-4", "x"],
)
def test_batch_rejects_jobs_below_one(tmp_path, capsys, jobs, message):
    batch = tmp_path / "words.txt"
    batch.write_text("a 1 1 1\n")
    with pytest.raises(SystemExit) as exc:
        main(["batch", str(batch), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"--jobs: {message}" in capsys.readouterr().err


def test_batch_empty_file(tmp_path, capsys):
    batch = tmp_path / "empty.txt"
    batch.write_text("")
    code, out, _ = run(capsys, "batch", str(batch))
    assert code == 0 and out == ""


def test_batch_continues_past_bad_line(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("a 1 1 1\nb 1 ?\nc 1 1\n")
    code, out, err = run(capsys, "batch", str(batch))
    assert code == 1
    assert len(out.splitlines()) == 2
    assert "b:" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "line, error",
    [
        ("big 5000", "error: big: tangle on 5001 strings"),  # far over the size cap
        ("lonely", "error: lonely: no braid word"),  # a name and no word
        ("a;b 1 1 1", "error: a;b: name 'a;b' cannot be read back"),  # field separator
        ("0:[] 1 1 1", "error: 0:[]: name '0:[]' cannot be read back"),  # block-shaped
        ("long " + "1" * 5000, "error: long: integer in token at position 1"),  # digit limit
    ],
    ids=["oversized", "name-only", "semicolon-name", "block-name", "long-integer"],
)
def test_batch_keeps_records_around_a_failing_line(tmp_path, capsys, line, error, jobs):
    batch = tmp_path / "words.txt"
    batch.write_text(f"a 1 1 1\n{line}\nc 1 1\n")
    code, out, err = run(capsys, "batch", str(batch), "--jobs", jobs)
    assert code == 1
    assert [record.split(";")[0] for record in out.splitlines()] == ["a", "c"]
    assert error in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_reports_an_internal_error_per_record(tmp_path, capsys, monkeypatch, jobs):
    exact = cli.evaluate_raw

    def failing_on_two_letters(braid, **kwargs):
        if braid.expanded_length() == 2:
            raise ZeroDivisionError("planted defect")
        return exact(braid, **kwargs)

    # forked pool workers inherit the patched module
    monkeypatch.setattr(cli, "evaluate_raw", failing_on_two_letters)
    batch = tmp_path / "words.txt"
    batch.write_text("a 1 1 1\nb 1 1\nc 1 1 1 1\n")
    code, out, err = run(capsys, "batch", str(batch), "--jobs", jobs)
    assert code == 1
    assert [record.split(";")[0] for record in out.splitlines()] == ["a", "c"]
    assert "error: b: internal error: ZeroDivisionError: planted defect" in err


def test_batch_jobs_preserve_order(tmp_path, capsys):
    batch = tmp_path / "words.txt"
    batch.write_text("a 1\nb 1 1\nc 1 1 1\nd 1 1 1 1\n")
    _, serial, _ = run(capsys, "batch", str(batch))
    code, parallel, _ = run(capsys, "batch", str(batch), "--jobs", "2")
    assert code == 0
    assert parallel == serial


def test_batch_missing_file(capsys):
    code, _, err = run(capsys, "batch", "/nonexistent/words.txt")
    assert code == 1 and "error" in err


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 0
    assert "Yang-Baxter" in out
    assert "all passed" in out


def test_selftest_lists_cubic_relation_and_regression_table(capsys):
    code, out, _ = run(capsys, "selftest", "--quick", "-v")
    assert code == 0
    assert "(R - qp^-2)(R + 1)(R - qp^2) = 0" in out
    assert "R^a R^b = R^(a+b)" in out
    assert "(C+ x C+) R = R (C+ x C+), also R^-1" in out
    rows = [line.split() for line in out.splitlines() if "braid=" in line]
    assert len(rows) == 14
    assert all(row[-1] == "pass" and row[-2].endswith("s") for row in rows)
    assert ["3_1", "braid=1^3"] == rows[1][:2]


def test_selftest_small_seeded(capsys):
    code, out, _ = run(capsys, "selftest", "--braids", "3", "--seed", "12345")
    assert code == 0
    rows = [line.rsplit(None, 1) for line in out.splitlines() if line.startswith("markov")]
    assert rows == [
        ["markov    evaluation: 3 braids, 24 checks, seed 12345", "pass"],
        *([f"markov    {name}", "pass"] for name in MARKOV_CHECKS[1:]),
    ]
    assert re.search(r"^alexander stored LG\(q=1\) = P\^k Delta\^2 on 14 braids +pass$", out, re.M)


def test_selftest_seed_changes_braids_not_outcome():
    a = run_markov_suite(seed=1, braids=3)
    b = run_markov_suite(seed=2, braids=3)
    assert a.ok and b.ok
    assert a.checks == b.checks == 3 * 8


def failed_rows(out):
    return [line for line in out.splitlines() if line.endswith("  FAIL")]


def test_selftest_fails_the_regression_row_on_a_wrong_stored_value(capsys, monkeypatch):
    # moved from q^0 to q^2, the value is the same at q = 1, so only the
    # regression sees it (see the next test for a change the q = 1 rows see)
    corpus = knotdata.load_corpus()
    block = next(e for e in corpus if e.name == "3_1").compact[0]
    block[0] += 1
    block[2] -= 1
    monkeypatch.setattr(checks, "load_corpus", lambda: corpus)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert failed_rows(out) == [
        "corpus    regression (14 evaluated, 253 value-only)  FAIL"
    ]
    lines = out.splitlines()
    after = lines[lines.index(failed_rows(out)[0]) + 1 :]
    assert re.fullmatch(r"    3_1: got .+ expected .+", after[0])
    assert after[1:] == ["result: 1 FAILED"]


def test_selftest_fails_the_q_one_rows_on_a_value_that_is_no_square(capsys, monkeypatch):
    # one coefficient off: LG(q = 1) of 3_1 is no longer a square, and the
    # regression sees the change too
    corpus = knotdata.load_corpus()
    next(e for e in corpus if e.name == "3_1").compact[0][0] += 1
    monkeypatch.setattr(checks, "load_corpus", lambda: corpus)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line][:3] == [
        "corpus    267 entries internally consistent          FAIL"
        "  3_1: LG(q = 1) is not the square of an integer Laurent polynomial",
        "alexander stored LG(q=1) = P^k Delta^2 on 14 braids  FAIL  3_1",
        "corpus    regression (14 evaluated, 253 value-only)  FAIL",
    ]
    assert out.splitlines()[-1] == "result: 3 FAILED"


@pytest.mark.parametrize(
    "name, defect, row",
    [
        ("reduce_closure", lambda real: lambda b: BraidWord(1, ()),
         "markov    reduction                                  FAIL"),
        ("evaluate_raw", lambda real: lambda *a, **k: real(*a, **k) + ONE,
         "markov    columns                                    FAIL"),
        ("conjugate", lambda real: lambda *a: mirror(real(*a)),
         "markov    conjugation                                FAIL"),
        ("stabilize",
         lambda real: lambda b, sign: mirror(real(b, sign)) if sign > 0 else real(b, sign),
         "markov    stabilize+                                 FAIL"),
        ("free_insert", lambda real: lambda *a: mirror(real(*a)),
         "markov    free insertion                             FAIL"),
        ("mirror", lambda real: lambda b: b,
         "markov    mirror                                     FAIL"),
    ],
)
def test_selftest_fails_only_the_row_of_a_planted_defect(capsys, monkeypatch, name, defect, row):
    # each defect changes every chiral value it touches (a mirror image
    # q-inverts it; stabilize's only for sign +1, whose check has a row of
    # its own); the regression evaluates through cli.evaluate, so it does
    # not see the checks' names
    monkeypatch.setattr(checks, name, defect(getattr(checks, name)))
    code, out, _ = run(capsys, "selftest", "--braids", "3", "--seed", "5")
    assert code == 1
    assert failed_rows(out) == [row]
    assert out.splitlines()[-1] == "result: 1 FAILED"


def test_selftest_fails_rows_on_a_value_the_oracle_refuses(capsys, monkeypatch):
    # a wrong Delta for the trefoil's braid: the oracle refuses the
    # regression's value, which is a FAIL row naming the error, not a traceback
    real = alexander.delta_at_point

    def doubled_for_the_trefoil(word):
        return real(word) * (2 if render(word) == "1^3" else 1)

    monkeypatch.setattr(alexander, "delta_at_point", doubled_for_the_trefoil)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if "  FAIL" in line] == [
        "alexander stored LG(q=1) = P^k Delta^2 on 14 braids  FAIL  3_1",
        "corpus    regression (14 evaluated, 253 value-only)  FAIL",
    ]
    after = lines[lines.index(failed_rows(out)[0]) + 1 :]
    assert after[0].startswith("    3_1: AlexanderMismatchError: ")
    assert after[1:] == ["result: 2 FAILED"]


def test_the_alexander_row_runs_the_oracle_of_every_evaluation(capsys, monkeypatch):
    # a check that refuses the figure eight's braid: the alexander row
    # calls alexander.check on the stored value and names the entry, and
    # the regression's evaluation of that braid is refused by the same check
    figure_eight = next(e.braid for e in knotdata.load_corpus() if e.name == "4_1")
    real = alexander.check

    def refusing_the_figure_eight(word, value):
        if word == figure_eight:
            raise alexander.AlexanderMismatchError("planted refusal")
        return real(word, value)

    monkeypatch.setattr(alexander, "check", refusing_the_figure_eight)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert [line for line in out.splitlines() if "  FAIL" in line] == [
        "alexander stored LG(q=1) = P^k Delta^2 on 14 braids  FAIL  4_1",
        "corpus    regression (14 evaluated, 253 value-only)  FAIL",
    ]
    assert "    4_1: AlexanderMismatchError: planted refusal" in out.splitlines()


def test_selftest_fails_the_first_markov_row_on_a_refused_evaluation(capsys, monkeypatch):
    # the columns check refuses each braid after the reduction check passed
    def refusing(*args, **kwargs):
        raise NonScalarTangleError("planted refusal")

    monkeypatch.setattr(checks, "evaluate_raw", refusing)
    code, out, _ = run(capsys, "selftest", "--braids", "3")
    assert code == 1
    assert failed_rows(out) == [
        "markov    evaluation: 3 braids, 3 checks, seed 0     FAIL"
    ]
    failures = [line for line in out.splitlines() if "evaluation failed on" in line]
    assert len(failures) == 3
    assert all(
        re.fullmatch(r"    evaluation failed on '.*': NonScalarTangleError: planted refusal", f)
        for f in failures
    )
    assert out.splitlines()[-1] == "result: 1 FAILED"


# a raw value whose term q^1 P^0 breaks the q/P exponent parity of every
# value (a Laurent polynomial in q/P and qP)
PARITY_BREAK = LaurentQP({(2, 0): 1})
PARITY_ERROR = "q- and P-exponents of different parity at q^1 P^0"


@pytest.mark.parametrize("fmt", cli.FORMATS)
def test_eval_refuses_a_value_that_breaks_the_parity(capsys, monkeypatch, fmt):
    monkeypatch.setattr(cli, "evaluate_raw", lambda *a, **k: PARITY_BREAK)
    code, out, err = run(capsys, "eval", "--format", fmt, "1 1 1")
    assert (code, out, err) == (1, "", f"error: {PARITY_ERROR}\n")


def test_selftest_fails_the_regression_row_on_a_parity_break(capsys, monkeypatch):
    real = cli.evaluate_raw

    def broken_for_the_trefoil(braid, **kwargs):
        return PARITY_BREAK if render(braid) == "1^3" else real(braid, **kwargs)

    monkeypatch.setattr(cli, "evaluate_raw", broken_for_the_trefoil)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert failed_rows(out) == ["corpus    regression (14 evaluated, 253 value-only)  FAIL"]
    lines = out.splitlines()
    after = lines[lines.index(failed_rows(out)[0]) + 1 :]
    assert after == [f"    3_1: StructureError: {PARITY_ERROR}", "result: 1 FAILED"]


def test_selftest_fails_the_corpus_row_on_a_stored_parity_break(capsys, monkeypatch):
    # 5_2 is value-only, and moving a unit from q^0 to q^1 keeps its value
    # at q = 1, so only the structural check sees the change
    corpus = knotdata.load_corpus()
    block = next(e for e in corpus if e.name == "5_2").compact[0]
    block[0] -= 1
    block[1] = 1
    monkeypatch.setattr(checks, "load_corpus", lambda: corpus)
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        f"corpus    267 entries internally consistent          FAIL  5_2: {PARITY_ERROR}",
        "result: 1 FAILED",
    ]


def test_dump_rmatrix(capsys):
    code, out, _ = run(capsys, "dump-rmatrix")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 17  # header + 16 rows
    assert "D = diag(1, 1, 1/Y, 1)" in lines[0]
    assert lines[1].startswith("[1 1]")
    assert "1*q^1*p^-2" in lines[1]  # top-left cell
    assert lines[-1].rstrip().endswith("1*q^1*p^2")  # bottom-right cell


def test_dump_rmatrix_takes_no_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["dump-rmatrix", "-v"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err


def test_dump_rmatrix_is_unchanged(capsys):
    # the 26 cells of the paper's tensor, each at its own (row, col)
    code, out, _ = run(capsys, "dump-rmatrix")
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / "dump_rmatrix.txt").read_bytes()
    assert sum(token == "." for line in out.splitlines()[1:] for token in line.split()) == 256 - 26


SHARED_TENSORS = ("_SIGMA", "_SIGMA_INVERSE", "_BASIS")


def shared_terms():
    """The terms of every tangle the engine shares across words: R, R^-1
    and the three of the Newton basis."""
    sigma, inverse, basis = (getattr(engine, name) for name in SHARED_TENSORS)
    return [dict(t.terms) for t in (sigma, inverse, *basis)]


def test_no_command_changes_the_shared_tensors(capsys):
    # generator_power(+-1) returns the module's own tangles, not copies
    before = shared_terms()
    assert run(capsys, "selftest", "--braids", "20")[0] == 0
    assert run(capsys, "dump-rmatrix")[0] == 0
    words = str(Path(__file__).parent / "data" / "batch_words.txt")
    assert run(capsys, "batch", words, "--jobs", "1")[0] == 1  # the refused six_strings line
    assert run(capsys, "eval", "1 -2 1 -2 3 -2")[0] == 0
    assert shared_terms() == before


def test_selftest_identity_rows_read_the_engines_inverse(capsys, monkeypatch):
    # R is invertible, so negating any one cell of R^-1 breaks R R^-1 = I
    inverse = engine._SIGMA_INVERSE.entries
    rows = dict(checks.IDENTITIES)
    for key, v in inverse.items():
        monkeypatch.setattr(
            engine, "_SIGMA_INVERSE", SparseTangle.from_cells(2, {**inverse, key: -v})
        )
        assert not rows["sigma * sigma^-1 = I"]() and not rows["sigma^-1 * sigma = I"](), key
    # the last cell stays negated
    code, out, _ = run(capsys, "selftest", "--quick")
    assert code == 1
    assert {
        "identity  sigma * sigma^-1 = I                       FAIL",
        "identity  sigma^-1 * sigma = I                       FAIL",
    } <= set(failed_rows(out))


@pytest.mark.parametrize("command, cap", [("eval", "-1"), ("batch", "0")])
def test_max_size_below_one_is_refused(capsys, tmp_path, command, cap):
    words = tmp_path / "words.txt"
    words.write_text("3_1 1 1 1\n", encoding="utf-8")
    target = "1 1 1" if command == "eval" else str(words)
    with pytest.raises(SystemExit) as exc:
        main([command, "--max-size", cap, target])
    assert exc.value.code == 2
    assert "--max-size: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("braids", ["-5", "0"])
def test_selftest_rejects_braids_below_one(capsys, braids):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--braids", braids])
    assert exc.value.code == 2
    assert "--braids: must be at least 1" in capsys.readouterr().err


def test_requires_subcommand(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_a_word_past_the_exponent_field_is_one_error_line(tmp_path, capsys, monkeypatch):
    from linksgould import engine

    monkeypatch.setattr(engine, "_LIMIT", 16)  # three letters on two strings reach 17
    code, out, err = run(capsys, "eval", "1 1 1")
    assert (code, out) == (1, "")
    assert err.startswith("error: 3 letters and 1 closed strings may form exponents")
    assert err.count("\n") == 1
    batch = tmp_path / "words.txt"
    batch.write_text("a 1\nb 1 1 1\nc -1\n")
    for jobs in ("1", "2"):
        code, out, err = run(capsys, "batch", str(batch), "--jobs", jobs)
        assert code == 1
        assert [record.split(";")[0] for record in out.splitlines()] == ["a", "c"]
        assert err.startswith("error: b: 3 letters and 1 closed strings") and err.count("\n") == 1
