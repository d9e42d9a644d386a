import copy

import pytest

from linksgould.braid import closure_info, render
from linksgould.invariant import from_compact, is_palindromic_q, parity_violations
from linksgould.knotdata import (
    CorpusFormatError,
    corpus_entry,
    load_corpus,
    parse_corpus,
    run_regression,
    validate_entry,
)

MANDATORY = ("3_1", "5_1", "7_1", "9_1", "2^2_1", "4_1", "6^3_2")


def test_corpus_loads_and_is_large():
    entries = load_corpus()
    assert len(entries) == 267
    names = {e.name for e in entries}
    assert {"0_1", "8_17", "10_166", "KT", "C", "pretzel_3_5_7"} <= names


def test_mandatory_entries_have_braids():
    for name in MANDATORY:
        assert corpus_entry(name).braid is not None


def test_trefoil_entry():
    e = corpus_entry("3_1")
    assert e.compact == [{0: 1, 2: 2}, {1: -1, 3: -1}, {2: 1}]
    assert render(e.braid) == "1^3"
    assert e.components == 1 and not e.amphichiral


def test_hopf_entry():
    e = corpus_entry("2^2_1")
    assert e.compact == [{0: -1, 2: -1}, {1: 1}]
    assert e.components == 2
    assert closure_info(e.braid).components == 2


def test_borromean_entry():
    e = corpus_entry("6^3_2")
    assert e.amphichiral and e.components == 3
    assert closure_info(e.braid).components == 3
    assert is_palindromic_q(from_compact(e.compact))


def test_worked_example_entry():
    # the 8_17 blocks, including the bare trailing 1 at P^6
    e = corpus_entry("8_17")
    assert e.compact[0] == {-4: 4, -2: 68, 0: 139, 2: 68, 4: 4}
    assert e.compact[1] == {-3: -22, -1: -102, 1: -102, 3: -22}
    assert e.compact[6] == {0: 1}
    assert e.amphichiral


def test_zero_interior_blocks_preserved():
    for name in ("10_154", "10_161"):
        blocks = corpus_entry(name).compact
        assert blocks[5] == {} and blocks[6]


def test_every_entry_is_consistent():
    for e in load_corpus():
        assert validate_entry(e) == [], e.name
        poly = from_compact(e.compact)
        assert parity_violations(poly) == [], e.name
        assert e.amphichiral == is_palindromic_q(poly), e.name


def test_every_entry_round_trips_through_compact():
    from linksgould.invariant import parse_machine, render_machine, to_compact

    for e in load_corpus():
        assert to_compact(from_compact(e.compact)) == e.compact, e.name
        assert parse_machine(render_machine(e.compact)) == (None, e.compact), e.name


def test_values_normalize_at_q_P_one():
    # every knot value is 1 at q = P = 1; every multicomponent value is 0
    for e in load_corpus():
        total = sum(from_compact(e.compact).values())
        assert total == (1 if e.components == 1 else 0), e.name


def test_regression_all_pass():
    report = run_regression()
    assert report.ok, report.summary()
    counts = report.counts()
    assert counts["pass"] == 14
    assert counts["value-only"] == 253
    assert counts.get("fail", 0) == 0


def test_regression_mandatory_subset():
    entries = [corpus_entry(n) for n in MANDATORY]
    report = run_regression(entries)
    assert report.ok and report.counts()["pass"] == len(MANDATORY)


def test_fault_injection_reports_exactly_one_failure():
    entries = [copy.deepcopy(corpus_entry(n)) for n in ("3_1", "4_1")]
    entries[0].compact[0][0] += 1
    report = run_regression(entries)
    assert len(report.failures) == 1
    assert report.failures[0][0] == "3_1"
    assert "expected" in report.failures[0][2]


def test_value_only_entries_are_skipped():
    report = run_regression([corpus_entry("8_1")])
    assert report.results == [("8_1", "value-only", "")]


def test_parse_corpus_errors():
    with pytest.raises(CorpusFormatError, match="header"):
        parse_corpus("onlyname\n0: [0:1]\n")
    with pytest.raises(CorpusFormatError, match="no polynomial"):
        parse_corpus("x; 1; chiral\n")
    with pytest.raises(CorpusFormatError, match="duplicate"):
        parse_corpus("x; 1; chiral\n0: [0:1]\nx; 1; chiral\n0: [0:1]\n")
    with pytest.raises(CorpusFormatError, match="chirality"):
        parse_corpus("x; 1; maybe\n0: [0:1]\n")
    with pytest.raises(CorpusFormatError, match="braid"):
        parse_corpus("x; 1; chiral; word=1\n0: [0:1]\n")


@pytest.mark.parametrize("count", ["+1_0", "\u0661", "1.0", ""])
def test_header_count_takes_ascii_digits_only(count):
    # int() would read "+1_0" as 10 and the Arabic-Indic one as 1
    with pytest.raises(CorpusFormatError, match="component count"):
        parse_corpus(f"x; {count}; chiral\n0: [0:1]\n")
    assert parse_corpus("x; 10; chiral\n0: [0:1]\n")[0].components == 10
    assert len(load_corpus()) == 267


def test_parse_corpus_minimal():
    entries = parse_corpus("# comment\n\nx; 1; chiral; braid=1 1 1\n0: [0:1]\n")
    assert len(entries) == 1
    assert entries[0].braid is not None and entries[0].braid.n_strings == 2
