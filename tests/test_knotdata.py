import copy
from itertools import product

import pytest

from linksgould.alexander import square_root
from linksgould.braid import components, render
from linksgould.checks import regression
from linksgould.invariant import from_compact, is_palindromic_q, q_inverted
from linksgould.knotdata import (
    CorpusFormatError,
    load_corpus,
    parse_corpus,
    validate_entry,
)

MANDATORY = ("3_1", "5_1", "7_1", "9_1", "2^2_1", "4_1", "6^3_2")
CORPUS = {e.name: e for e in load_corpus()}  # read once; a test copies what it changes


def test_corpus_loads_and_is_large():
    entries = load_corpus()
    assert len(entries) == 267
    names = {e.name for e in entries}
    assert {"0_1", "8_17", "10_166", "KT", "C", "pretzel_3_5_7"} <= names


def test_mandatory_entries_have_braids():
    for name in MANDATORY:
        assert CORPUS[name].braid is not None


def test_trefoil_entry():
    e = CORPUS["3_1"]
    assert e.compact == [{0: 1, 2: 2}, {1: -1, 3: -1}, {2: 1}]
    assert render(e.braid) == "1^3"
    assert e.components == 1 and not e.amphichiral


def test_hopf_entry():
    e = CORPUS["2^2_1"]
    assert e.compact == [{0: -1, 2: -1}, {1: 1}]
    assert e.components == 2
    assert components(e.braid) == 2


def test_borromean_entry():
    e = CORPUS["6^3_2"]
    assert e.amphichiral and e.components == 3
    assert components(e.braid) == 3
    assert is_palindromic_q(from_compact(e.compact))


def test_worked_example_entry():
    # the 8_17 blocks, including the bare trailing 1 at P^6
    e = CORPUS["8_17"]
    assert e.compact[0] == {-4: 4, -2: 68, 0: 139, 2: 68, 4: 4}
    assert e.compact[1] == {-3: -22, -1: -102, 1: -102, 3: -22}
    assert e.compact[6] == {0: 1}
    assert e.amphichiral


def test_zero_interior_blocks_preserved():
    for name in ("10_154", "10_161"):
        blocks = CORPUS[name].compact
        assert blocks[5] == {} and blocks[6]


def test_every_entry_is_consistent():
    for e in load_corpus():
        assert validate_entry(e) == [], e.name
        poly = from_compact(e.compact)
        assert e.amphichiral == is_palindromic_q(poly), e.name


def test_validate_entry_names_a_parity_break():
    # the value-only 5_2 with a unit moved from q^0 to q^1: the same at q = 1
    entry = copy.deepcopy(CORPUS["5_2"])
    entry.compact[0][0] -= 1
    entry.compact[0][1] = 1
    assert validate_entry(entry) == ["q- and P-exponents of different parity at q^1 P^0"]


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


def test_values_tell_the_entries_apart_up_to_mirrors():
    # the paper's "distinguishes between these links", with its exceptions:
    # each value is grouped with its q-inverse (the mirror's value), and
    # only three groups hold more than one name.  ROADMAP flags
    # 4^2_1b = JE_1_1 for a human to review.
    groups = {}
    for e in load_corpus():
        poly = from_compact(e.compact)
        value = min(sorted(poly.items()), sorted(q_inverted(poly).items()))
        groups.setdefault(tuple(value), set()).add(e.name)
    shared = sorted(sorted(names) for names in groups.values() if len(names) > 1)
    assert shared == [["4^2_1b", "JE_1_1"], ["C", "KT"], ["JE_2_1", "JE_2_2"]]
    assert len(groups) == 264


def test_square_root_examples():
    assert square_root({4: 1, 2: -2, 0: 3, -2: -2, -4: 1}) == {2: 1, 0: -1, -2: 1}
    assert square_root({2: 1, 0: -2, -2: 1}) == {1: 1, -1: -1}
    assert square_root({4: 1, 2: -2, 0: 4, -2: -2, -4: 1}) is None  # one coefficient off
    assert square_root({0: 2}) is None and square_root({1: 1}) is None
    assert square_root({0: -1}) is None and square_root({}) == {}
    assert square_root({4: 1, 0: -1}) is None
    g = {3: 2, 1: -5, 0: 1, -4: 7}
    square = {}
    for (a, x), (b, y) in product(g.items(), g.items()):
        square[a + b] = square.get(a + b, 0) + x * y
    assert square_root({e: c for e, c in square.items() if c}) == g


def test_lg_at_q_one_is_the_square_of_the_alexander_polynomial():
    # LG(q = 1, P) = Delta(P)^2 (Ishii; Kohli 2016), a value-level identity
    # that does not come from the state model.  Exponents are those of
    # P^(1/2), as a link's Delta has half-integer exponents in P.
    knots = links = 0
    for e in load_corpus():
        at_q_one = {}
        for (_, k), c in from_compact(e.compact).items():
            at_q_one[2 * k] = at_q_one.get(2 * k, 0) + c
        root = square_root({k: c for k, c in at_q_one.items() if c})
        assert root is not None, e.name
        # Delta(1) is +-1 for a knot and 0 for a link
        if e.components == 1:
            assert abs(sum(root.values())) == 1, e.name
            knots += 1
        else:
            assert sum(root.values()) == 0, e.name
            links += 1
    assert (knots, links) == (253, 14)


def test_regression_all_pass():
    entries = load_corpus()
    rows = regression(entries)
    assert [(e.name, detail) for e, detail, _ in rows if detail] == []
    assert len(rows) == 14
    assert len(entries) - len(rows) == 253


def test_regression_mandatory_subset():
    rows = regression([CORPUS[n] for n in MANDATORY])
    assert [e.name for e, detail, _ in rows if not detail] == list(MANDATORY)


def test_fault_injection_reports_exactly_one_failure():
    entries = [copy.deepcopy(CORPUS[n]) for n in ("3_1", "4_1")]
    entries[0].compact[0][0] += 1
    failures = [(e.name, detail) for e, detail, _ in regression(entries) if detail]
    assert len(failures) == 1
    assert failures[0][0] == "3_1"
    assert "expected" in failures[0][1]


def test_value_only_entries_are_skipped():
    assert regression([CORPUS["8_1"]]) == []


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
