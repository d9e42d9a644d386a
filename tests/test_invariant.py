import pytest
from hypothesis import given, strategies as st

from linksgould.braid import parse
from linksgould.engine import evaluate_raw
from linksgould.invariant import (
    MachineFormatError,
    StructureError,
    from_compact,
    is_palindromic_q,
    parse_machine,
    q_inverted,
    render_compact_text,
    render_laurent,
    render_machine,
    render_qpoly,
    to_compact,
    to_invariant,
    to_raw,
)
from linksgould.ring import LaurentQP

TREFOIL = {
    (0, 0): 1, (2, 0): 2,
    (1, 1): -1, (3, 1): -1, (1, -1): -1, (3, -1): -1,
    (2, 2): 1, (2, -2): 1,
}
FIG8 = {
    (-2, 0): 2, (0, 0): 7, (2, 0): 2,
    (-1, 1): -3, (1, 1): -3, (-1, -1): -3, (1, -1): -3,
    (0, 2): 1, (0, -2): 1,
}
HOPF = {(0, 0): -1, (2, 0): -1, (1, 1): 1, (1, -1): 1}


def test_to_invariant_unknot():
    assert to_invariant(LaurentQP.monomial(1)) == {(0, 0): 1}


def test_to_invariant_trefoil_and_fig8():
    assert to_invariant(evaluate_raw(parse("1^3"))) == TREFOIL
    assert to_invariant(evaluate_raw(parse("1 -2 1 -2"))) == FIG8


def test_to_invariant_structure_errors():
    with pytest.raises(StructureError, match="half-integer"):
        to_invariant(LaurentQP.monomial(1, 1, 0))
    with pytest.raises(StructureError, match="odd p-exponent"):
        to_invariant(LaurentQP.monomial(1, 0, 1))
    with pytest.raises(StructureError, match="symmetric"):
        to_invariant(LaurentQP({(2, 2): 1}))


def test_to_compact_examples():
    assert to_compact({(0, 0): 1}) == [{0: 1}]
    assert to_compact(HOPF) == [{0: -1, 2: -1}, {1: 1}]
    assert to_compact(TREFOIL) == [{0: 1, 2: 2}, {1: -1, 3: -1}, {2: 1}]
    assert to_compact({}) == [{}]


def test_to_compact_blocks_ascend_in_q():
    poly = {(3, 1): -1, (1, 1): -1, (3, -1): -1, (1, -1): -1, (0, 0): 1}
    assert [list(block) for block in to_compact(poly)] == [[0], [1, 3]]


def test_interior_zero_blocks_survive():
    poly = from_compact([{0: 1}, {}, {2: 3}])
    assert to_compact(poly) == [{0: 1}, {}, {2: 3}]


qpolys = st.dictionaries(st.integers(-5, 5), st.integers(-9, 9).filter(bool), max_size=3)


@given(st.lists(qpolys, min_size=1, max_size=5))
def test_to_raw_inverts_to_invariant(blocks):
    # each q-exponent moved to its P-power's parity, as to_invariant asks
    poly = from_compact(
        [{2 * eq + k % 2: c for eq, c in block.items()} for k, block in enumerate(blocks)]
    )
    assert to_invariant(to_raw(poly)) == poly


@given(st.lists(qpolys, min_size=1, max_size=5))
def test_compact_round_trip(blocks):
    while len(blocks) > 1 and not blocks[-1]:
        blocks.pop()
    poly = from_compact(blocks)
    assert to_compact(poly) == blocks
    assert from_compact(to_compact(poly)) == poly


def test_palindromicity():
    assert is_palindromic_q(FIG8)
    assert not is_palindromic_q(TREFOIL)
    assert is_palindromic_q({(0, 0): 1})
    assert is_palindromic_q({})


def test_q_inverted():
    assert q_inverted(q_inverted(TREFOIL)) == TREFOIL
    assert q_inverted(FIG8) == FIG8  # palindromic fixed point
    # engine cross-check: the mirror braid gives the q-inverted polynomial
    assert to_invariant(evaluate_raw(parse("1^-3"))) == q_inverted(TREFOIL)


def test_parity():
    # a value is a Laurent polynomial in q/P and qP: each term's q- and
    # P-exponents have the same parity, and a term that breaks it is refused
    for poly in (TREFOIL, HOPF, FIG8):
        assert to_invariant(to_raw(poly)) == poly
    for raw in ({(2, 0): 1, (0, 0): 2}, {(0, 2): 1, (0, -2): 1}):
        with pytest.raises(StructureError, match="different parity"):
            to_invariant(LaurentQP(raw))


def test_render_qpoly():
    assert render_qpoly({}) == "0"
    assert render_qpoly({0: 1}) == "1"
    assert render_qpoly({0: -1, 2: -1}) == "- 1 - q^{2}"
    assert render_qpoly({-2: 2, 0: 7, 2: 2}) == "2 q^{-2} + 7 + 2 q^{2}"
    assert render_qpoly({1: 1}) == "q^{1}"


def test_render_compact_text():
    assert render_compact_text(to_compact(HOPF)) == "- 1 - q^{2}, q^{1}"
    assert render_compact_text([{}]) == "0"


def test_render_laurent():
    assert render_laurent({}) == "0"
    assert render_laurent(HOPF) == "1*q^1*P^-1 + -1 + -1*q^2 + 1*q^1*P^1"


def test_machine_format_round_trip():
    blocks = to_compact(TREFOIL)
    assert render_machine(blocks) == "0: [0:1, 2:2]; 1: [1:-1, 3:-1]; 2: [2:1]"
    assert parse_machine(render_machine(blocks)) == (None, blocks)
    named = render_machine(blocks, "3_1")
    assert named.startswith("3_1; ")
    assert parse_machine(named) == ("3_1", blocks)
    assert parse_machine("0: []") == (None, [{}])


@given(st.lists(qpolys, min_size=1, max_size=5))
def test_machine_format_round_trip_random(blocks):
    assert parse_machine(render_machine(blocks, "x")) == ("x", blocks)


@pytest.mark.parametrize("name", ["", " ", "a;b", "0:[]", "2: [1:1]"])
def test_render_machine_refuses_unreadable_names(name):
    with pytest.raises(MachineFormatError):
        render_machine(to_compact(TREFOIL), name)


def test_machine_format_errors():
    with pytest.raises(MachineFormatError):
        parse_machine("")
    with pytest.raises(MachineFormatError):
        parse_machine("name")
    with pytest.raises(MachineFormatError):
        parse_machine("1: [0:1]")  # block indices must start at 0
    with pytest.raises(MachineFormatError):
        parse_machine("0: [0:0]")  # zero coefficient
    with pytest.raises(MachineFormatError):
        parse_machine("0: [0:1, 0:2]")  # duplicate exponent


@pytest.mark.parametrize(
    "record",
    [
        "0: [1_0:1]",  # int() would read exponent 10
        "0: [+1:1]",
        "0: [1:٣]",
        "0: [0:1]; ١: [1:1]",
        "0: [1:2:3]",
        "0: [1]",
    ],
)
def test_machine_format_refuses_what_int_would_reinterpret(record):
    with pytest.raises(MachineFormatError):
        parse_machine(record)
