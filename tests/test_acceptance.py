"""Acceptance suite: one test per criterion, each printing a pass line.

All polynomial comparisons are bit-exact (the arithmetic is exact, so there
are no numeric tolerances); runtime bounds are asserted where stated.
Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines, or ``lgpoly selftest`` for the equivalent CLI report.
"""

import time

import pytest

from linksgould.braid import parse
from linksgould.checks import (
    check_handles, check_inverse, check_yang_baxter, mirror, run_markov_suite
)
from linksgould.engine import (
    DEFAULT_SIZE_CAP,
    SizeCapExceeded,
    evaluate_raw,
    generator_power,
    identity_tangle,
)
from linksgould.invariant import (
    from_compact,
    is_palindromic_q,
    q_inverted,
    to_compact,
    to_invariant,
)
from linksgould.ring import ZERO, LaurentQP
from linksgould.statemodel import HANDLE_MINUS, HANDLE_PLUS

# expected compact forms, frozen from the reference table
EXPECTED = {
    "3_1": ("1^3", [{0: 1, 2: 2}, {1: -1, 3: -1}, {2: 1}]),
    "5_1": (
        "1^5",
        [{0: 1, 2: 2, 4: 2}, {1: -1, 3: -2, 5: -1}, {2: 1, 4: 2}, {3: -1, 5: -1}, {4: 1}],
    ),
    "7_1": (
        "1^7",
        [
            {0: 1, 2: 2, 4: 2, 6: 2},
            {1: -1, 3: -2, 5: -2, 7: -1},
            {2: 1, 4: 2, 6: 2},
            {3: -1, 5: -2, 7: -1},
            {4: 1, 6: 2},
            {5: -1, 7: -1},
            {6: 1},
        ],
    ),
    "9_1": (
        "1^9",
        [
            {0: 1, 2: 2, 4: 2, 6: 2, 8: 2},
            {1: -1, 3: -2, 5: -2, 7: -2, 9: -1},
            {2: 1, 4: 2, 6: 2, 8: 2},
            {3: -1, 5: -2, 7: -2, 9: -1},
            {4: 1, 6: 2, 8: 2},
            {5: -1, 7: -2, 9: -1},
            {6: 1, 8: 2},
            {7: -1, 9: -1},
            {8: 1},
        ],
    ),
    "2^2_1": ("1^2", [{0: -1, 2: -1}, {1: 1}]),
    "4_1": ("1 -2 1 -2", [{-2: 2, 0: 7, 2: 2}, {-1: -3, 1: -3}, {0: 1}]),
    "6^3_2": (
        "1 -2 1 -2 1 -2",
        [
            {-2: 16, 0: 38, 2: 16},
            {-3: -3, -1: -25, 1: -25, 3: -3},
            {-2: 6, 0: 16, 2: 6},
            {-1: -4, 1: -4},
            {0: 1},
        ],
    ),
}
AMPHICHIRAL = {"4_1", "6^3_2"}


def passed(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def test_criterion_1_exact_symbolic_identities():
    start = time.perf_counter()
    sig, inv = generator_power(1), generator_power(-1)
    assert check_inverse(sig, inv)
    assert check_inverse(inv, sig)
    assert check_yang_baxter()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"identities took {elapsed:.2f}s"
    passed(1, f"generator inverse and Yang-Baxter exact ({elapsed:.3f}s)")


def test_criterion_2_handle_consistency():
    # check_handles compares the composed handles with their closed forms
    assert check_handles()
    assert not sum(HANDLE_PLUS, ZERO)
    assert not sum(HANDLE_MINUS, ZERO)
    assert HANDLE_PLUS[0] == LaurentQP.monomial(1, 2, -2)
    passed(2, "handle composition matches closed forms, trace(C+) = 0")


def test_criterion_3_reference_table_regression():
    for name, (word, blocks) in EXPECTED.items():
        got = to_compact(to_invariant(evaluate_raw(parse(word))))
        assert got == blocks, f"{name} mismatch: {got}"
    passed(3, f"{len(EXPECTED)} braid closures match the table bit-exactly")


def test_criterion_4_unknot_and_split_behavior():
    assert to_invariant(evaluate_raw(parse("", 1))) == {(0, 0): 1}
    assert to_invariant(evaluate_raw(parse("", 2))) == {}
    passed(4, "empty 1-braid gives 1, empty 2-braid gives 0")


def test_criterion_5_markov_property_suite():
    start = time.perf_counter()
    report = run_markov_suite(seed=0, braids=100)
    elapsed = time.perf_counter() - start
    assert report.braids == 100
    assert report.ok, {name: failed[:5] for name, failed in report.failures.items() if failed}
    assert elapsed < 120.0, f"suite took {elapsed:.1f}s"
    passed(
        5,
        f"{report.braids} random braids, {report.checks} move checks "
        f"({elapsed:.1f}s)",
    )


def test_criterion_6_structural_checks():
    words = [
        (word, None) for word, _ in EXPECTED.values()
    ] + [("", 1), ("", 2), ("1^-3", None), ("1^2 2^3 3^3", None)]
    for word, strings in words:
        raw = evaluate_raw(parse(word, strings))  # scalar tangle checked inside
        assert isinstance(raw, LaurentQP)  # Y-free by type
        assert all(eq2 % 2 == 0 and ep % 2 == 0 for eq2, ep in raw.terms)
        to_invariant(raw)  # verifies q/P exponent parity and P <-> 1/P symmetry
    passed(6, f"{len(words)} evaluations structurally clean")


def test_criterion_7_chirality_probe():
    for name, (word, blocks) in EXPECTED.items():
        braid = parse(word)
        poly = from_compact(blocks)
        assert to_invariant(evaluate_raw(mirror(braid))) == q_inverted(poly)
        assert is_palindromic_q(poly) == (name in AMPHICHIRAL), name
    # random-braid mirrors are exercised inside the criterion-5 suite
    passed(7, "mirror braids give q-inverted values; palindromicity as flagged")


def test_criterion_8_feasibility_envelope():
    braid = parse("1 2 3 1 2 3 1 2 3 1")  # 4 strings, 10 letters
    start = time.perf_counter()
    to_invariant(evaluate_raw(braid))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"4-string 10-letter braid took {elapsed:.1f}s"
    with pytest.raises(SizeCapExceeded) as exc:
        identity_tangle(6, DEFAULT_SIZE_CAP)
    assert "16777216" in str(exc.value)  # the diagnostic quotes M^(2n)
    assert identity_tangle(5, DEFAULT_SIZE_CAP).n == 5
    passed(
        8,
        f"4-string 10-letter braid in {elapsed:.2f}s; "
        "6-string request refused with the M^(2n) diagnostic",
    )
