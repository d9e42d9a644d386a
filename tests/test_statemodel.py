import pytest

from linksgould.ring import ONE, ZERO, LaurentQP
from linksgould.statemodel import (
    TRANSCRIPTION,
    DiagTensor2,
    check_cubic_relation,
    check_yang_baxter,
    generator_power,
    lg_caps_cups,
    lg_handles,
    lg_sigma,
    lg_sigma_inverse,
)


def mono(c, eq2=0, ep=0):
    return LaurentQP.monomial(c, eq2, ep)


def dense_mul(x, y):
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def test_corner_entries_match_transcription():
    sig = lg_sigma()
    # 1-based (1,1,1,1) and (4,4,4,4); dots are exact zeros
    assert sig.entry(0, 0, 0, 0) == mono(1, 2, -2)  # p^-2 q
    assert sig.entry(3, 3, 3, 3) == mono(1, 2, 2)  # p^2 q
    assert sig.entry(0, 1, 0, 0) == 0


def test_nonzero_count_and_value_set():
    sig = lg_sigma()
    assert len(sig.entries) == 26
    allowed = {
        str(v)
        for v in (
            mono(1, 2, -2),
            mono(1, 1, -1),
            mono(1),
            LaurentQP({(2, -2): 1, (0, 0): -1}),
            mono(-1),
            mono(-1, 2, 0),
            mono(-1, 1, 0),
            mono(1, 1, 1),
            LaurentQP({(4, 0): 1, (0, 0): -1}),
            mono(1, 3, 0),
            LaurentQP({(1, 2): -1, (1, -2): -1, (3, 0): 1, (-1, 0): 1}),
            LaurentQP({(3, 2): 1, (3, -2): 1, (5, 0): -1, (1, 0): -1}),
            LaurentQP({(2, 2): 1, (2, -2): 1, (4, 0): -1, (0, 0): -1}),
            LaurentQP({(2, 2): 1, (0, 0): -1}),
            mono(1, 2, 2),
        )
    }
    assert {str(v) for v in sig.entries.values()} == allowed


def test_y_carrying_entries():
    # in the transcription, cells map to (coefficient, power of Y)
    carriers = {cell: v for cell, v in TRANSCRIPTION.items() if v[1]}
    assert carriers == {
        (6, 12): (mono(-1, 1, 0), 1),
        (12, 6): (mono(-1, 1, 0), 1),
        (9, 12): (mono(1, 3, 0), 1),
        (12, 9): (mono(1, 3, 0), 1),
    }
    # the Y^2 cell is stored pre-reduced (Y-free)
    assert TRANSCRIPTION[(12, 12)][1] == 0


def test_gauged_cells():
    # conjugation by D x D, D = diag(1, 1, 1/Y, 1), with
    # Y^2 = p^2 + p^-2 - q - q^-1 expanded by hand
    grid = lg_sigma().as_matrix()
    assert grid[6][12] == mono(-1, 1, 0)  # -q^1/2
    assert grid[9][12] == mono(1, 3, 0)  # q^3/2
    assert grid[12][6] == LaurentQP({(1, 2): -1, (1, -2): -1, (3, 0): 1, (-1, 0): 1})
    assert grid[12][9] == LaurentQP({(3, 2): 1, (3, -2): 1, (5, 0): -1, (1, 0): -1})
    for (row, col), (coeff, y) in TRANSCRIPTION.items():
        if not y:
            assert grid[row][col] == coeff, (row, col)


def test_inverse_identity_both_ways():
    sig, inv = lg_sigma(), lg_sigma_inverse()
    assert sig.compose(inv).is_identity()
    assert inv.compose(sig).is_identity()


def test_inverse_bottom_right_entry():
    # forced by the inverse identity: row and column 15 of the generator
    # hold only p^2 q, so its inverse must hold (p^2 q)^-1 there
    assert lg_sigma_inverse().entry(3, 3, 3, 3) == mono(1, -2, -2)


def test_inverse_zero_pattern_is_the_twisted_one():
    sig, inv = lg_sigma(), lg_sigma_inverse()
    expected = {(b, a, d, c) for (a, b, c, d) in sig.entries}
    assert set(inv.entries) == expected


def test_caps_cups():
    caps = lg_caps_cups()
    assert caps.omega_plus.diag[0] == mono(1, 2, -2)  # p^-2 q
    assert caps.omega_plus.diag == (
        mono(1, 2, -2), mono(-1, 2, -2), mono(-1, -2, -2), mono(1, -2, -2)
    )
    assert all(v == 1 for v in caps.omega_minus.diag)
    assert all(v == 1 for v in caps.mho_plus.diag)
    # mho- is the elementwise inverse of omega+
    for o, u in zip(caps.omega_plus.diag, caps.mho_minus.diag):
        assert o * u == ONE


def test_handles_match_closed_forms():
    c_plus, c_minus = lg_handles()
    assert c_plus.diag == (
        mono(1, 2, -2), mono(-1, 2, -2), mono(-1, -2, -2), mono(1, -2, -2)
    )
    assert c_minus.diag == (
        mono(1, -2, 2), mono(-1, -2, 2), mono(-1, 2, 2), mono(1, 2, 2)
    )
    assert c_plus.diag[2] == mono(-1, -2, -2)  # -p^-2 q^-1


def test_handle_traces_vanish():
    c_plus, c_minus = lg_handles()
    assert not c_plus.trace()
    assert not c_minus.trace()


def test_handles_are_mutually_inverse():
    c_plus, c_minus = lg_handles()
    for x, y in zip(c_plus.diag, c_minus.diag):
        assert x * y == ONE


def test_yang_baxter():
    assert check_yang_baxter()


def test_generator_power_base_cases():
    assert generator_power(1).entries == lg_sigma().entries
    assert generator_power(-1).entries == lg_sigma_inverse().entries
    with pytest.raises(ValueError):
        generator_power(0)


def test_generator_powers_cancel():
    prod = generator_power(2).compose(generator_power(-2))
    assert prod.is_identity()
    prod = generator_power(-3).compose(generator_power(3))
    assert prod.is_identity()


def test_cubic_relation():
    assert check_cubic_relation()
    # the same identity on the dense 16 x 16 matrix, without the tensor code
    r = lg_sigma().as_matrix()

    def shifted(lam):  # R - lam I
        return [[v - lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(r)]

    prod = dense_mul(dense_mul(shifted(mono(1, 2, -2)), shifted(mono(-1))), shifted(mono(1, 2, 2)))
    assert not any(v for row in prod for v in row)


def test_power_matches_repeated_composition():
    for base, sign in ((lg_sigma(), 1), (lg_sigma_inverse(), -1)):
        oracle = base
        for e in range(1, 13):
            assert generator_power(sign * e).entries == oracle.entries, sign * e
            oracle = oracle.compose(base)


def test_diag_tensor_trace():
    d = DiagTensor2(4, (mono(1), mono(-1), mono(2), mono(-2)))
    assert not d.trace()
