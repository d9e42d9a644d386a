import pytest

from linksgould import engine
from linksgould.checks import (
    check_cubic_relation,
    check_handle_commutes,
    check_handles,
    check_inverse,
    check_power_law,
    check_yang_baxter,
)
from linksgould.engine import (
    SparseTangle,
    accrete,
    combine,
    generator_power,
    identity_tangle,
)
from linksgould.ring import ONE, ZERO, LaurentQP
from linksgould.statemodel import (
    EIGENVALUES,
    HANDLE_MINUS,
    HANDLE_PLUS,
    MHO_MINUS,
    MHO_PLUS,
    OMEGA_MINUS,
    OMEGA_PLUS,
    TRANSCRIPTION,
)

from test_ring import invert_qp


def mono(c, eq2=0, ep=0):
    return LaurentQP.monomial(c, eq2, ep)


def grid(t):
    """The 16 x 16 matrix of a 2-string tangle (row = upper pair)."""
    cells = t.entries
    return [[cells.get((divmod(r, 4), divmod(c, 4)), ZERO) for c in range(16)] for r in range(16)]


def dense_mul(x, y):
    n = len(x)
    return [
        [sum((x[i][k] * y[k][j] for k in range(n)), ZERO) for j in range(n)]
        for i in range(n)
    ]


def test_corner_entries_match_transcription():
    sig = generator_power(1).entries
    # 1-based (1,1,1,1) and (4,4,4,4); dots are exact zeros
    assert sig[(0, 0), (0, 0)] == mono(1, 2, -2)  # p^-2 q
    assert sig[(3, 3), (3, 3)] == mono(1, 2, 2)  # p^2 q
    assert ((0, 1), (0, 0)) not in sig


def test_nonzero_count_and_value_set():
    sig = generator_power(1)
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
    r = grid(generator_power(1))
    assert r[6][12] == mono(-1, 1, 0)  # -q^1/2
    assert r[9][12] == mono(1, 3, 0)  # q^3/2
    assert r[12][6] == LaurentQP({(1, 2): -1, (1, -2): -1, (3, 0): 1, (-1, 0): 1})
    assert r[12][9] == LaurentQP({(3, 2): 1, (3, -2): 1, (5, 0): -1, (1, 0): -1})
    for (row, col), (coeff, y) in TRANSCRIPTION.items():
        if not y:
            assert r[row][col] == coeff, (row, col)


def test_inverse_identity_both_ways():
    sig, inv = generator_power(1), generator_power(-1)
    assert check_inverse(sig, inv)
    assert check_inverse(inv, sig)
    # and on the dense matrices, without the tensor code
    identity = [[ONE if i == j else ZERO for j in range(16)] for i in range(16)]
    assert dense_mul(grid(sig), grid(inv)) == identity
    assert dense_mul(grid(inv), grid(sig)) == identity


def test_inverse_bottom_right_entry():
    # forced by the inverse identity: row and column 15 of the generator
    # hold only p^2 q, so its inverse must hold (p^2 q)^-1 there
    assert generator_power(-1).entries[(3, 3), (3, 3)] == mono(1, -2, -2)


def test_inverse_zero_pattern_is_the_twisted_one():
    sig, inv = generator_power(1), generator_power(-1)

    def nonzero(t):
        return {upper + lower for upper, lower in t.entries}

    expected = {(b, a, d, c) for a, b, c, d in nonzero(sig)}
    assert nonzero(inv) == expected


def test_caps_cups():
    assert OMEGA_PLUS[0] == mono(1, 2, -2)  # p^-2 q
    assert OMEGA_PLUS == (
        mono(1, 2, -2), mono(-1, 2, -2), mono(-1, -2, -2), mono(1, -2, -2)
    )
    assert all(v == ONE for v in OMEGA_MINUS)
    assert all(v == ONE for v in MHO_PLUS)
    # mho- is the elementwise inverse of omega+
    for o, u in zip(OMEGA_PLUS, MHO_MINUS):
        assert o * u == ONE


def test_handles_match_closed_forms():
    assert check_handles()
    assert HANDLE_PLUS == (
        mono(1, 2, -2), mono(-1, 2, -2), mono(-1, -2, -2), mono(1, -2, -2)
    )
    assert HANDLE_MINUS == (
        mono(1, -2, 2), mono(-1, -2, 2), mono(-1, 2, 2), mono(1, 2, 2)
    )
    assert HANDLE_PLUS[2] == mono(-1, -2, -2)  # -p^-2 q^-1


def test_handle_traces_vanish():
    assert not sum(HANDLE_PLUS, ZERO)
    assert not sum(HANDLE_MINUS, ZERO)


def test_handles_are_mutually_inverse():
    for x, y in zip(HANDLE_PLUS, HANDLE_MINUS):
        assert x * y == ONE


def test_handle_commutes_with_the_generator():
    assert check_handle_commutes()
    # cell by cell: R[(a, b), (c, d)] != 0 only where h_a h_b = h_c h_d
    for row, col in TRANSCRIPTION:
        a, b, c, d = row // 4, row % 4, col // 4, col % 4
        assert HANDLE_PLUS[a] * HANDLE_PLUS[b] == HANDLE_PLUS[c] * HANDLE_PLUS[d]


@pytest.mark.parametrize("index", range(4))
def test_handle_commutes_fails_on_a_perturbed_entry(index):
    handle = list(HANDLE_PLUS)
    handle[index] = handle[index] * mono(1, 2)  # times q
    assert not check_handle_commutes(tuple(handle))


def test_yang_baxter():
    assert check_yang_baxter()


def test_yang_baxter_fails_on_a_flipped_cell():
    sig = generator_power(1)
    for key, v in sig.entries.items():
        flipped = SparseTangle.from_cells(2, {**sig.entries, key: -v})
        assert not check_yang_baxter(flipped), key


def test_generator_power_base_cases():
    with pytest.raises(ValueError):
        generator_power(0)


def test_generator_powers_cancel():
    assert check_inverse(generator_power(2), generator_power(-2))
    assert check_inverse(generator_power(-3), generator_power(3))


def test_cubic_relation():
    assert check_cubic_relation()
    # the same identity on the dense 16 x 16 matrix, without the tensor code
    r = grid(generator_power(1))

    def shifted(lam):  # R - lam I
        return [[v - lam if i == j else v for j, v in enumerate(row)] for i, row in enumerate(r)]

    prod = dense_mul(dense_mul(shifted(mono(1, 2, -2)), shifted(mono(-1))), shifted(mono(1, 2, 2)))
    assert not any(v for row in prod for v in row)


def test_cubic_relation_fails_with_a_changed_eigenvalue():
    l1, l2, l3 = EIGENVALUES
    for changed in ((l1, l2, mono(1, 2, 0)), (l1, mono(1), l3), (mono(1, 2, 2), l2, l3)):
        assert not check_cubic_relation(eigenvalues=changed), changed


def recurrence_powers(r, eigenvalues, exponents):
    """r^e for each e in exponents by the scalar recurrence the Newton form
    replaced, kept as the oracle: r^e = a r^2 + b r + c I, (a, b, c) stepped
    from (0, 1, 0) at e = 1 by r^3 = s1 r^2 - s2 r + s3, the s_i being the
    elementary symmetric polynomials of r's eigenvalues."""
    l1, l2, l3 = eigenvalues
    s1, s2, s3 = l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
    r2, identity = accrete(r, r, 1), identity_tangle(2)
    a, b, c = ZERO, ONE, ZERO
    out = {}
    for e in range(1, max(exponents) + 1):
        if e in exponents:
            out[e] = combine([(a, r2), (b, r), (c, identity)])
        a, b, c = a * s1 + b, c - a * s2, a * s3
    return out


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_power_matches_the_cubic_recurrence(sign):
    # negative powers come from the inverse generator and the inverted
    # eigenvalues, so past R^-1, which R R^-1 = I pins, the oracle uses no
    # Newton coefficient
    r = generator_power(1) if sign > 0 else generator_power(-1)
    eigenvalues = EIGENVALUES if sign > 0 else tuple(map(invert_qp, EIGENVALUES))
    exponents = (*range(2, 21), 31, 48, 64)
    for e, oracle in recurrence_powers(r, eigenvalues, exponents).items():
        assert generator_power(sign * e).entries == oracle.entries, sign * e


def test_power_fails_with_a_flipped_newton_coefficient(monkeypatch):
    assert check_power_law()
    exact = engine._newton_coefficients
    e = 6
    oracle = recurrence_powers(generator_power(1), EIGENVALUES, (e,))[e]
    h1, h2 = exact(e)
    assert (len(h1.terms), len(h2.terms)) == (e, e * (e - 1) // 2)
    for which, h in enumerate((h1, h2)):
        for key, c in h.terms.items():
            mutated = [h1, h2]
            mutated[which] = LaurentQP({**h.terms, key: -c})
            monkeypatch.setattr(engine, "_newton_coefficients", lambda _, m=tuple(mutated): m)
            assert generator_power(e) != oracle, (which, key)

    # the run-time check sees a flip too: h2's term l1^a l2^b nearest
    # a = b = 0 (the constant term for e >= 2, q^-2 for e <= -2), at every
    # |e| >= 2, so R^1 and R^-1 stay right and a pair product fails
    def flip_first_term(e):
        h1, h2 = exact(e)
        if abs(e) > 1:
            key = (0, 0) if e > 0 else (-4, 0)
            h2 = LaurentQP({**h2.terms, key: -h2.terms[key]})
        return h1, h2

    monkeypatch.setattr(engine, "_newton_coefficients", flip_first_term)
    assert not check_power_law()


@pytest.mark.parametrize("a, b", [(5, -3), (-7, 2), (4, 9)])
def test_powers_multiply(a, b):
    assert accrete(generator_power(a), generator_power(b), 1) == generator_power(a + b)


def test_power_matches_repeated_composition():
    # the oracle is the dense 16 x 16 product, not the tensor code
    for base, sign in ((grid(generator_power(1)), 1), (grid(generator_power(-1)), -1)):
        oracle = base
        for e in range(1, 13):
            assert grid(generator_power(sign * e)) == oracle, sign * e
            oracle = dense_mul(oracle, base)
