import random

import pytest
from hypothesis import given, strategies as st

from linksgould.ring import ONE, ZERO, LaurentQP

Q = LaurentQP.monomial(1, 2, 0)
P = LaurentQP.monomial(1, 0, 1)
Q_HALF = LaurentQP.monomial(1, 1, 0)


def lqp(terms):
    return LaurentQP(dict(terms))


laurents = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.integers(-9, 9),
    max_size=4,
).map(LaurentQP)


def test_like_terms_collect():
    assert Q + Q == lqp({(2, 0): 2})


def test_additive_identity():
    x = lqp({(2, -2): 3, (1, 0): -1})
    assert x + ZERO == x


def test_cancellation_is_canonical():
    s = (Q - Q) + P
    assert s == P
    assert s.terms == {(0, 1): 1}


def test_half_exponents_add():
    assert Q_HALF * Q_HALF == Q


def test_product_matches_hand_expansion():
    # (1 + q^1/2 p)(1 - q^1/2 p) = 1 - q p^2
    x = Q_HALF * P
    assert (ONE + x) * (ONE - x) == lqp({(0, 0): 1, (2, 2): -1})


def invert_qp(x):
    """x with its q- and p-exponents negated together (the mirror
    substitution).  With the two strings swapped it takes R^e to R^-e: the
    cross-check on the engine's negative powers in tests/test_engine.py
    and tests/test_statemodel.py.  The engine forms no power through it."""
    return LaurentQP({(-e, -p): c for (e, p), c in x.terms.items()})


# invert_qp is the tests' one inversion map; the q- and p-inversion tests
# below check its action on each exponent.
def test_invert_q_examples():
    assert invert_qp(lqp({(2, 0): 1, (0, 0): 3})) == lqp({(-2, 0): 1, (0, 0): 3})
    assert invert_qp(Q + P) == lqp({(-2, 0): 1, (0, -1): 1})
    assert invert_qp(LaurentQP.monomial(1, 2, -2)) == LaurentQP.monomial(1, -2, 2)
    assert invert_qp(Q_HALF * P - ONE) == lqp({(-1, -1): 1, (0, 0): -1})


def test_invert_p_examples():
    assert invert_qp(lqp({(0, 2): 1})) == lqp({(0, -2): 1})
    sym = lqp({(2, 2): 1, (-2, -2): 1, (0, 0): 5})
    assert invert_qp(sym) == sym


def _random_laurent(rng):
    return LaurentQP(
        {
            (rng.randint(-4, 4), rng.randint(-4, 4)): rng.randint(-5, 5)
            for _ in range(rng.randint(0, 3))
        }
    )


def test_ring_axioms_on_random_triples():
    rng = random.Random(20260811)
    for _ in range(1000):
        x, y, z = (_random_laurent(rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z


@given(laurents, laurents)
def test_invert_q_is_a_ring_homomorphism(x, y):
    # what the swap-and-invert cross-check rests on: it takes R^e to R^-e
    assert invert_qp(x * y) == invert_qp(x) * invert_qp(y)
    assert invert_qp(x + y) == invert_qp(x) + invert_qp(y)
    assert invert_qp(-x) == -invert_qp(x)
    assert invert_qp(ONE) == ONE


@given(laurents)
def test_invert_q_and_p_are_involutions(x):
    assert invert_qp(invert_qp(x)) == x


def test_serialization_is_ascending_and_omits_zero_exponents():
    x = lqp({(3, 0): 2, (-2, 4): -1, (0, 0): 7})
    assert str(x) == "-1*q^-1*p^4 + 7 + 2*q^(3/2)"


def test_a_polynomial_is_unhashable():
    # its terms are a mutable dict, as a SparseTangle's are
    with pytest.raises(TypeError):
        hash(LaurentQP.monomial(1))


def test_no_zero_coefficients_stored():
    assert LaurentQP({(1, 1): 0}).terms == {}
    assert not lqp({(2, 0): 1}) - lqp({(2, 0): 1})


def test_exact_big_coefficients():
    import math

    # (1 + q)^64: the middle coefficient must be exact
    base = ONE + Q
    acc = ONE
    for _ in range(64):
        acc = acc * base
    assert acc.terms[(64, 0)] == math.comb(64, 32)
