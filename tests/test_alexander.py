import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from linksgould import Refusal, alexander, engine
from linksgould.alexander import (
    P_MOD,
    X,
    AlexanderMismatchError,
    _determinant,
    at_q_one,
    burau_rows,
    check,
    delta_at_point,
)
from linksgould.braid import BraidWord, parse
from linksgould.checks import conjugate, free_insert, mirror, random_braid, stabilize
from linksgould.cli import main
from linksgould.engine import ALL_COLUMNS, evaluate_raw, execute, plan
from linksgould.invariant import from_compact, to_raw
from linksgould.knotdata import _products, load_corpus, square_root
from linksgould.ring import ONE, ZERO, LaurentQP

CORPUS = {e.name: e for e in load_corpus()}


# reference arithmetic for the checks below, sharing no code with alexander.py


def nonzero(counts):
    return {e: c for e, c in counts.items() if c}


def times(f, g):
    out = Counter()
    for (a, x), (b, y) in product(f.items(), g.items()):
        out[a + b] += x * y
    return nonzero(out)


def plus(*polys):
    out = Counter()
    for poly in polys:
        out.update(poly)
    return nonzero(out)


def minus(f):
    return {e: -c for e, c in f.items()}


polys = st.dictionaries(st.integers(-6, 6), st.integers(-(2**70), 2**70).filter(bool), max_size=5)
signs = st.sampled_from((1, -1))


@given(st.lists(st.tuples(signs, polys, polys), max_size=4))
def test_products_is_the_signed_sum_of_the_products(terms):
    expected = plus(*(times(f, g) if s > 0 else minus(times(f, g)) for s, f, g in terms))
    assert _products(*terms) == expected


# the same, modulo the oracle's prime, at several values of t (the
# oracle's own first); none is 0 or -1


T = X * X % P_MOD
POINTS = (T, 2, P_MOD - 2, 12345678987654321)


def at(f, x):
    """f(x) mod P_MOD, term by term."""
    return sum(c * pow(x, e, P_MOD) for e, c in f.items()) % P_MOD


def identity(n):
    return [[int(r == c) for c in range(n)] for r in range(n)]


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) % P_MOD for col in zip(*b)] for row in a]


def letter_matrix(n, i, sign, t):
    """sigma_i or its inverse on n strings: [[1 - t, t], [1, 0]] or
    [[0, 1], [1/t, 1 - 1/t]] on rows and columns i, i + 1."""
    over = pow(t, -1, P_MOD)
    block = ((1 - t, t), (1, 0)) if sign > 0 else ((0, 1), (over, 1 - over))
    m = identity(n)
    for r, c in product(range(2), range(2)):
        m[i - 1 + r][i - 1 + c] = block[r][c] % P_MOD
    return m


def matrix_product(word, t):
    """The Burau matrix of the word, one letter's matrix at a time."""
    m = identity(word.n_strings)
    for i, e in word.letters:
        for _ in range(abs(e)):
            m = matmul(m, letter_matrix(word.n_strings, i, e, t))
    return m


def full(word, t):
    """The whole Burau matrix: row 1 from rows 2..n, since u B = u for
    u = (1, t, ..., t^(n-1))."""
    rows = burau_rows(word, t)
    first = [pow(t, c, P_MOD) for c in range(word.n_strings)]
    for r, row in enumerate(rows, start=1):
        first = [(f - pow(t, r, P_MOD) * v) % P_MOD for f, v in zip(first, row)]
    return [first] + rows


def letters(n, *pairs):
    """A word of single letters, kept apart (no run-length merge)."""
    return BraidWord(n, tuple(pairs))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_letter_times_its_inverse_is_the_identity(n):
    for t in POINTS:
        for i in range(1, n):
            assert burau_rows(letters(n, (i, 1), (i, -1)), t) == identity(n)[1:]
            assert burau_rows(letters(n, (i, -1), (i, 1)), t) == identity(n)[1:]
        assert full(BraidWord(n, ()), t) == identity(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_burau_matrices_satisfy_the_braid_relations(n):
    for t in POINTS:
        for i in range(1, n - 1):
            for e in (1, -1):
                lhs = letters(n, (i, e), (i + 1, e), (i, e))
                rhs = letters(n, (i + 1, e), (i, e), (i + 1, e))
                assert burau_rows(lhs, t) == burau_rows(rhs, t), (i, e, t)
        for i in range(1, n):
            for j in range(i + 2, n):  # far commutation
                for e, f in ((1, 1), (1, -1), (-1, -1)):
                    ij, ji = letters(n, (i, e), (j, f)), letters(n, (j, f), (i, e))
                    assert burau_rows(ij, t) == burau_rows(ji, t)


@pytest.mark.parametrize("e", [1, 2, 3, 5, 8, -1, -2, -3, -5, -8])
def test_a_power_is_its_letters_one_by_one(e):
    # sigma^e comes from the closed form M^e = alpha M + (1 - alpha) I
    one = (2, 1 if e > 0 else -1)
    for t in POINTS:
        letter_by_letter = burau_rows(BraidWord(4, (one,) * abs(e)), t)
        assert letter_by_letter == burau_rows(BraidWord(4, ((2, e),)), t)


def test_the_rows_are_the_matrix_product():
    # B(sigma_1) on two strings, and B(uv) = B(u) B(v)
    for t in POINTS:
        over = pow(t, -1, P_MOD)
        assert full(parse("1"), t) == [[(1 - t) % P_MOD, t], [1, 0]]
        assert full(parse("-1"), t) == [[0, 1], [over, (1 - over) % P_MOD]]
        u, v = parse("1 -2 1", 3), parse("2 2 -1", 3)
        assert full(BraidWord(3, u.letters + v.letters), t) == matmul(full(u, t), full(v, t))
        for seed in range(20):
            word = random_braid(random.Random(seed), max_strings=5, max_expanded_len=12)
            assert full(word, t) == matrix_product(word, t), word


def leibniz_determinant(m):
    """The determinant mod P_MOD as the sum over permutations, for small m."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for r, c in enumerate(perm):
            term = term * m[r][c] % P_MOD
        total += term
    return total % P_MOD


# up to 6 x 6: the oracle's minors of a word on 7 strings; zero entries
# and equal rows make the elimination search for its pivots
@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_the_modular_determinant_is_the_leibniz_sum(n, seed):
    rng = random.Random(seed)

    def entry():
        return 0 if rng.random() < 0.4 else rng.choice((1, -1, rng.randrange(P_MOD))) % P_MOD

    m = [[entry() for _ in range(n)] for _ in range(n)]
    if n > 1 and rng.random() < 0.2:
        m[-1] = list(m[0])
    assert _determinant(m) == leibniz_determinant(m)


@pytest.mark.parametrize(
    "word, strings, delta",
    [
        ("", 1, {0: 1}),  # the unknot
        ("1^3", None, {0: 1, 1: -1, 2: 1}),  # trefoil: t^2 - t + 1
        ("1 -2 1 -2", None, {-2: -1, -1: 3, 0: -1}),  # figure eight
        ("1^2", None, {0: 1, 1: -1}),  # Hopf link: 1 - t
        ("", 2, {}),  # two-component unlink: split
        ("1 -1 3", 4, {}),  # split, read as given
        ("3 1 2 -1", 4, {}),  # a conjugate of 3 2: split
    ],
)
def test_alexander_examples(word, strings, delta):
    # Delta with its fixed unit, det(I - B'), at the oracle's point
    assert delta_at_point(parse(word, strings)) == at(delta, T)


def exponent_sum(word):
    return sum(e for _, e in word.letters)


@pytest.mark.parametrize("name", ["3_1", "4_1", "8_19", "10_124", "6^3_2", "JE_2_1"])
def test_the_stored_value_at_q_one_is_the_burau_delta_squared(name):
    # f(p) = p^(-2(e - n + 1)) D(p^2)^2, so f's square root, times
    # p^(e - n + 1), is +-D(p^2)
    entry = CORPUS[name]
    value = to_raw(from_compact(entry.compact))
    check(entry.braid, value)
    root = square_root(at_q_one(value))  # in p, P = p^2
    assert root is not None
    shift = exponent_sum(entry.braid) - entry.braid.n_strings + 1
    d = delta_at_point(entry.braid)
    assert at(root, X) * pow(X, shift, P_MOD) % P_MOD in (d, -d % P_MOD)


def test_the_check_fixes_the_unit():
    trefoil = parse("1 1 1")
    value = evaluate_raw(trefoil)
    check(trefoil, value)
    # P^k Delta(P)^2 for one k only, and its sign
    for k in (-2, -1, 1, 2):
        with pytest.raises(AlexanderMismatchError):
            check(trefoil, value * LaurentQP.monomial(1, 0, k))
    with pytest.raises(AlexanderMismatchError):
        check(trefoil, -value)
    # a split link has Delta = 0, and only 0 passes; the unknot has 1
    check(parse("", 2), ZERO)
    check(parse("", 1), ONE)
    for word, wrong in ((parse("", 2), ONE), (trefoil, ZERO), (parse("", 1), ZERO)):
        with pytest.raises(AlexanderMismatchError):
            check(word, wrong)
    # the check is modulo P_MOD: a coefficient moved by P_MOD itself passes
    check(trefoil, value + LaurentQP({next(iter(value.terms)): P_MOD}))


@st.composite
def braids(draw):
    n = draw(st.integers(1, 4))
    if n == 1:
        return BraidWord(1, ())
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=12))))


@settings(deadline=None, max_examples=60)
@given(braids())
def test_the_four_column_value_at_q_one_is_delta_squared(b):
    # planned as given and formed in all four columns, so that neither
    # the reduction nor the one column of evaluate_raw is involved
    check(b, execute(plan(b, ALL_COLUMNS)))


@settings(deadline=None, max_examples=60)
@given(braids(), st.integers(0, 2**16), st.sampled_from((-2, -1, 1, 2)))
def test_a_value_with_one_coefficient_moved_is_refused(b, index, step):
    # a split link's value is 0: then the moved coefficient is a new term
    terms = dict(evaluate_raw(b).terms)
    keys = sorted(terms) or [(0, 0)]
    key = keys[index % len(keys)]
    terms[key] = terms.get(key, 0) + step
    with pytest.raises(AlexanderMismatchError):
        check(b, LaurentQP(terms))


def test_the_oracle_checks_the_word_as_given(monkeypatch):
    # a reduction that drops a letter changes the closure: 1^3 -> 1^2
    def dropping(word):
        return BraidWord(word.n_strings, ((1, 2),))

    assert evaluate_raw(parse("1 1 1"))
    monkeypatch.setattr(engine, "reduce_closure", dropping)
    with pytest.raises(AlexanderMismatchError):
        evaluate_raw(parse("1 1 1"))


def test_a_mismatch_is_one_error_line_from_eval_and_a_record_error_in_batch(
    tmp_path, capsys, monkeypatch
):
    assert issubclass(AlexanderMismatchError, Refusal)
    real = alexander.delta_at_point

    def wrong_for_the_trefoil(word):
        return real(word) + (word == parse("1 1 1"))

    monkeypatch.setattr(alexander, "delta_at_point", wrong_for_the_trefoil)
    assert main(["eval", "1 1 1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: value at q = 1 is not P^k Delta(P)^2") and err.count("\n") == 1
    words = tmp_path / "words.txt"
    words.write_text("a 1 1\nb 1 1 1\nc 1 -2 1 -2\n")
    for jobs in ("1", "2"):
        assert main(["batch", str(words), "--jobs", jobs]) == 1
        out, err = capsys.readouterr()
        assert [record.split(";")[0] for record in out.splitlines()] == ["a", "c"]
        assert err.startswith("error: b: value at q = 1") and err.count("\n") == 1


def test_a_word_as_given_past_the_reach_is_refused_before_the_oracle(monkeypatch):
    # the word reduces to a split word, whose value needs no arithmetic,
    # but the oracle would read the word as given: 10^6 letters
    def refuse(word):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(alexander, "delta_at_point", refuse)
    with pytest.raises(engine.ExponentRangeError, match="1000000 letters and 2 closed strings"):
        evaluate_raw(parse("1^1000000", 3))


@pytest.mark.parametrize(
    "n, block, middle, back, last",
    [
        # (1 -2)^2000 (2 -1)^2000, 8,000 letters on 3 strings: the identity
        (3, ((1, 1), (2, -1)), (), ((2, 1), (1, -1)), ()),
        # (1 -2)^2000 3 (2 -1)^2000 4, 8,002 letters on 5 strings: a
        # conjugate of 3 4, which cancels only across commuting letters
        (5, ((1, 1), (2, -1)), ((3, 1),), ((2, 1), (1, -1)), ((4, 1),)),
        # (3 -2)^2000 4 (2 -3)^2000 1, 8,002 letters on 5 strings, which
        # shrinks only after a destabilization
        (5, ((3, 1), (2, -1)), ((4, 1),), ((2, 1), (3, -1)), ((1, 1),)),
    ],
    ids=["identity", "conjugate", "destabilized"],
)
def test_words_that_cancel_evaluate_to_zero(n, block, middle, back, last):
    # the oracle reads every letter of the word as given; CI bounds the
    # time of a fresh eval of each
    word = BraidWord(n, block * 2000 + middle + back * 2000 + last)
    assert evaluate_raw(word) == ZERO


def inverse(word):
    """The word's inverse: its letters reversed and inverted."""
    return mirror(BraidWord(word.n_strings, word.letters[::-1]))


def at_the_point(word):
    """X^(-2(e - n + 1)) D(X^2)^2, the value at q = 1 the oracle asks for:
    a link invariant, so every move below keeps it."""
    shift = -2 * (exponent_sum(word) - word.n_strings + 1)
    return pow(X, shift, P_MOD) * delta_at_point(word) ** 2 % P_MOD


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_the_oracle_keeps_its_value_under_the_moves(seed, index):
    word = random_braid(random.Random(seed), max_strings=4, max_expanded_len=10)
    n, size = word.n_strings, len(word.letters)
    g = (index % (n - 1) + 1, 1 if index & 1 else -1)
    moved = [
        free_insert(word, index % (size + 1), g[0]),
        conjugate(word, g),
        BraidWord(n, word.letters[index % (size or 1):] + word.letters[: index % (size or 1)]),
        stabilize(word, g[1]),
    ]
    value = at_the_point(word)
    for other in moved:
        assert at_the_point(other) == value, other
    # a word times its inverse is a split link on n >= 2 strings
    identity = BraidWord(n, word.letters + inverse(word).letters)
    assert delta_at_point(identity) == 0 and evaluate_raw(identity) == ZERO
    # a conjugator of up to 40 letters, then a letter two or more positions
    # from the conjugator's first, which commutes with it
    c = random_braid(random.Random(index), max_strings=5, max_expanded_len=40)
    if c.letters:
        first = c.letters[0][0]
        m = max(n, c.n_strings, first + 3)
        far = [p for p in range(1, m) if abs(p - first) >= 2]
        x = ((far[index % len(far)], g[1]),)
        conjugated = BraidWord(m, c.letters + word.letters + inverse(c).letters)
        assert at_the_point(conjugated) == at_the_point(BraidWord(m, word.letters)), conjugated
        followed = BraidWord(m, conjugated.letters + x)
        rotated = BraidWord(m, word.letters + inverse(c).letters + x + c.letters)
        assert at_the_point(followed) == at_the_point(rotated)
