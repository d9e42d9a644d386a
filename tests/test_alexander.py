import random
from collections import Counter
from itertools import permutations, product

import pytest
from hypothesis import given, settings, strategies as st

from linksgould import Refusal, alexander, engine
from linksgould.alexander import (
    AlexanderMismatchError,
    _determinant,
    _products,
    _sum,
    at_q_one,
    burau,
    check,
    is_square_multiple,
    square_root,
)
from linksgould.braid import BraidWord, conjugate, free_insert, mirror, parse, random_braid
from linksgould.cli import main
from linksgould.engine import ALL_COLUMNS, evaluate_raw, execute, plan
from linksgould.invariant import from_compact, to_raw
from linksgould.knotdata import load_corpus
from linksgould.ring import ZERO

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


@given(polys, polys, polys)
def test_sum_is_f_plus_g_minus_h_and_leaves_its_operands(f, g, h):
    kept = [dict(f), dict(g), dict(h)]
    assert _sum(f, g, h) == plus(f, g, minus(h))
    assert [f, g, h] == kept


def identity(n):
    return [[{0: 1} if r == c else {} for c in range(n)] for r in range(n)]


def full(word):
    """The whole Burau matrix: row 1 from rows 2..n, since u B = u for
    u = (1, t, ..., t^(n-1))."""
    rows = burau(word)
    first = [{c: 1} for c in range(word.n_strings)]
    for r, row in enumerate(rows, start=1):
        for c, entry in enumerate(row):
            first[c] = plus(first[c], minus({e + r: v for e, v in entry.items()}))
    return [first] + rows


def letters(n, *pairs):
    """A word of single letters, kept apart (no run-length merge)."""
    return BraidWord(n, tuple(pairs))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_a_letter_times_its_inverse_is_the_identity(n):
    for i in range(1, n):
        assert burau(letters(n, (i, 1), (i, -1))) == identity(n)[1:]
        assert burau(letters(n, (i, -1), (i, 1))) == identity(n)[1:]
    assert full(BraidWord(n, ())) == identity(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_the_burau_matrices_satisfy_the_braid_relations(n):
    for i in range(1, n - 1):
        for e in (1, -1):
            lhs = letters(n, (i, e), (i + 1, e), (i, e))
            rhs = letters(n, (i + 1, e), (i, e), (i + 1, e))
            assert burau(lhs) == burau(rhs), (i, e)
    for i in range(1, n):
        for j in range(i + 2, n):  # far commutation
            for e, f in ((1, 1), (1, -1), (-1, -1)):
                assert burau(letters(n, (i, e), (j, f))) == burau(letters(n, (j, f), (i, e)))


@pytest.mark.parametrize("e", [1, 2, 3, 5, 8, -1, -2, -3, -5, -8])
def test_a_power_is_its_letters_one_by_one(e):
    # sigma^e comes from the closed form M^e = alpha M + (1 - alpha) I
    one = (2, 1 if e > 0 else -1)
    assert burau(BraidWord(4, (one,) * abs(e))) == burau(BraidWord(4, ((2, e),)))


def test_the_rows_are_the_matrix_product():
    # B(sigma_1) on two strings, and B(uv) = B(u) B(v)
    t = {1: 1}
    assert full(parse("1")) == [[{0: 1, 1: -1}, t], [{0: 1}, {}]]
    assert full(parse("-1")) == [[{}, {0: 1}], [{-1: 1}, {0: 1, -1: -1}]]
    u, v = parse("1 -2 1", 3), parse("2 2 -1", 3)
    bu, bv = full(u), full(v)
    expected = [
        [plus(*(times(bu[r][k], bv[k][c]) for k in range(3))) for c in range(3)]
        for r in range(3)
    ]
    assert full(BraidWord(3, u.letters + v.letters)) == expected


def cofactor_determinant(m):
    """The determinant as the sum over permutations, for small m."""
    n = len(m)
    total = {}
    for perm in permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = {0: sign}
        for r, c in enumerate(perm):
            term = times(term, m[r][c])
        total = plus(total, term)
    return total


# up to 6 x 6: the oracle's minors of a word on 7 strings
@settings(deadline=None, max_examples=60)
@given(st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_fraction_free_elimination_is_the_determinant(n, seed):
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.3:
            return {}
        poly = {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))}
        return {e: c for e, c in poly.items() if c}

    m = [[entry() for _ in range(n)] for _ in range(n)]
    assert _determinant(m) == cofactor_determinant(m)


@pytest.mark.parametrize(
    "word, strings, delta",
    [
        ("", 1, {0: 1}),  # the unknot
        ("1^3", None, {0: 1, 1: -1, 2: 1}),  # trefoil: t^2 - t + 1
        ("1 -2 1 -2", None, {-2: -1, -1: 3, 0: -1}),  # figure eight
        ("1^2", None, {0: 1, 1: -1}),  # Hopf link: 1 - t
        ("", 2, {}),  # two-component unlink: split
        ("1 -1 3", 4, {}),  # split, and reduced to a split word
    ],
)
def test_alexander_examples(word, strings, delta):
    assert alexander.alexander(parse(word, strings)) == delta


@pytest.mark.parametrize("name", ["3_1", "4_1", "8_19", "10_124", "6^3_2", "JE_2_1"])
def test_the_stored_value_at_q_one_is_the_burau_delta_squared(name):
    entry = CORPUS[name]
    f = at_q_one(to_raw(from_compact(entry.compact)))  # in p, P = p^2
    delta = alexander.alexander(entry.braid)
    assert is_square_multiple(f, delta)
    root = square_root(f)
    assert root is not None and len(root) == len(delta)


def test_is_square_multiple_examples():
    # f in p against g in P = p^2: f(p) = p^k g(p^2)^2
    g = {0: 1, 1: -1, 2: 1}
    square = {0: 1, 2: -2, 4: 3, 6: -2, 8: 1}  # g(p^2)^2
    assert is_square_multiple(square, g)
    assert is_square_multiple({e - 7: c for e, c in square.items()}, g)  # times p^-7
    assert is_square_multiple({e + 3: c for e, c in square.items()}, g)  # times p^3
    assert not is_square_multiple(minus(square), g)  # -g(p^2)^2
    assert not is_square_multiple({**square, 4: 4}, g)
    assert not is_square_multiple({e // 2: c for e, c in square.items()}, g)  # g(p)^2
    assert not is_square_multiple({**square, 9: 1}, g)
    assert is_square_multiple({}, {}) and not is_square_multiple({}, g)
    assert not is_square_multiple({0: 1}, {})
    # coefficients far past the bits of one of them: still exact
    big = {0: 2**70, 5: -(2**70) + 1, 9: 3}
    spread = {2 * e: c for e, c in big.items()}  # big(p^2)
    assert is_square_multiple(times(spread, spread), big)
    assert not is_square_multiple(plus(times(spread, spread), {9: 1}), big)


def test_square_root_inverts_a_square():
    assert square_root({4: 1, 2: -2, 0: 3, -2: -2, -4: 1}) == {2: 1, 0: -1, -2: 1}
    assert square_root({0: 4}) == {0: 2}
    assert square_root({4: 1, 0: -1}) is None
    g = {3: 2, 1: -5, 0: 1, -4: 7}
    assert square_root(times(g, g)) == g


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
    real = alexander.alexander

    def wrong_for_the_trefoil(word):
        delta = real(word)
        return plus(delta, {0: 1}) if word == parse("1 1 1") else delta

    monkeypatch.setattr(alexander, "alexander", wrong_for_the_trefoil)
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
    # but the oracle would form Delta of the word as given: 10^6 terms
    def refuse(word):
        raise AssertionError("the oracle ran")

    monkeypatch.setattr(alexander, "alexander", refuse)
    with pytest.raises(engine.ExponentRangeError, match="1000000 letters and 2 closed strings"):
        evaluate_raw(parse("1^1000000", 3))


def test_a_word_that_cancels_costs_the_oracle_no_letter(monkeypatch):
    # (1 -2)^2000 (2 -1)^2000, 8,000 letters on 3 strings, is the identity
    letters = []
    monkeypatch.setattr(alexander, "_letter", lambda *args: letters.append(args))
    word = BraidWord(3, ((1, 1), (2, -1)) * 2000 + ((2, 1), (1, -1)) * 2000)
    assert evaluate_raw(word) == ZERO
    assert letters == []


def test_a_conjugated_word_that_cancels_costs_the_oracle_few_letters(monkeypatch):
    # (1 -2)^2000 3 (2 -1)^2000 4, 8,002 letters on 5 strings: the trailing
    # 4 commutes with the 1 that starts the word, so the 1, moved to the
    # end, cancels the last -1, and so on inwards
    calls, real = [], alexander._letter

    def counted(*args):
        calls.append(args)
        if len(calls) > 100:
            raise AssertionError("the oracle formed over 100 letters")
        return real(*args)

    monkeypatch.setattr(alexander, "_letter", counted)
    word = BraidWord(5, ((1, 1), (2, -1)) * 2000 + ((3, 1),) + ((2, 1), (1, -1)) * 2000 + ((4, 1),))
    assert evaluate_raw(word) == ZERO


def unit_free(f):
    """f up to a unit +-t^k: shifted to start at t^0, its top coefficient
    positive."""
    if not f:
        return f
    low, sign = min(f), 1 if f[max(f)] > 0 else -1
    return {e - low: sign * c for e, c in f.items()}


def inverse(word):
    """The word's inverse: its letters reversed and inverted."""
    return mirror(BraidWord(word.n_strings, word.letters[::-1]))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_the_oracles_normal_form_keeps_delta_under_the_moves(seed, index):
    # each move keeps the closure; the normal form takes the moved word
    # back to no more letters than the word's own
    word = random_braid(random.Random(seed), max_strings=4, max_expanded_len=10)
    n, size = word.n_strings, len(word.letters)
    g = (index % (n - 1) + 1, 1 if index & 1 else -1)
    moved = [
        free_insert(word, index % (size + 1), g[0]),
        conjugate(word, g),
        BraidWord(n, word.letters[index % (size or 1):] + word.letters[: index % (size or 1)]),
    ]
    delta = unit_free(alexander.alexander(word))
    for other in moved:
        assert unit_free(alexander.alexander(other)) == delta, other
        assert len(alexander._normal_form(other).letters) <= size, other
    # a word times its inverse cancels to nothing: a split link on n >= 2
    identity = BraidWord(n, word.letters + inverse(word).letters)
    assert alexander._normal_form(identity).letters == ()
    assert alexander.alexander(identity) == {} and evaluate_raw(identity) == ZERO
    # a conjugator of up to 40 letters, then a letter two or more positions
    # from the conjugator's first, which commutes with it: moving letters
    # from the front to the end may then cancel across the trailing letter
    c = random_braid(random.Random(index), max_strings=5, max_expanded_len=40)
    if c.letters:
        first = c.letters[0][0]
        m = max(n, c.n_strings, first + 3)
        far = [p for p in range(1, m) if abs(p - first) >= 2]
        x = ((far[index % len(far)], g[1]),)
        conjugated = BraidWord(m, c.letters + word.letters + inverse(c).letters)
        delta = unit_free(alexander.alexander(BraidWord(m, word.letters)))
        assert unit_free(alexander.alexander(conjugated)) == delta, conjugated
        followed = BraidWord(m, conjugated.letters + x)
        rotated = BraidWord(m, word.letters + inverse(c).letters + x + c.letters)
        assert unit_free(alexander.alexander(followed)) == unit_free(alexander.alexander(rotated))
