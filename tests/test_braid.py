import copy
import pickle
import random
import time

import pytest
from hypothesis import given, strategies as st

from linksgould import braid
from linksgould.braid import (
    BraidSyntaxError,
    BraidWord,
    components,
    infer_strings,
    parse,
    reduce_closure,
    render,
    writhe,
)
from linksgould.checks import conjugate, free_insert, mirror, random_braid, stabilize


def test_parse_merges_runs():
    b = parse("1 1 1")
    assert b.n_strings == 2
    assert b.letters == ((1, 3),)


def test_parse_alternation_prevents_merging():
    b = parse("1 -2 1 -2")
    assert b.n_strings == 3
    assert b.letters == ((1, 1), (2, -1), (1, 1), (2, -1))


def test_parse_empty_word():
    b = parse("", 1)
    assert b.n_strings == 1 and b.letters == ()
    assert parse("").n_strings == 1


def test_caret_notation_equals_expanded():
    assert parse("1^2 2^3 3^3") == parse("1 1 2 2 2 3 3 3")
    assert parse("1^-3") == parse("-1 -1 -1")
    assert parse("-2^3") == parse("-2 -2 -2")
    assert parse("-2^-2") == parse("2 2")
    assert parse("1^0 2") == parse("2")


def test_zero_exponent_counts_toward_the_strings():
    assert parse("2^0") == BraidWord(3, ())
    assert parse("1 3^0") == BraidWord(4, ((1, 1),))
    assert parse("-3^0", 4).n_strings == 4
    with pytest.raises(BraidSyntaxError, match="--strings 2 below inferred minimum 4"):
        parse("3^0 1 1 1", 2)


def test_commas_accepted():
    assert parse("1, -2, 1, -2") == parse("1 -2 1 -2")


def test_opposite_signs_not_cancelled():
    # exact word preserved: no silent free reduction
    b = parse("1 -1")
    assert b.letters == ((1, 1), (1, -1))


def test_infer_strings():
    assert infer_strings([(1, 3)]) == 2
    assert infer_strings([(1, 1), (2, -1)]) == 3
    assert infer_strings([]) == 1


def test_explicit_strings_override():
    b = parse("1 1", 4)
    assert b.n_strings == 4
    with pytest.raises(BraidSyntaxError):
        parse("2 2", 2)


@pytest.mark.parametrize("text", ["１ １ １", "١^3", "1^٣", "-١"])
def test_non_ascii_digits_are_refused(text):
    # int() reads the digits of any script; the grammar takes ASCII only
    with pytest.raises(BraidSyntaxError, match="bad token"):
        parse(text)


def test_syntax_errors_carry_position():
    with pytest.raises(BraidSyntaxError, match="position 2"):
        parse("1 x 2")
    with pytest.raises(BraidSyntaxError):
        parse("0")
    with pytest.raises(BraidSyntaxError):
        parse("1^")
    # integers past the interpreter's digit limit, as an index or an exponent
    with pytest.raises(BraidSyntaxError, match="position 3"):
        parse("1 2 " + "1" * 5000)
    with pytest.raises(BraidSyntaxError, match="position 1"):
        parse("1^" + "1" * 5000)


def test_closure_components():
    assert components(parse("1 1 1")) == 1
    assert components(parse("1 1")) == 2
    assert components(parse("", 3)) == 3


def closure_by_walk(word):
    """The number of components of the closure, one crossing at a time."""
    perm = list(range(word.n_strings))
    for pos, exp in word.letters:
        for _ in range(abs(exp)):
            perm[pos - 1], perm[pos] = perm[pos], perm[pos - 1]
    cycles, unseen = 0, set(perm)
    while unseen:
        cycles += 1
        i = unseen.pop()
        while perm[i] in unseen:
            i = perm[i]
            unseen.remove(i)
    return cycles


def test_closure_info_reads_exponent_parity():
    rng = random.Random(17)
    for _ in range(200):
        n = rng.randint(2, 6)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1)) * rng.randint(1, 6))
            for _ in range(rng.randint(0, 8))
        )
        b = BraidWord(n, letters)
        assert components(b) == closure_by_walk(b), b
    start = time.perf_counter()
    count = components(parse("1^3000000 2^-3000001", 3))
    assert time.perf_counter() - start < 1.0  # O(letters), not O(crossings)
    assert count == 2


def test_writhe():
    assert writhe(parse("1 1 1")) == 3
    assert writhe(parse("1 -2 1 -2")) == 0
    assert writhe(parse("", 1)) == 0


def test_mirror():
    assert mirror(parse("1^3")) == parse("1^-3")
    assert mirror(parse("1 -2 1 -2")) == parse("-1 2 -1 2")
    assert mirror(parse("", 1)) == parse("", 1)


def test_conjugate_reduces_to_original():
    b = parse("1^3")
    assert reduce_closure(conjugate(b, (1, 1))) == b


@pytest.mark.parametrize(
    "word, strings, reduced, reduced_strings",
    [
        ("1 -1", 2, "", 2),  # cancelled, and the two strings stay apart
        ("1 3 -1", 4, "", 3),  # slid past 3 and cancelled; string 4 destabilized
        ("1 3 1", 4, "1^2", 3),
        ("1 -2 1 -2", 3, "1 -2 1 -2", 3),  # 2 blocks 1: nothing moves
        ("2 1^2 -2^3", 3, "1^2 -2^2", 3),  # the first 2 crosses the seam into the last
        ("1^3 2", 3, "1^3", 2),  # a stabilization at string n
        ("1 2^3", 3, "1^3", 2),  # and one at string 1, positions shifted down
        ("1 -2 1 3", 4, "1^2", 2),  # strings 4 and 3 destabilized, then 1 1 merged
        ("1^200", 3, "1^200", 3),  # string 3 is untouched: a split unknot stays
        ("2^200", 3, "2^200", 3),
        ("", 2, "", 2),
        ("1", 2, "", 1),
        ("1^2", 2, "1^2", 2),  # string 2 is touched by one letter, but twice
    ],
)
def test_reduce_closure_moves(word, strings, reduced, reduced_strings):
    assert reduce_closure(parse(word, strings)) == parse(reduced, reduced_strings)


def _slide_by_scan(letters):
    # reduce_closure's first slide as a scan back from the end for each
    # letter, the reference for the linear-time _slide
    out = []
    for pos, exp in letters:
        k = next((k for k in range(len(out) - 1, -1, -1) if abs(out[k][0] - pos) < 2), None)
        if k is None or out[k][0] != pos:
            out.append((pos, exp))
        elif out[k][1] + exp:
            out[k] = (pos, out[k][1] + exp)
        else:
            del out[k]
    return out


def test_slide_matches_the_scan_on_random_words():
    rng = random.Random(23)
    for _ in range(4000):
        n = rng.randint(2, 7)
        letters = [
            (rng.randint(1, n - 1), rng.choice((1, -1, 2, -2, 3)))
            for _ in range(rng.randint(0, 30))
        ]
        assert braid._slide(letters) == _slide_by_scan(letters), letters


def _merge_seam_by_scan(letters):
    # reduce_closure's seam merge as a scan from the front that restarts
    # after each merge, the reference for the linear-time _merge_seam
    def blocker(indices, pos):
        return next((k for k in indices if abs(letters[k][0] - pos) < 2), None)

    i = 0
    while i < len(letters):
        pos, exp = letters[i]
        if blocker(range(i - 1, -1, -1), pos) is None:
            j = blocker(range(len(letters) - 1, i, -1), pos)
            if j is not None and letters[j][0] == pos:
                total = letters[j][1] + exp
                merged = [(pos, total)] if total else []
                letters = letters[:i] + letters[i + 1 : j] + merged + letters[j + 1 :]
                i = 0
                continue
        i += 1
    return letters


def test_merge_seam_matches_the_scan_on_random_words():
    rng = random.Random(24)
    for _ in range(10000):
        n = rng.randint(2, 7)
        letters = [
            (rng.randint(1, n - 1), rng.choice((1, -1, 2, -2, 3)))
            for _ in range(rng.randint(0, 30))
        ]
        # as given, and as reduce_closure hands it over, after the slide
        for word in (letters, braid._slide(letters)):
            assert braid._merge_seam(word) == _merge_seam_by_scan(word), word


def test_stabilize():
    b = stabilize(parse("1^3"), 1)
    assert b.n_strings == 3
    assert b.letters == ((1, 3), (2, 1))
    b = stabilize(parse("", 1), -1)
    assert b.n_strings == 2
    assert b.letters == ((1, -1),)
    with pytest.raises(ValueError):
        stabilize(parse("1"), 0)


def test_free_insert():
    b = free_insert(parse("1^2"), 0, 1)
    assert b.letters == ((1, 1), (1, -1), (1, 2))


def test_letter_validation():
    with pytest.raises(ValueError):
        BraidWord(2, ((2, 1),))
    with pytest.raises(ValueError):
        BraidWord(2, ((1, 0),))
    with pytest.raises(ValueError):
        BraidWord(0, ())


def test_braid_word_is_an_immutable_value():
    b = parse("1 -2 1", 4)
    assert b == BraidWord(4, ((1, 1), (2, -1), (1, 1)))
    assert b != BraidWord(3, b.letters) and b != (4, b.letters)
    assert {b: 1}[parse("1 -2 1", 4)] == 1
    assert repr(b) == "BraidWord(n_strings=4, letters=((1, 1), (2, -1), (1, 1)))"
    with pytest.raises(AttributeError):
        b.n_strings = 5
    with pytest.raises(AttributeError):
        del b.letters
    assert copy.deepcopy(b) == b and pickle.loads(pickle.dumps(b)) == b


words = st.integers(0, 10**9).map(
    lambda s: random_braid(random.Random(s), max_strings=5, max_expanded_len=10)
)


@given(words)
def test_parse_render_round_trip(b):
    assert parse(render(b), b.n_strings) == b


@given(words)
def test_mirror_properties(b):
    m = mirror(b)
    assert writhe(m) == -writhe(b)
    assert components(m) == components(b)
    assert mirror(m) == b


@given(words)
def test_stabilize_properties(b):
    for sign in (1, -1):
        s = stabilize(b, sign)
        assert s.n_strings == b.n_strings + 1
        assert components(s) == components(b)


@given(words, st.integers(0, 10**9))
def test_conjugation_preserves_components(b, seed):
    rng = random.Random(seed)
    g = (rng.randint(1, b.n_strings - 1), rng.choice((1, -1)))
    assert components(conjugate(b, g)) == components(b)


@given(words)
def test_reduce_closure_properties(b):
    r = reduce_closure(b)
    assert reduce_closure(r) == r
    assert len(r.letters) <= len(b.letters)
    assert r.expanded_length() <= b.expanded_length()
    assert r.n_strings <= b.n_strings
    assert components(r) == components(b)
