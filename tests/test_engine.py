import logging
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import linksgould
from linksgould import engine
from linksgould.alexander import AlexanderMismatchError
from linksgould.braid import BraidWord, conjugate, parse, random_braid, reduce_closure
from linksgould.engine import (
    ALL_COLUMNS,
    ANY,
    COLUMNS,
    DEFAULT_SIZE_CAP,
    DIAGONAL,
    NonScalarTangleError,
    SizeCapExceeded,
    SparseTangle,
    accrete,
    close,
    combine,
    evaluate_raw,
    execute,
    extract_scalar,
    generator_power,
    identity_tangle,
    lower_in,
    plan,
)
from linksgould.invariant import StructureError
from linksgould.ring import ONE, ZERO, LaurentQP
from linksgould.statemodel import GAUGED, HANDLE_PLUS

from test_ring import invert_qp

# reference values in raw (eq2, ep) coordinates, P = p^2
TREFOIL_RAW = LaurentQP(
    {
        (0, 0): 1, (4, 0): 2,
        (2, 2): -1, (6, 2): -1, (2, -2): -1, (6, -2): -1,
        (4, 4): 1, (4, -4): 1,
    }
)
HOPF_RAW = LaurentQP({(0, 0): -1, (4, 0): -1, (2, 2): 1, (2, -2): 1})


def test_identity_tangle_sizes():
    t = identity_tangle(1)
    assert len(t.entries) == 4 and all(v == ONE for v in t.entries.values())
    assert len(identity_tangle(2).entries) == 16
    assert len(identity_tangle(3).entries) == 64


def test_identity_tangle_is_diagonal():
    cells = identity_tangle(2).entries
    assert cells[(1, 2), (1, 2)] == ONE
    assert ((1, 2), (2, 1)) not in cells


def test_size_guard():
    with pytest.raises(SizeCapExceeded) as exc:
        identity_tangle(6)
    assert "16777216" in str(exc.value)
    assert exc.value.full_size == 4**12
    # five strings are admitted by the default cap
    assert identity_tangle(5).n == 5
    with pytest.raises(SizeCapExceeded):
        identity_tangle(2, max_size=100)


def test_accrete_position_validation():
    z = identity_tangle(2)
    with pytest.raises(ValueError):
        accrete(z, generator_power(1), 0)
    with pytest.raises(ValueError):
        accrete(z, generator_power(1), 2)
    with pytest.raises(ValueError, match="not 2"):
        accrete(z, identity_tangle(3), 1)  # only 2-string tangles accrete


def test_identity_absorbs_generator():
    z = accrete(identity_tangle(2), generator_power(1), 1)
    assert z == generator_power(1)
    assert len(z.entries) == 26


def test_inverse_cancellation():
    z = accrete(identity_tangle(2), generator_power(1), 1)
    z = accrete(z, generator_power(-1), 1)
    assert z.entries == identity_tangle(2).entries


@pytest.mark.parametrize("n_times", range(1, 7))
def test_run_length_batching(n_times):
    one_shot = accrete(identity_tangle(2), generator_power(n_times), 1)
    step = identity_tangle(2)
    for _ in range(n_times):
        step = accrete(step, generator_power(1), 1)
    assert one_shot.entries == step.entries


def test_sparsity_bound_along_accretion():
    rng = random.Random(7)
    for _ in range(10):
        b = random_braid(rng, max_strings=4, max_expanded_len=6)
        bound = 4 ** (2 * b.n_strings)
        z = identity_tangle(b.n_strings)
        assert len(z.entries) == 4**b.n_strings
        for pos, exp in b.letters:
            z = accrete(z, generator_power(exp), pos)
            assert len(z.entries) <= bound


def test_close_identity_two_strings_vanishes():
    # the handle is traceless, so a free closed strand kills the tangle
    t = close(identity_tangle(2), 1)
    assert t.n == 1 and not t.entries


@pytest.mark.parametrize("n", [1, 2, 3])
def test_close_refuses_a_string_outside_the_tangle(n):
    z = identity_tangle(n)
    for j in (0, n + 1):
        with pytest.raises(ValueError, match=f"string {j} outside 1..{n}"):
            close(z, j)


def test_trefoil_closure_is_scalar():
    z = accrete(identity_tangle(2), generator_power(3), 1)
    t = close(z, 1)
    assert t.entries == {((a,), (a,)): TREFOIL_RAW for a in range(4)}
    assert extract_scalar(t) == TREFOIL_RAW


def test_extract_scalar_cases():
    assert extract_scalar(identity_tangle(1)) == ONE
    assert extract_scalar(SparseTangle.from_cells(1, {})) == ZERO
    skew = SparseTangle.from_cells(1, {((0,), (1,)): ONE})
    with pytest.raises(NonScalarTangleError, match=r"t\[0\]\[1\]"):
        extract_scalar(skew)
    lopsided = SparseTangle.from_cells(1, {((0,), (0,)): ONE})  # t[0][0] only
    with pytest.raises(NonScalarTangleError):
        extract_scalar(lopsided)
    # formed in columns 0 and 3 only: those columns of ONE * I are ONE
    two = SparseTangle.from_cells(1, {((0,), (0,)): ONE, ((3,), (3,)): ONE})
    assert extract_scalar(two, (0, 3)) == ONE
    with pytest.raises(NonScalarTangleError, match=r"t\[3\]\[3\]"):
        extract_scalar(lopsided, (0, 3))
    with pytest.raises(NonScalarTangleError, match=r"t\[1\]\[1\]"):
        extract_scalar(identity_tangle(1), (0, 3))  # a cell outside the columns
    off = SparseTangle.from_cells(1, {((0,), (0,)): ONE, ((3,), (3,)): ONE, ((0,), (3,)): ONE})
    with pytest.raises(NonScalarTangleError, match=r"t\[0\]\[3\]"):
        extract_scalar(off, (0, 3))
    # formed in column 0 only, as evaluate_raw forms it: any other cell is refused
    assert extract_scalar(lopsided, (0,)) == ONE
    assert extract_scalar(SparseTangle.from_cells(1, {}), (0,)) == ZERO
    below = SparseTangle.from_cells(1, {((0,), (0,)): ONE, ((2,), (0,)): -ONE})
    with pytest.raises(NonScalarTangleError, match=r"t\[2\]\[0\] = -1$"):
        extract_scalar(below, (0,))
    with pytest.raises(NonScalarTangleError, match=r"t\[1\]\[1\]"):
        extract_scalar(identity_tangle(1), (0,))


def seeded_four_string_braids(seed):
    """15 random 10-letter 4-string braids whose reduced words still touch
    all 4 strings."""
    rng = random.Random(seed)
    braids = []
    while len(braids) < 15:
        b = BraidWord(4, tuple((rng.randint(1, 3), rng.choice((1, -1))) for _ in range(10)))
        if engine._touched(reduce_closure(b)) == {1, 2, 3, 4}:
            braids.append(b)
    return braids


@pytest.mark.parametrize("cell", sorted(GAUGED))
def test_a_negated_crossing_cell_is_not_scalar(monkeypatch, cell):
    # evaluate_raw forms column 0 only, whose off-diagonal cells vanish even
    # for a wrong R.  The Alexander oracle catches every negated cell but
    # (9, 9), q^2 - 1, which vanishes at q = 1: that one changes 14 of the
    # 15 values, and to_invariant refuses each of them.  The mutant R^-1 is
    # the e = -1 combination over the mutant R's Newton basis, so inverse
    # letters are mutated too, and so is every power.
    gauged = dict(GAUGED)
    gauged[cell] = -gauged[cell]
    powers = generator_power(3), generator_power(-3)
    names = ("_SIGMA", "_SIGMA_INVERSE", "_BASIS")
    for name, t in zip(names, engine._crossing(gauged)):
        monkeypatch.setattr(engine, name, t)
    assert generator_power(3) != powers[0] and generator_power(-3) != powers[1]
    caught = []
    for b in seeded_four_string_braids(2):
        try:
            linksgould.evaluate(b)
        except (AlexanderMismatchError, StructureError, NonScalarTangleError) as exc:
            caught.append(type(exc))
    if cell == (9, 9):
        assert caught == [StructureError] * 14
    else:
        assert AlexanderMismatchError in caught, f"negating R cell {cell} went unnoticed"


def test_evaluate_raw_base_cases():
    assert evaluate_raw(parse("", 1)) == ONE
    assert evaluate_raw(parse("", 2)) == ZERO  # split closure
    assert evaluate_raw(parse("1 1")) == HOPF_RAW
    assert evaluate_raw(parse("1^3")) == TREFOIL_RAW


def test_evaluate_raw_respects_cap():
    with pytest.raises(SizeCapExceeded):
        evaluate_raw(parse("1", 6))
    assert evaluate_raw(parse("1", 6), max_size=4**12) == ZERO


def test_conjugation_invariance_examples():
    # planned as given: evaluate_raw would reduce the conjugate to the word
    rng = random.Random(99)
    for word in ("1^3", "1 -2 1 -2", "1 2 1"):
        b = parse(word)
        base = execute(plan(b))
        g = (rng.randint(1, b.n_strings - 1), rng.choice((1, -1)))
        assert execute(plan(conjugate(b, g))) == base


def test_raw_values_live_in_the_even_subring():
    for word, strings in (("1^3", None), ("1 1", None), ("1 -2 1 -2", None), ("", 2)):
        raw = evaluate_raw(parse(word, strings))
        assert isinstance(raw, LaurentQP)
        assert all(eq2 % 2 == 0 and ep % 2 == 0 for eq2, ep in raw.terms)


def test_sparse_tangle_entry_lookup():
    cells = SparseTangle.from_cells(1, {((1,), (1,)): ONE}).entries
    assert cells.get(((1,), (1,))) == ONE
    assert ((0,), (1,)) not in cells


def test_entries_is_a_new_dict_on_each_read():
    t = generator_power(1)
    cells = t.entries
    assert cells == t.entries and cells is not t.entries
    before = dict(t.terms)
    cells.clear()
    cells[(0, 0), (0, 1)] = ONE
    assert t.terms == before and len(t.entries) == 26


def test_progress_diagnostics_on_verbose_channel(caplog):
    with caplog.at_level(logging.DEBUG, logger="linksgould.engine"):
        evaluate_raw(parse("1 -2 1 -2"))
    messages = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("step=") and " op=accrete " in m and " cells=" in m for m in messages)
    assert any(m.startswith("step=") and " op=close " in m for m in messages)


def close_all(z, strings):
    """z with the given strings closed, one at a time from the right."""
    for j in sorted(strings, reverse=True):
        z = close(z, j)
    return z


def old_schedule(word):
    """Every string open from the first letter to the last, then every
    string but the rightmost closed: the schedule evaluate_raw used before
    it opened and closed strings as they go live and dead."""
    z = identity_tangle(word.n_strings)
    for pos, exp in word.letters:
        z = accrete(z, generator_power(exp), pos)
    return extract_scalar(close_all(z, range(1, z.n)))


@st.composite
def braid_words(draw):
    n = draw(st.integers(2, 4))
    letter = st.tuples(st.integers(1, n - 1), st.integers(-5, 5).filter(bool))
    return BraidWord(n, tuple(draw(st.lists(letter, max_size=4))))


@settings(deadline=None, max_examples=30)  # old_schedule on 4 strings is dense
@given(braid_words())
def test_pruned_schedule_matches_the_old_schedule(b):
    # the last letter of each closing string forms only the cells its close
    # reads; old_schedule forms every cell and closes at the end
    assert execute(plan(b)) == old_schedule(b), b


@settings(deadline=None)
@given(braid_words())
def test_every_column_gives_the_four_column_value(b):
    # no step changes a lower index, so each column of string n is summed
    # on its own and closes to the same scalar
    value = execute(plan(b, ALL_COLUMNS))
    for columns in ((0,), (1,), (2,), (3,), COLUMNS):
        assert execute(plan(b, columns)) == value, (b, columns)


def terms(t):
    return sum(len(v.terms) for v in t.entries.values())


@pytest.mark.parametrize("e", [64, -64])
def test_take_forms_only_the_terms_its_close_reads(monkeypatch, e):
    b = parse(f"1^{e}")
    expected = old_schedule(b)
    handed = []

    def recording(z, j):
        handed.append(z)
        return close(z, j)

    monkeypatch.setattr(engine, "close", recording)
    assert execute(plan(b)) == expected
    assert terms(generator_power(e)) == 34_818
    # upper == lower on string 1, and lower in COLUMNS on string 2; the
    # two columns 0 and 3 held 4,545 terms, and R^-e swaps their counts
    assert [terms(z) for z in handed] == [{64: 2_340, -64: 2_205}[e]]


def test_live_strings_match_the_old_schedule():
    rng = random.Random(2024)
    for _ in range(200):
        b = random_braid(rng, max_strings=4, max_expanded_len=10)
        assert execute(plan(b)) == old_schedule(b), b


@pytest.mark.parametrize(
    "word, strings",
    [
        ("1", 3),  # the open string is never touched
        ("-1 1 3", 4),  # a component closes off mid-word
        ("", 1),
        ("", 2),
        ("2 2 2", 3),  # string 1 is never touched
        ("1 -2 1 3 -2 3", 4),
    ],
)
def test_schedule_edge_cases(word, strings):
    b = parse(word, strings)
    assert execute(plan(b)) == old_schedule(b)


def test_untouched_and_split_words_vanish():
    assert evaluate_raw(parse("1", 3)) == ZERO
    assert evaluate_raw(parse("-1 1 3", 4)) == ZERO


def test_every_rotation_gives_one_value():
    b = parse("1 -2 3 -2 1", 4)
    values = {
        str(execute(plan(BraidWord(4, b.letters[r:] + b.letters[:r]))))
        for r in range(len(b.letters))
    }
    assert values == {str(old_schedule(b))}


def rotation_costs_by_brute_force(top, letters):
    """Each rotation's cost, from each string's span in the rotated word:
    string top, the open string, stays live to the end."""
    costs = []
    for r in range(max(len(letters), 1)):
        rotated = letters[r:] + letters[:r]
        spans = {}
        for t, (pos, _) in enumerate(rotated):
            for s in (pos, pos + 1):
                spans[s] = (spans.get(s, (t, t))[0], t)
        end = len(rotated) - 1
        costs.append(
            sum(
                16 ** sum(lo <= t <= (end if s == top else hi) for s, (lo, hi) in spans.items())
                for t in range(len(rotated))
            )
        )
    return costs


def test_rotation_costs_match_brute_force():
    # every open string top, touched or not, and below a touched string or
    # not (plan passes the highest touched string, or string n); in "3 2"
    # string 3 is both the open string and the lower string of letter 0
    rng = random.Random(5)
    for b in [parse("3 2", 6)] + [random_braid(rng, 6, 30) for _ in range(150)]:
        for top in range(1, b.n_strings + 1):
            expected = rotation_costs_by_brute_force(top, b.letters)
            assert engine._rotation_costs(top, b.letters) == expected, (top, b)


@pytest.mark.parametrize(
    "word, strings, rotation",
    [
        ("1 -1", 2, 0),  # both rotations cost the same: the word as written wins
        ("1 -2 1 -2", 3, 0),
        # string 1's letters wrap around the end: starting at the last
        # letter closes it after the second
        ("1 2 3 3 1", 4, 3),
        ("1 3 3 2 1", 4, 2),  # rotations 2 and 3 tie: the earlier wins
    ],
)
def test_chosen_rotation(word, strings, rotation):
    b = parse(word, strings)
    costs = rotation_costs_by_brute_force(b.n_strings, b.letters)
    assert rotation == costs.index(min(costs))
    assert plan(b)[0] == rotation


@pytest.mark.parametrize("word, strings, calls", [("1^5", 2, 0), ("1 2", 3, 1)])
def test_first_letter_is_taken_as_the_tangle(monkeypatch, word, strings, calls):
    seen = []

    def counting(*args):
        seen.append(args)
        return accrete(*args)

    monkeypatch.setattr(engine, "accrete", counting)
    b = parse(word, strings)
    assert execute(plan(b)) == old_schedule(b)
    assert len(seen) == calls


def test_opening_and_closing_are_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="linksgould.engine"):
        execute(plan(parse("1 2 -1 3", 4)))
    messages = caplog.messages
    assert messages[0] == f"plan rotation=0 cost={2 * 16**2 + 2 * 16**3} columns=0 steps=9"
    opened = [m for m in messages if " op=open " in m]
    closed = [m for m in messages if " op=close " in m]
    assert len(opened) == 2 and len(closed) == 3  # the take opens strings 1 and 2
    assert opened[-1].startswith("step=7/9 op=open string=4 exp=+0 live=2 cells=")
    assert all(" live=" in m and " cells=" in m and " terms=" in m for m in opened + closed)


@pytest.mark.parametrize(
    "word, strings",
    [
        ("1 -1 3^200", 4),  # a take, then an accretion skipped once the tangle is empty
        ("2^200", 3),  # a free string, opened and closed before the first letter
    ],
)
def test_execute_logs_one_plan_line_and_one_line_per_step(caplog, word, strings):
    schedule = plan(parse(word, strings))
    steps = schedule[3]
    with caplog.at_level(logging.DEBUG, logger="linksgould.engine"):
        execute(schedule)
    head, *lines = caplog.messages
    assert head.startswith("plan rotation=") and head.endswith(f" steps={len(steps)}")
    pattern = re.compile(
        r"step=(\d+)/(\d+) op=(open|take|accrete|close) string=(\d+) exp=([+-]\d+) "
        r"live=(\d+) cells=(\d+) terms=(\d+)"
    )
    fields = [pattern.fullmatch(line).groups() for line in lines]
    assert [(int(k), int(total), op, int(s), int(e)) for k, total, op, s, e, *_ in fields] == [
        (k, len(steps), op, s, e) for k, (op, s, _, e, _) in enumerate(steps, 1)
    ]
    # the live strings: one more per open, two for the take, one fewer per close
    live = 0
    for (op, *_), (*_, shown, cells, terms) in zip(steps, fields):
        live += {"open": 1, "take": 2, "accrete": 0, "close": -1}[op]
        assert int(shown) == live and int(cells) <= int(terms)


def test_no_power_is_formed_once_the_tangle_is_empty(monkeypatch):
    # strings 1 and 2 close off after "1 -1", so R^200 would be multiplied into 0
    built = []

    def counting(e, keep=(ANY, ANY)):
        built.append(e)
        return generator_power(e, keep)

    monkeypatch.setattr(engine, "generator_power", counting)
    assert execute(plan(parse("1 -1 3^200", 4))) == ZERO
    assert built == [1, -1]


def test_a_free_string_above_the_open_string_forms_no_power(monkeypatch):
    # string 3 is free: the highest touched string, 2, is the open string
    built = []

    def counting(e, keep=(ANY, ANY)):
        built.append(e)
        return generator_power(e, keep)

    monkeypatch.setattr(engine, "generator_power", counting)
    assert execute(plan(parse("1^200", 3))) == ZERO
    assert built == []


def test_sparse_tangle_equality():
    t = SparseTangle.from_cells(1, {((0,), (0,)): ONE})
    assert t == SparseTangle.from_cells(1, {((0,), (0,)): ONE})
    assert t != SparseTangle.from_cells(2, {((0, 0), (0, 0)): ONE})
    assert t != SparseTangle.from_cells(1, {})
    with pytest.raises(TypeError):
        hash(t)


def test_free_strings_close_before_the_first_letter(monkeypatch):
    # string 1 is free, so the tangle is 0 before the first letter and
    # R^200 is never formed
    built = []

    def counting(e, keep=(ANY, ANY)):
        built.append(e)
        return generator_power(e, keep)

    monkeypatch.setattr(engine, "generator_power", counting)
    assert execute(plan(parse("2^200", 3))) == ZERO
    assert built == []


@pytest.mark.parametrize("word, strings", [("1^200", 3), ("2^200", 3), ("1 -1 3^200", 4)])
def test_untouched_strings_form_no_power(monkeypatch, word, strings):
    # each reduced word leaves a string untouched, so its closure is split
    built = []

    def counting(e, keep=(ANY, ANY)):
        built.append(e)
        return generator_power(e, keep)

    monkeypatch.setattr(engine, "generator_power", counting)
    assert evaluate_raw(parse(word, strings)) == ZERO
    assert built == []


def test_reduced_word_is_logged(caplog):
    with caplog.at_level(logging.DEBUG, logger="linksgould.engine"):
        evaluate_raw(parse("1 3 -1 2 2 1", 4))
    assert "reduced word '1^2': 2 letters, 2 strings" in caplog.messages
    assert "plan rotation=0 cost=256 columns=0 steps=2" in caplog.messages


@settings(deadline=None)
@given(st.integers(0, 10**9))
def test_reduction_keeps_the_value(seed):
    b = random_braid(random.Random(seed), max_strings=5, max_expanded_len=8)
    assert evaluate_raw(b) == execute(plan(b)), b


def test_plan_step_by_step():
    rotation, cost, columns, steps = engine.plan(parse("1 2 -1 3", 4))
    assert rotation == 0
    assert cost == 16**2 + 16**3 + 16**3 + 16**2  # live strings at each letter
    assert columns == COLUMNS == (0,)
    opening = lower_in(COLUMNS)
    assert steps == [
        ("take", 1, 0, 1, (ANY, ANY)),  # opens strings 1, 2 on the scalar ONE: R is the tangle
        ("open", 3, 2, 0, (ANY,)),
        ("accrete", 2, 1, 1, (ANY, ANY)),
        ("accrete", 1, 0, -1, (DIAGONAL, DIAGONAL)),  # both strings close next
        ("close", 2, 1, 0, ()),
        ("close", 1, 0, 0, ()),
        ("open", 4, 1, 0, (opening,)),  # string n opens in one column
        ("accrete", 3, 0, 1, (DIAGONAL, ANY)),
        ("close", 3, 0, 0, ()),
    ]
    # a take that opens string n restricts it there, with every column too
    _, _, columns, steps = engine.plan(parse("1^3"), ALL_COLUMNS)
    assert columns == ALL_COLUMNS
    assert steps == [
        ("take", 1, 0, 3, (DIAGONAL, lower_in(ALL_COLUMNS))),
        ("close", 1, 0, 0, ()),
    ]
    assert lower_in(ALL_COLUMNS) == ANY


def test_plan_does_no_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("the plan formed a tensor")

    monkeypatch.setattr(engine, "accrete", refuse)
    monkeypatch.setattr(engine, "generator_power", refuse)
    rng = random.Random(31)
    for _ in range(150):
        b = random_braid(rng, max_strings=6, max_expanded_len=14)
        n = b.n_strings
        touched = {s for pos, _ in b.letters for s in (pos, pos + 1)}
        top = max(touched, default=n)  # the open string
        costs = engine._rotation_costs(top, b.letters)
        rotation, cost, columns, steps = engine.plan(b)
        assert columns == COLUMNS, b
        assert (rotation, cost) == (costs.index(min(costs)), min(costs)), b
        letters = b.letters[rotation:] + b.letters[:rotation]
        live: list[int] = []  # the open braid strings, in order
        opened, closed, accreted, modelled = [], [], [], 0
        previous = None  # the latest step that is not a closing
        for k, step in enumerate(steps):
            op, s, i, e, keep = step
            if op == "open":
                assert s not in opened and live[:i] == [t for t in live if t < s], b
                live.insert(i, s)
                opened.append(s)
                assert keep == (lower_in(COLUMNS) if s == top else ANY,), b
            elif op == "close":
                assert s != top and live[i] == s, b
                if s in touched:  # right after its last letter
                    assert previous[0] in ("take", "accrete"), b
                    assert s in (previous[1], previous[1] + 1), b
                    # which that letter formed on the diagonal only
                    assert previous[4][s - previous[1]] == DIAGONAL, b
                else:  # a free string closes right after it opens
                    assert previous == ("open", s, i, 0, (ANY,)), b
                assert keep == (), b
                del live[i]
                closed.append(s)
            else:
                if op == "take":  # the first step: it opens its own two strings
                    assert k == 0 and i == 0, b
                    live[:] = [s, s + 1]
                    opened += [s, s + 1]
                assert live[i : i + 2] == [s, s + 1], b
                accreted.append((s, e))
                modelled += 16 ** len(live)
                closing = set()  # the strings the next steps close
                for later in steps[k + 1 :]:
                    if later[0] != "close":
                        break
                    closing.add(later[1])
                for t, restriction in zip((s, s + 1), keep):
                    if t in closing:
                        assert restriction == DIAGONAL, b
                    elif op == "take" and t == top:
                        assert restriction == lower_in(COLUMNS), b
                    else:
                        assert restriction == ANY, b
            assert len(live) <= n, b
            if op != "close":
                previous = step
        assert accreted == list(letters), b
        assert modelled == min(costs), b
        assert sorted(opened) == list(range(1, n + 1)), b
        assert sorted(closed) == sorted(set(range(1, n + 1)) - {top}), b
        # the identity the plan's reach check rests on: every string but one closes
        assert sum(op == "close" for op, *_ in steps) == b.n_strings - 1, b
        assert live == [top], b
        ops = [op for op, *_ in steps]
        free = set(range(1, n + 1)) - touched - {top}
        assert ops.count("take") == (1 if letters and not free else 0), b
        assert "take" not in ops or ops.index("take") == 0, b


# The tangle's key layout is the engine's own.  The tests below check its
# kernels against contractions written here over index tuples, reading and
# writing cells only through entries and from_cells.

def cells_of(n):
    return list(product(range(4), repeat=n))


def random_tangle(rng, n, density):
    """A sparse n-string tangle of small random polynomials, some of which
    cancel when summed."""
    cells = {}
    for upper in cells_of(n):
        for lower in cells_of(n):
            if rng.random() < density:
                terms = {(rng.randint(-1, 1), rng.randint(-1, 1)): rng.choice((-1, 1))}
                cells[upper, lower] = LaurentQP(terms)
    return SparseTangle.from_cells(n, cells)


def dense_accrete(z, x, j):
    zc, xc = z.entries, x.entries
    out = {}
    for upper in cells_of(z.n):
        for lower in cells_of(z.n):
            total = ZERO
            for inner in cells_of(2):
                xv = xc.get((upper[j - 1 : j + 1], inner))
                zv = zc.get((upper[: j - 1] + inner + upper[j + 1 :], lower))
                if xv and zv:
                    total = total + xv * zv
            out[upper, lower] = total
    return SparseTangle.from_cells(z.n, out)


def dense_open(z, i):
    """The nonzero cells of z with an identity string inserted after its
    first i strings."""
    zc = z.entries
    out = {}
    for upper in cells_of(z.n + 1):
        for lower in cells_of(z.n + 1):
            if upper[i] == lower[i]:
                v = zc.get((upper[:i] + upper[i + 1 :], lower[:i] + lower[i + 1 :]))
                if v:
                    out[upper, lower] = v
    return out


def dense_close(z, j):
    zc = z.entries
    out = {}
    for upper in cells_of(z.n - 1):
        for lower in cells_of(z.n - 1):
            total = ZERO
            for a in range(4):
                upper_a = upper[: j - 1] + (a,) + upper[j - 1 :]
                lower_a = lower[: j - 1] + (a,) + lower[j - 1 :]
                total = total + HANDLE_PLUS[a] * zc.get((upper_a, lower_a), ZERO)
            out[upper, lower] = total
    return SparseTangle.from_cells(z.n - 1, out)


def dense_keep(t, strings):
    """The cells of t with upper == lower on each of the given strings."""
    return restricted(t.n, dense_cells(t), {s: lambda a, b: a == b for s in strings})


def dense_cells(t):
    """The nonzero cells of t, {(upper, lower): value}, looked up one by
    one over every index pair."""
    tc = t.entries
    out = {}
    for upper in cells_of(t.n):
        for lower in cells_of(t.n):
            v = tc.get((upper, lower))
            if v:
                out[upper, lower] = v
    return out


def restricted(n, cells, admits):
    """The n-string tangle of the cells whose (upper, lower) pair on each
    string s in admits satisfies admits[s]."""
    return SparseTangle.from_cells(
        n,
        {
            (upper, lower): v
            for (upper, lower), v in cells.items()
            if all(test(upper[s - 1], lower[s - 1]) for s, test in admits.items())
        },
    )


# each restriction of one string's cells, with what it admits written here
RESTRICTIONS = [
    (ANY, lambda a, b: True),
    (DIAGONAL, lambda a, b: a == b),
    (lower_in(COLUMNS), lambda a, b: b in COLUMNS),
    (lower_in((0, 3)), lambda a, b: b in (0, 3)),
    (lower_in((2,)), lambda a, b: b == 2),
    (lower_in((1, 2)), lambda a, b: b in (1, 2)),
]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kernels_match_dense_contractions(n):
    rng = random.Random(n)
    for _ in range(2):
        z = random_tangle(rng, n, 0.3 if n < 3 else 0.02)
        x = random_tangle(rng, 2, 0.3)
        assert z.entries and x.entries
        for j in range(1, n):
            full = accrete(z, x, j)
            assert full == dense_accrete(z, x, j), j
            cells = dense_cells(full)
            for (first, admits_first), (second, admits_second) in product(RESTRICTIONS, repeat=2):
                kept = accrete(z, x, j, (first, second))
                expected = restricted(n, cells, {j: admits_first, j + 1: admits_second})
                assert kept == expected, (j, first, second)
            for closing in ((j,), (j + 1,), (j, j + 1)):
                keep = tuple(DIAGONAL if s in closing else ANY for s in (j, j + 1))
                kept = accrete(z, x, j, keep)
                assert kept == dense_keep(full, closing), (j, closing)
                assert close_all(kept, closing) == close_all(full, closing), (j, closing)
        for i in range(n + 1):
            cells = dense_open(z, i)
            assert engine._open_string(z, i) == restricted(n + 1, cells, {}), i
            for keep, admits in RESTRICTIONS:
                expected = restricted(n + 1, cells, {i + 1: admits})
                assert engine._open_string(z, i, keep) == expected, (i, keep)
        cells = dense_cells(z)
        for j in range(1, n + 1):
            assert close(z, j) == dense_close(z, j), j
            for keep, admits in RESTRICTIONS:
                kept = combine([(ONE, z)], (ANY,) * (j - 1) + (keep,) + (ANY,) * (n - j))
                assert kept == restricted(n, cells, {j: admits}), (j, keep)
        every = tuple(range(1, n + 1))
        assert combine([(ONE, z)], (DIAGONAL,) * n) == dense_keep(z, every)


@pytest.mark.parametrize("e", [1, 2, 3, 7, 12, -1, -2, -3, -7, -12])
def test_closing_power_is_the_power_restricted(e):
    full = generator_power(e)
    for closing in ((1,), (2,), (1, 2)):
        kept = generator_power(e, tuple(DIAGONAL if s in closing else ANY for s in (1, 2)))
        assert kept == dense_keep(full, closing), closing
        assert 0 < len(kept.entries) < len(full.entries), closing
    # every pair of restrictions, the columns of string n among them
    for (first, admits_first), (second, admits_second) in product(RESTRICTIONS, repeat=2):
        kept = generator_power(e, (first, second))
        expected = restricted(2, dense_cells(full), {1: admits_first, 2: admits_second})
        assert kept == expected, (first, second)
        assert 0 < len(kept.entries) <= len(full.entries), (first, second)


def test_inverse_is_the_generator_swapped_and_inverted():
    sig, inv = generator_power(1).entries, generator_power(-1).entries
    assert inv == {(upper[::-1], lower[::-1]): invert_qp(v) for (upper, lower), v in sig.items()}


def at(v, s, p):
    """v at q^(1/2) = s and p, exact rationals: its doubled q-exponents
    are exponents of s."""
    return sum(c * s**eq2 * p**ep for (eq2, ep), c in v.terms.items())


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_a_negative_power_is_one_combination_over_the_one_basis(n):
    h1, h2 = engine._newton_coefficients(-n)
    assert (len(h1.terms), len(h2.terms)) == (n, n * (n + 1) // 2)
    # the divided differences of x^-n at rationals, p < 1 keeping the nodes
    # apart, with no Laurent term
    rng = random.Random(n)
    for _ in range(5):
        s, p = Fraction(rng.randint(1, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), 10)
        nodes = (Fraction(-1), s * s / (p * p), s * s * p * p)  # -1, q p^-2, q p^2
        d01, d12 = ((b**-n - a**-n) / (b - a) for a, b in zip(nodes, nodes[1:]))
        assert at(h1, s, p) == d01
        assert at(h2, s, p) == (d12 - d01) / (nodes[2] - nodes[0])
    identity, n1, n2 = engine._BASIS
    parts = [(-ONE if n % 2 else ONE, identity), (h1, n1), (h2, n2)]
    assert combine(parts) == generator_power(-n)
    for (first, _), (second, _) in product(RESTRICTIONS, repeat=2):
        assert combine(parts, (first, second)) == generator_power(-n, (first, second))


def test_identity_on_no_strings_is_the_scalar_one():
    assert identity_tangle(0).entries == {((), ()): ONE}
    # and closing the only string of the identity leaves the handle's trace, 0
    assert close(identity_tangle(1), 1).entries == {}


@pytest.mark.parametrize(
    "upper, lower",
    [
        ((0, 0), (0,)),
        ((0,), (0, 0)),
        ((0, 0, 0), (0, 0, 0)),
        ((), ()),
        ((0, 4), (0, 0)),
        ((0, 0), (-1, 0)),
    ],
)
def test_entry_and_from_cells_refuse_misshapen_indices(upper, lower):
    # a cell entry is refused where it comes in, by from_cells
    with pytest.raises(ValueError, match="not two 2-tuples"):
        SparseTangle.from_cells(2, {(upper, lower): ONE})


# The packed terms: a term's cell above its two offset exponent fields,
# reached here only through from_cells, entries and combine.

FIELD_EDGES = st.sampled_from(
    [-engine._LIMIT, -engine._LIMIT + 1, -1, 0, 1, engine._LIMIT - 1, engine._LIMIT]
)
EXPONENTS = st.one_of(FIELD_EDGES, st.integers(-engine._LIMIT, engine._LIMIT))
FIVE_INDICES = st.tuples(*[st.integers(0, 3)] * 5)


@settings(deadline=None)
@given(FIVE_INDICES, FIVE_INDICES, EXPONENTS, EXPONENTS, EXPONENTS, EXPONENTS)
def test_pack_round_trips_at_the_field_edges(upper, lower, eq2, ep, dq, dp):
    cell = (upper, lower)
    t = SparseTangle.from_cells(5, {cell: LaurentQP.monomial(7, eq2, ep)})
    assert t.entries == {cell: LaurentQP.monomial(7, eq2, ep)}
    # a product with a monomial adds its exponents while they fit
    if abs(eq2 + dq) <= engine._LIMIT and abs(ep + dp) <= engine._LIMIT:
        moved = combine([(LaurentQP.monomial(1, dq, dp), t)])
        assert moved.entries == {cell: LaurentQP.monomial(7, eq2 + dq, ep + dp)}
    for q, p in ((eq2, engine._LIMIT + 1), (-engine._LIMIT - 1, ep)):
        with pytest.raises(engine.ExponentRangeError):
            SparseTangle.from_cells(5, {cell: LaurentQP.monomial(1, q, p)})


def test_cells_round_trip_through_the_packed_terms():
    value = LaurentQP({(-engine._LIMIT, engine._LIMIT): 3, (engine._LIMIT, -engine._LIMIT): -2})
    cells = {((0, 0), (0, 0)): value, ((3, 3), (3, 3)): ONE}
    t = SparseTangle.from_cells(2, cells)
    assert t.entries == cells
    with pytest.raises(engine.ExponentRangeError):
        SparseTangle.from_cells(1, {((0,), (0,)): LaurentQP.monomial(1, engine._LIMIT + 1)})


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_from_cells_inverts_entries(n, seed):
    # the boundary: cells in by from_cells and out by entries, both keyed
    # by (upper, lower) index tuples, with no zero cell
    t = random_tangle(random.Random(seed), n, 0.3 if n < 3 else 0.02)
    cells = t.entries
    assert SparseTangle.from_cells(t.n, cells) == t
    assert all(cells.values())


def reach(t):
    """The largest |eq2| and |ep| among t's cells."""
    exponents = [k for v in t.entries.values() for k in v.terms]
    return max(abs(q) for q, _ in exponents), max(abs(p) for _, p in exponents)


def test_the_reach_of_a_letter_bounds_every_power():
    # the data behind _check_reach's bound: |eq2| <= 5 and |ep| <= 2 per
    # letter, 2 of each per closed string
    assert engine._LETTER_REACH == (5, 2) and engine._HANDLE_REACH == (2, 2)
    assert reach(generator_power(1)) == reach(engine._BASIS[1]) == (5, 2)
    assert reach(engine._BASIS[2]) == (7, 4)  # its h_{e-2} starts a power later
    handle = [k for h in HANDLE_PLUS for k in h.terms]
    assert max(abs(q) for q, _ in handle) == max(abs(p) for _, p in handle) == 2
    for e in (*range(1, 13), 31, 64):
        for sign in (1, -1):
            q, p = reach(generator_power(sign * e))
            assert q <= 5 * e and p <= 2 * e, sign * e
    # on the way, a coefficient's term times a basis term reaches no further
    # than (2n + 3, 2n + 2), for e = n and for e = -n: within the 5n a field
    # holds when _check_reach admits n
    basis = [[k for v in t.entries.values() for k in v.terms] for t in engine._BASIS[1:]]
    for n in (*range(1, 13), 31, 64):
        for e in (n, -n):
            for h, terms in zip(engine._newton_coefficients(e), basis):
                for i in (0, 1):
                    x, y = [k[i] for k in h.terms], [k[i] for k in terms]
                    widest = max(max(x) + max(y), -min(x) - min(y)) if x else 0
                    assert widest <= (2 * n + 3, 2 * n + 2)[i] <= 5 * n, (e, i)


def test_a_word_past_the_exponent_field_is_refused_before_any_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tensor was formed")

    # a field of |exponent| <= 16: one letter on two strings reaches 5 + 2,
    # three reach 3 * 5 + 2 = 17
    monkeypatch.setattr(engine, "_LIMIT", 16)
    assert evaluate_raw(parse("1"))
    monkeypatch.setattr(engine, "accrete", refuse)
    monkeypatch.setattr(engine, "generator_power", refuse)
    # "1 -1 1" reduces to "1", but is refused as given, as "1 1 1" is
    for word in ("1 1 1", "1 -1 1"):
        with pytest.raises(engine.ExponentRangeError, match=r"3 letters and 1 closed strings"):
            evaluate_raw(parse(word))
    with pytest.raises(engine.ExponentRangeError, match=r"\|eq2\| = 17, \|ep\| = 8"):
        execute(plan(parse("1 -1 1")))  # planned as given, not reduced


def test_the_plan_refuses_a_word_past_the_exponent_field(monkeypatch):
    def refuse(*args):
        raise AssertionError("a tensor was formed")

    monkeypatch.setattr(engine, "_LIMIT", 16)
    monkeypatch.setattr(engine, "accrete", refuse)
    monkeypatch.setattr(engine, "generator_power", refuse)
    with pytest.raises(engine.ExponentRangeError, match=r"3 letters and 1 closed strings"):
        plan(parse("1 -1 1"))
