"""``lgpoly selftest``: every self-check of the state model and of the
evaluator, and the report that prints them.

The identity checks are written over ``engine.accrete``: the generator
inverse, the Yang-Baxter relation, the cubic relation, the power law of the
generator's powers, the handles' closed forms and traces, and the handle's
commuting with the generator.  The regression evaluates every corpus entry
that carries a braid word through ``cli.evaluate``, the pipeline of the
API, eval and batch, and compares it bit-exactly with the stored value.
The Alexander row runs the oracle every evaluation passes, alexander.check,
on the stored value of each of those entries.  The Markov-move property
suite also checks reduce_closure and the column evaluate_raw forms, and
keys its failures by check.  A refused evaluation fails a row, not the command.
``cmd_selftest`` prints one row per check and returns the exit code.
"""

from __future__ import annotations

import argparse
import random
import time

from . import alexander
from .braid import (
    BraidWord,
    Refusal,
    conjugate,
    free_insert,
    mirror,
    random_braid,
    reduce_closure,
    render,
    stabilize,
)
from .cli import evaluate
from .engine import (
    ALL_COLUMNS,
    SparseTangle,
    accrete,
    combine,
    evaluate_raw,
    execute,
    generator_power,
    identity_tangle,
    plan,
)
from .invariant import (
    from_compact, q_inverted, render_machine, to_compact, to_invariant, to_raw
)
from .knotdata import CorpusEntry, load_corpus, validate_entry
from .ring import ONE, ZERO, LaurentQP
from .statemodel import EIGENVALUES, HANDLE_MINUS, HANDLE_PLUS, M_DIM, Diagonal


def check_inverse(x: SparseTangle, y: SparseTangle) -> bool:
    """x * y = I for 2-string tangles."""
    return accrete(y, x, 1) == identity_tangle(2)


def check_yang_baxter(r: SparseTangle | None = None) -> bool:
    """Braid relation for the crossing tensor r (default: the generator),
    as two accretion chains on three strings: s1 s2 s1 = s2 s1 s2."""
    r = generator_power(1) if r is None else r
    sides = []
    for positions in ((1, 2, 1), (2, 1, 2)):
        z = identity_tangle(3)
        for j in positions:
            z = accrete(z, r, j)
        sides.append(z)
    return sides[0] == sides[1]


def check_cubic_relation(eigenvalues: tuple[LaurentQP, ...] = EIGENVALUES) -> bool:
    """(R - q p^-2)(R + 1)(R - q p^2) = 0, checked exactly as three
    accretions; generator_power rests on it."""
    r = generator_power(1)
    identity = identity_tangle(2)
    z = identity
    for lam in eigenvalues:
        z = accrete(z, combine([(ONE, r), (-lam, identity)]), 1)
    return not z.terms


# (a, b) pairs for R^a R^b = R^(a+b), each sum built from R, R^-1 and sums
# earlier in the list: together they pin every power from -5 to 5, and the
# last three multiply powers of opposite sign
_POWER_PAIRS = (
    (1, 1), (1, 2), (2, 2), (2, 3),
    (-1, -1), (-1, -2), (-2, -2), (-2, -3),
    (5, -3), (-5, 3), (4, -5),
)


def check_power_law() -> bool:
    """R^a R^b = R^(a+b) for small a, b, as accretions on two strings;
    the Newton form behind generator_power shares no code with the cubic
    relation's check."""
    return all(
        accrete(generator_power(a), generator_power(b), 1) == generator_power(a + b)
        for a, b in _POWER_PAIRS
    )


def check_handles() -> bool:
    """The left handles composed from caps and cups equal their closed
    forms, and both are traceless."""
    m = LaurentQP.monomial
    expect_plus = (m(1, 2, -2), m(-1, 2, -2), m(-1, -2, -2), m(1, -2, -2))
    expect_minus = (m(1, -2, 2), m(-1, -2, 2), m(-1, 2, 2), m(1, 2, 2))
    return (
        HANDLE_PLUS == expect_plus
        and HANDLE_MINUS == expect_minus
        and not sum(HANDLE_PLUS, ZERO)
        and not sum(HANDLE_MINUS, ZERO)
    )


def check_handle_commutes(handle: Diagonal = HANDLE_PLUS) -> bool:
    """(C+ x C+) R = R (C+ x C+), and the same for R^-1, as accretions on
    two strings: the enhancement condition under which conjugate braids
    have the same closure, so that plan may start the word at any rotation
    and reduce_closure may merge letters across the seam."""
    indices = range(M_DIM)
    pair = SparseTangle.from_cells(
        2, {((a, b), (a, b)): handle[a] * handle[b] for a in indices for b in indices}
    )
    return all(
        accrete(r, pair, 1) == accrete(pair, r, 1)
        for r in (generator_power(1), generator_power(-1))
    )


# the Markov suite's checks in the order they run; "evaluation" fails on a
# refusal in any of them
MARKOV_CHECKS = (
    "evaluation", "reduction", "columns", "conjugation", "stabilize+",
    "stabilize-", "free insertion", "braid relation", "mirror",
)


class MarkovReport:
    def __init__(self) -> None:
        self.braids = 0
        self.checks = 0
        # check name -> the words it failed on; cmd_selftest prints a row per name
        self.failures: dict[str, list[str]] = {name: [] for name in MARKOV_CHECKS}

    @property
    def ok(self) -> bool:
        return not any(self.failures.values())


def run_markov_suite(seed: int = 0, braids: int = 100) -> MarkovReport:
    """Random braids through every closure-preserving move: conjugation,
    both stabilizations, free insertion, braid-relation rewriting, plus
    the mirror relation, and through reduce_closure.  Every word is
    planned as given, since evaluate_raw would reduce a moved word back to
    the word itself: the suite tests that the state model's value is
    invariant, which is what makes the reduction exact.  Values are formed
    in all four columns, so each passes the 16-cell scalar check, and
    evaluate_raw, which forms engine.COLUMNS of the reduced word, must
    give the same value.  Every value also passes the structural checks
    inside to_invariant.  A braid whose evaluation raises a Refusal fails
    the "evaluation" check, with the error's class, and its other checks
    are skipped."""
    rng = random.Random(seed)
    report = MarkovReport()

    def check(name: str, word: str, cond: bool) -> None:
        report.checks += 1
        if not cond:
            report.failures[name].append(repr(word))

    def value(w: BraidWord) -> LaurentQP:
        return execute(plan(w, ALL_COLUMNS))

    for _ in range(braids):
        b = random_braid(rng)
        word = render(b) or f"(empty, {b.n_strings} strings)"
        report.braids += 1
        try:
            base = value(b)
            poly = to_invariant(base)
            check("reduction", word, value(reduce_closure(b)) == base)
            check("columns", word, evaluate_raw(b) == base)

            g = (rng.randint(1, b.n_strings - 1), rng.choice((1, -1)))
            check("conjugation", word, value(conjugate(b, g)) == base)
            check("stabilize+", word, value(stabilize(b, 1)) == base)
            check("stabilize-", word, value(stabilize(b, -1)) == base)
            ins = free_insert(
                b, rng.randint(0, len(b.letters)), rng.randint(1, b.n_strings - 1)
            )
            check("free insertion", word, value(ins) == base)

            n = max(b.n_strings, 3)
            j = rng.randint(1, n - 2)
            lhs = BraidWord(n, b.letters + ((j, 1), (j + 1, 1), (j, 1)))
            rhs = BraidWord(n, b.letters + ((j + 1, 1), (j, 1), (j + 1, 1)))
            check("braid relation", word, value(lhs) == value(rhs))

            mirrored = to_invariant(value(mirror(b)))
            check("mirror", word, mirrored == q_inverted(poly))
        except Refusal as exc:
            report.failures["evaluation"].append(f"{word!r}: {type(exc).__name__}: {exc}")
    return report


def regression(entries: list[CorpusEntry]) -> list[tuple[CorpusEntry, str, float]]:
    """Evaluate every entry that carries a braid word and compare it
    bit-exactly with its stored compact form: one (entry, mismatch detail or
    "", seconds) row per evaluated entry; value-only entries get no row.  A
    Refusal is the detail of its entry's row."""
    rows = []
    for entry in entries:
        if entry.braid is None:
            continue
        start = time.perf_counter()
        try:
            got = to_compact(evaluate(entry.braid))
            detail = "" if got == entry.compact else (
                f"got {render_machine(got)} expected {render_machine(entry.compact)}"
            )
        except Refusal as exc:
            detail = f"{type(exc).__name__}: {exc}"
        rows.append((entry, detail, time.perf_counter() - start))
    return rows


def alexander_mismatches(entries: list[CorpusEntry]) -> list[str]:
    """The names of the entries with a braid word whose stored value
    alexander.check refuses, the check every evaluation passes."""
    mismatched = []
    for entry in entries:
        if entry.braid is None:
            continue
        try:
            alexander.check(entry.braid, to_raw(from_compact(entry.compact)))
        except alexander.AlexanderMismatchError:
            mismatched.append(entry.name)
    return mismatched


IDENTITIES = (
    ("sigma * sigma^-1 = I", lambda: check_inverse(generator_power(1), generator_power(-1))),
    ("sigma^-1 * sigma = I", lambda: check_inverse(generator_power(-1), generator_power(1))),
    ("Yang-Baxter relation", check_yang_baxter),
    ("(R - qp^-2)(R + 1)(R - qp^2) = 0", check_cubic_relation),
    ("R^a R^b = R^(a+b)", check_power_law),
    ("handles: composition, trace(C+/-) = 0", check_handles),
    ("(C+ x C+) R = R (C+ x C+), also R^-1", check_handle_commutes),
)


def cmd_selftest(args: argparse.Namespace) -> int:
    """Print one row per check, then the result line; 1 if any row failed."""
    failures = 0

    def report(section: str, label: str, ok: bool, extra: str = "") -> None:
        nonlocal failures
        status = "pass" if ok else "FAIL"
        if not ok:
            failures += 1
        print(f"{section:<9} {label:<42} {status}{'  ' + extra if extra else ''}")

    for label, check in IDENTITIES:
        report("identity", label, check())

    entries = load_corpus()
    bad = [(e.name, p) for e in entries for p in validate_entry(e)]
    report(
        "corpus",
        f"{len(entries)} entries internally consistent",
        not bad,
        "; ".join(f"{n}: {p}" for n, p in bad[:3]),
    )
    braids = sum(e.braid is not None for e in entries)
    mismatched = alexander_mismatches(entries)
    report(
        "alexander",
        f"stored LG(q=1) = P^k Delta^2 on {braids} braids",
        not mismatched,
        ", ".join(mismatched),
    )
    rows = regression(entries)
    if args.table:
        for entry, detail, seconds in rows:
            word = render(entry.braid) or "(empty)"
            mark = "FAIL" if detail else "pass"
            print(f"    {entry.name:<14} braid={word:<22} {seconds:6.2f}s  {mark}")
    mismatches = [(entry.name, detail) for entry, detail, _ in rows if detail]
    report(
        "corpus",
        f"regression ({len(rows)} evaluated, {len(entries) - len(rows)} value-only)",
        not mismatches,
    )
    for name, detail in mismatches:
        print(f"    {name}: {detail}")

    if not args.quick:
        markov = run_markov_suite(seed=args.seed, braids=args.braids)
        counts = f": {markov.braids} braids, {markov.checks} checks, seed {args.seed}"
        for name, failed in markov.failures.items():
            report("markov", name + (counts if name == "evaluation" else ""), not failed)
            for detail in failed[:5]:
                print(f"    {name} failed on {detail}")

    print("result: " + ("all passed" if not failures else f"{failures} FAILED"))
    return 1 if failures else 0
