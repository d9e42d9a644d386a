"""Core evaluation: ``evaluate_raw`` reduces a braid word to a shorter one
with the same closure (``braid.reduce_closure``), ``plan`` decides that
word's schedule with no arithmetic, and ``execute`` runs it over sparse
tangles and extracts the scalar.

Every tensor here is a ``SparseTangle``: the crossing tensor, its inverse
and its powers are 2-string tangles, and the closed tangle is a 1-string
one.  ``accrete`` is the one product.  A plan step may restrict the
cells it forms on each of its strings to a set of (upper, lower) index
pairs, and the kernels (``_open_string``, ``generator_power``,
``accrete``) form no cell outside it.  Two restrictions are used:
  - DIAGONAL, upper == lower, at a string's last letter: the cells its
    close reads;
  - lower index in COLUMNS on string n, where it opens.  No step changes
    a lower index, so each column of the closed (1,1)-tangle, which is
    lambda times the identity, is summed on its own; two columns are
    formed so that extract_scalar can compare two diagonal cells.

A tangle on n strings over the dimension-M basis has at most M^(2n)
entries.  The size guard is that dense bound on the word's string count:
the default cap admits 5 strings at M = 4 and refuses 6.  What costs is
the letters and the number of strings open at each, which the reduction
and the plan keep low.
Tangles are kept as maps from a composite index, which only this module
reads or builds, to Laurent polynomials, with zero entries never stored.
"""

from __future__ import annotations

import bisect
import logging
from itertools import product

from .braid import BraidWord, reduce_closure
from .ring import ONE, ZERO, LaurentQP
from .statemodel import EIGENVALUES, GAUGED, HANDLE_PLUS, M_DIM

logger = logging.getLogger(__name__)

DEFAULT_SIZE_CAP = M_DIM ** 10  # 5 strings at M=4; one more string is refused
_PAIR = M_DIM * M_DIM  # values of one string's digit M a + b
# mask of the upper indices in two adjacent digits, each index being two bits (M = 4)
_UPPERS = (M_DIM - 1) * M_DIM * (_PAIR + 1)
Index = tuple[int, ...]  # one index per string, string 1 first


class SizeCapExceeded(RuntimeError):
    """Evaluation refused because M^(2n) exceeds the configured cap."""

    def __init__(self, n: int, cap: int):
        # M^(2n) is neither formed nor printed when it is sure to exceed the cap
        self.full_size = None if _surely_over(n, cap) else M_DIM ** (2 * n)
        size = "" if self.full_size is None else f" = {self.full_size}"
        super().__init__(
            f"tangle on {n} strings needs M^(2n) = {M_DIM}^{2 * n}{size} entries, "
            f"over the size cap {cap}"
        )


def _surely_over(n: int, cap: int) -> bool:
    # M >= 2, so M^(2n) >= 2^(2n) > cap once 2n >= cap.bit_length()
    return 2 * n >= cap.bit_length()


class NonScalarTangleError(RuntimeError):
    """The closed (1,1)-tangle is not a scalar multiple of the identity."""


class SparseTangle:
    """Rank-2n tensor as {composite index: value}: string s is the base-M^2
    digit M a_s + b_s of upper index a_s and lower index b_s, string 1 the
    most significant.  Other modules go through entry and from_cells."""

    def __init__(self, n: int, entries: dict[int, LaurentQP]) -> None:
        self.n = n
        self.entries = entries

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SparseTangle:
            return NotImplemented
        return (self.n, self.entries) == (other.n, other.entries)

    def __repr__(self) -> str:
        return f"SparseTangle(n={self.n!r}, entries={self.entries!r})"

    @classmethod
    def from_cells(cls, n: int, cells: dict[tuple[Index, Index], LaurentQP]) -> SparseTangle:
        """The n-string tangle {(upper, lower): value}, the inverse of entry."""
        return cls(n, {_key(n, upper, lower): v for (upper, lower), v in cells.items() if v})

    def entry(self, upper: Index, lower: Index) -> LaurentQP:
        return self.entries.get(_key(self.n, upper, lower), ZERO)


def _key(n: int, upper: Index, lower: Index) -> int:
    if len(upper) != n or len(lower) != n or not all(0 <= i < M_DIM for i in upper + lower):
        raise ValueError(f"indices {upper}, {lower} are not two {n}-tuples over 0..{M_DIM - 1}")
    key = 0
    for a, b in zip(upper, lower):
        key = key * _PAIR + a * M_DIM + b
    return key


def _digits(cells: list[tuple[int, int]]) -> int:
    """The restriction of one string to the given (upper, lower) index
    pairs: bit M a + b is set for each pair (a, b)."""
    return sum(1 << a * M_DIM + b for a, b in set(cells))


ANY = (1 << _PAIR) - 1  # every pair: no restriction
DIAGONAL = _digits([(a, a) for a in range(M_DIM)])  # the cells a close reads
ALL_COLUMNS = tuple(range(M_DIM))
# the lower indices of string n that evaluate_raw forms: two, so that the
# closed tangle still has two diagonal cells to compare
COLUMNS = (0, M_DIM - 1)


def lower_in(columns: tuple[int, ...]) -> int:
    """The restriction of one string to the given lower indices."""
    return _digits([(a, c) for a in range(M_DIM) for c in columns])


def _allows(keep: tuple[int, ...], key: int) -> bool:
    """Whether the restriction keep, one per string, admits the key whose
    least significant digit is keep[-1]'s string."""
    for digits in reversed(keep):
        key, digit = divmod(key, _PAIR)
        if not digits >> digit & 1:
            return False
    return True


def _restrict(t: SparseTangle, keep: tuple[int, ...]) -> SparseTangle:
    """The cells of t that keep, one restriction per string, admits."""
    return SparseTangle(t.n, {k: v for k, v in t.entries.items() if _allows(keep, k)})


def _guard(n: int, max_size: int) -> None:
    if _surely_over(n, max_size) or M_DIM ** (2 * n) > max_size:
        raise SizeCapExceeded(n, max_size)


def identity_tangle(n: int, max_size: int = DEFAULT_SIZE_CAP) -> SparseTangle:
    """The identity on n strings; on none it is the scalar 1."""
    _guard(n, max_size)
    return SparseTangle.from_cells(n, {(t, t): ONE for t in product(range(M_DIM), repeat=n)})


def accrete(
    z: SparseTangle, x: SparseTangle, j: int, keep: tuple[int, int] = (ANY, ANY)
) -> SparseTangle:
    """Multiply the 2-string tangle x into strings j, j+1 of z: the upper
    indices at j, j+1 are contracted against x's lower pair and replaced
    by its upper pair.  On two strings, accrete(a, b, 1) is the matrix
    product b * a.

    keep restricts the cells formed on strings j and j+1.  x's rows are
    matched to z's lower indices on the restricted strings before any
    product is taken, so a cell keep excludes costs nothing."""
    n = z.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"position {j} outside 1..{n - 1}")
    if x.n != 2:
        raise ValueError(f"accreted tangle has {x.n} strings, not 2")
    unit = _PAIR ** (n - j - 1)  # weight of string j + 1's digit
    # z's lower indices on the restricted strings, in the two digits at
    # j, j+1: every value they can take
    lows, mask = [0], _UPPERS
    for weight, digits in zip((_PAIR, 1), keep):
        if digits != ANY:
            lows = [low + b * weight for low in lows for b in range(M_DIM)]
            mask |= (M_DIM - 1) * weight
    # x by lower pair, shifted to where z holds its upper pair, and by the
    # lower indices of z that keep admits under x's upper pair; the value
    # is the change to z's key: its upper pair for x's
    xmap: dict[int, list[tuple[int, LaurentQP]]] = {}
    for xkey, xv in x.entries.items():
        lower, upper = xkey & ~_UPPERS, xkey & _UPPERS
        for low in lows:
            if _allows(keep, upper | low):
                xmap.setdefault(lower * M_DIM | low, []).append(
                    ((upper - lower * M_DIM) * unit, xv)
                )
    out: dict[int, LaurentQP] = {}
    for key, v in z.entries.items():
        for shift, xv in xmap.get(key // unit & mask, ()):
            nk = key + shift
            term = v * xv
            cur = out.get(nk)
            out[nk] = term if cur is None else cur + term
    return SparseTangle(n, {k: v for k, v in out.items() if v})


def combine(parts: list[tuple[LaurentQP, SparseTangle]]) -> SparseTangle:
    """Sum of coeff * tangle over parts, all on the same number of strings."""
    out: dict[int, LaurentQP] = {}
    for coeff, t in parts:
        for k, v in t.entries.items():
            out[k] = out.get(k, ZERO) + coeff * v
    return SparseTangle(parts[0][1].n, {k: v for k, v in out.items() if v})


def _swap_invert(t: SparseTangle) -> SparseTangle:
    """The two strings swapped, q and p inverted.  Both steps respect
    products (a conjugation and a ring map), and the map takes R to R^-1,
    so it takes R^e to R^-e.  Inverting q forces p -> 1/p because p is a
    half-integer power of q times the representation parameter."""
    out: dict[int, LaurentQP] = {}
    for key, v in t.entries.items():
        first, second = divmod(key, _PAIR)
        out[second * _PAIR + first] = v.invert_qp()
    return SparseTangle(2, out)


_IDENTITY2 = identity_tangle(2)


def _crossing(
    gauged: dict[tuple[int, int], LaurentQP],
) -> tuple[SparseTangle, SparseTangle, SparseTangle]:
    """The crossing tensor R from its gauged (row, col) cells, and the
    Newton basis of the cubic relation at the eigenvalues taken in the
    order (-1, q p^-2, q p^2): N1 = R + I and N2 = (R + I)(R - q p^-2 I)."""
    sigma = SparseTangle.from_cells(
        2, {(divmod(row, M_DIM), divmod(col, M_DIM)): v for (row, col), v in gauged.items()}
    )
    n1 = combine([(ONE, sigma), (ONE, _IDENTITY2)])
    return sigma, n1, accrete(n1, combine([(ONE, sigma), (-EIGENVALUES[0], _IDENTITY2)]), 1)


_SIGMA, _NEWTON_1, _NEWTON_2 = _crossing(GAUGED)


def lg_sigma() -> SparseTangle:
    """Tensor of the positive braid generator (gauged, so Y-free)."""
    return SparseTangle(2, dict(_SIGMA.entries))


def lg_sigma_inverse() -> SparseTangle:
    """Tensor of the inverse generator."""
    return _swap_invert(_SIGMA)


def _newton_coefficients(e: int) -> tuple[LaurentQP, LaurentQP]:
    """The divided differences of x^e at the nodes (-1, q p^-2) and
    (-1, q p^-2, q p^2), which are the complete homogeneous polynomials
        h_{e-1}(-1, qp^-2)        = sum_{i < e} (-1)^(e-1-i) q^i p^(-2i),
        h_{e-2}(-1, qp^-2, qp^2)  = sum_{i+k <= e-2} (-1)^(e-2-i-k) q^(i+k) p^(2k-2i).
    Each term is +-1 on a monomial of its own, so both are written down
    without a ring product."""
    h1 = {(2 * i, -2 * i): (-1) ** (e - 1 - i) for i in range(e)}
    h2 = {
        (2 * (i + k), 2 * (k - i)): (-1) ** (e - i - k)
        for i in range(e - 1)
        for k in range(e - 1 - i)
    }
    return LaurentQP(h1), LaurentQP(h2)


def _positive_power(e: int, keep: tuple[int, int]) -> SparseTangle:
    """R^e for e >= 1 in Newton form over the eigenvalues: x^e modulo the
    cubic relation is its interpolating polynomial at the three roots, so
    R^e = (-1)^e I + h_{e-1} N1 + h_{e-2} N2.  The coefficients have O(e^2)
    terms and R^e is one linear combination, so the cost grows as e^2.
    Only the cells of the basis that keep admits are combined."""
    if e == 1:  # most letters; the combination costs about 200 times this copy
        return _restrict(_SIGMA, keep)
    h1, h2 = _newton_coefficients(e)
    sign = ONE if e % 2 == 0 else -ONE
    basis = ((sign, _IDENTITY2), (h1, _NEWTON_1), (h2, _NEWTON_2))
    return combine([(c, _restrict(t, keep)) for c, t in basis])


def generator_power(e: int, keep: tuple[int, int] = (ANY, ANY)) -> SparseTangle:
    """Crossing tensor raised to the e-th power (e != 0); R^-e is R^e
    swapped and inverted.  It forms only the cells that keep, one
    restriction per string, admits; for e < 0 that is R^-e kept on the
    swapped strings."""
    if e == 0:
        raise ValueError("exponent must be nonzero")
    if e > 0:
        return _positive_power(e, keep)
    return _swap_invert(_positive_power(-e, keep[::-1]))


def _open_string(z: SparseTangle, i: int, keep: int = ANY) -> SparseTangle:
    """z with an identity string inserted after its first i strings, its
    cells restricted by keep."""
    tail = _PAIR ** (z.n - i)  # values of the digits right of the new string
    step = (M_DIM + 1) * tail  # the new string's digit at a = b = 1
    shifts = [a * step for a in range(M_DIM) if keep >> (M_DIM + 1) * a & 1]
    out: dict[int, LaurentQP] = {}
    for key, v in z.entries.items():
        head, rest = divmod(key, tail)
        base = head * tail * _PAIR + rest
        for shift in shifts:
            out[base + shift] = v
    return SparseTangle(z.n + 1, out)


def close(z: SparseTangle, strings: tuple[int, ...] | None = None) -> SparseTangle:
    """Partial trace of the given strings of z (1-based; by default every
    string but the rightmost, which leaves a 1-string tangle) against the
    (diagonal) left handle C+, one string at a time from the right."""
    for j in sorted(range(1, z.n) if strings is None else strings, reverse=True):
        tail = _PAIR ** (z.n - j)  # values of the digits right of string j
        out: dict[int, LaurentQP] = {}
        for key, v in z.entries.items():
            head, rest = divmod(key, tail)
            head, digit = divmod(head, _PAIR)
            a, b = divmod(digit, M_DIM)
            if a != b:
                continue
            nk = head * tail + rest
            term = v * HANDLE_PLUS[a]
            cur = out.get(nk)
            out[nk] = term if cur is None else cur + term
        z = SparseTangle(z.n - 1, {k: v for k, v in out.items() if v})
    return z


def extract_scalar(t: SparseTangle, columns: tuple[int, ...] = ALL_COLUMNS) -> LaurentQP:
    """Check that the 1-string tangle t, formed only in the given columns
    (lower indices), is those columns of a scalar multiple of the identity,
    and return the scalar: every cell of t is read, each diagonal cell in
    the columns must equal the others and every other cell must be 0.
    Anything else signals a convention bug or invalid input."""
    diag = t.entry((columns[0],), (columns[0],))
    bad = []
    for a in range(M_DIM):
        for b in range(M_DIM):
            v = t.entry((a,), (b,))
            if v != (diag if a == b and b in columns else ZERO):
                bad.append((a, b, v))
    if bad:
        detail = ", ".join(f"t[{a}][{b}] = {v}" for a, b, v in bad[:4])
        raise NonScalarTangleError(
            f"closed tangle is not scalar * identity: {detail}"
        )
    return diag


def _rotation_costs(n: int, letters: tuple[tuple[int, int], ...]) -> list[int]:
    """Cost of each rotation r of the word, letters[r:] + letters[:r]: the
    sum over letters of 16^(strings live at that letter), where a string
    is live from its first letter to its last, and string n from its
    first letter to the end.

    Letter indices stay those of the word as written.  Moving the cut past
    letter r (from the front of the word to its back) changes the live
    span of r's two strings only, and of string n, which then also covers
    r.  For each of r's strings the stretch up to its next letter turns
    dead and, unless it is string n (live to the end already), the stretch
    since its previous letter turns live.  Over all rotations each such
    stretch is crossed at most twice, so the whole is O(n L)."""
    size = len(letters)
    touches: dict[int, list[int]] = {}
    for t, (pos, _) in enumerate(letters):
        touches.setdefault(pos, []).append(t)
        touches.setdefault(pos + 1, []).append(t)
    live = [0] * (size + 1)
    for s, ts in touches.items():  # rotation 0, as a difference array
        live[ts[0]] += 1
        live[size if s == n else ts[-1] + 1] -= 1
    for t in range(1, size):
        live[t] += live[t - 1]
    del live[size]
    cost = sum(_PAIR ** c for c in live)

    def shift(start: int, length: int, delta: int) -> None:
        nonlocal cost
        for k in range(start, start + length):
            t = k % size
            cost += _PAIR ** (live[t] + delta) - _PAIR ** live[t]
            live[t] += delta

    # each letter's neighbours among the letters touching the same string
    prev: dict[tuple[int, int], int] = {}
    nxt: dict[tuple[int, int], int] = {}
    for s, ts in touches.items():
        for k, t in enumerate(ts):
            prev[t, s] = ts[k - 1]
            nxt[t, s] = ts[(k + 1) % len(ts)]

    costs = [cost]
    for r in range(size - 1):
        pos = letters[r][0]
        for s in (pos, pos + 1):
            if s < n:  # the stretch since s's previous letter turns live
                shift(prev[r, s] + 1, (r - prev[r, s] - 1) % size, 1)
            shift(r + 1, (nxt[r, s] - r - 1) % size, -1)  # and up to its next, dead
        if n in touches and pos + 1 != n:
            shift(r, 1, 1)  # r is now the last letter, and string n is open
        costs.append(cost)
    return costs


def _touched(word: BraidWord) -> set[int]:
    return {s for pos, _ in word.letters for s in (pos, pos + 1)}


Step = tuple[str, int, int, int, tuple[int, ...]]


def plan(
    word: BraidWord, columns: tuple[int, ...] = COLUMNS
) -> tuple[int, int, tuple[int, ...], list[Step]]:
    """The schedule of a word, with no arithmetic: its earliest cheapest
    rotation r, r's modelled cost (see _rotation_costs), the columns (lower
    indices of string n) it forms, and the steps (op, braid string s, live
    index i, exponent e, keep) that evaluate it:
        ("open", s, i, 0, keep)     open string s at live index i;
        ("accrete", s, i, e, keep)  accrete R^e on live strings i, i + 1
                                    (s, s + 1);
        ("take", s, 0, e, keep)     the first letter: it opens both its
                                    strings on the scalar ONE, so R^e is
                                    the tangle;
        ("close", s, i, 0, ())      close live string i against the left
                                    handle.
    keep restricts the cells a step forms, one restriction per string it
    opens or accretes on: DIAGONAL on a string the next steps close,
    lower_in(columns) where string n opens (its open step, or the take
    that opens it), ANY elsewhere.
    A string opens at its first letter and, unless it is string n, closes
    after its last; a free string (s < n, untouched) opens and closes
    before the first letter, an untouched string n opens after the last.
    Exact: the handle on a string commutes with every operator not acting
    on it, conjugate braids have the same closure, and no step changes a
    lower index.  The word is planned as given; evaluate_raw plans its
    reduced word."""
    n = word.n_strings
    costs = _rotation_costs(n, word.letters)
    r = costs.index(min(costs))  # the earliest of the cheapest
    touched = _touched(word)
    # each event is the strings it touches and its exponent, 0 for no letter
    events = [((s,), 0) for s in range(1, n) if s not in touched]
    events += [((pos, pos + 1), exp) for pos, exp in word.letters[r:] + word.letters[:r]]
    events.append(((n,), 0))  # a no-op if string n is live already
    last = {s: t for t, (span, _) in enumerate(events) for s in span}
    opening = lower_in(columns)
    live: list[int] = []
    steps: list[Step] = []
    for t, (span, exp) in enumerate(events):
        op = "accrete" if steps else "take"
        for s in span:
            if s not in live:
                bisect.insort(live, s)
                steps.append(("open", s, live.index(s), 0, (opening if s == n else ANY,)))
        if exp:
            keep = tuple(
                DIAGONAL if s < n and last[s] == t
                else opening if s == n and op == "take"
                else ANY
                for s in span
            )
            steps.append((op, span[0], live.index(span[0]), exp, keep))
        for s in reversed(span):
            if s < n and last[s] == t:
                steps.append(("close", s, live.index(s), 0, ()))
                live.remove(s)
    return r, costs[r], tuple(columns), steps


def execute(schedule: tuple[int, int, tuple[int, ...], list[Step]]) -> LaurentQP:
    """Run the steps of a plan over SparseTangle, one debug line each, and
    extract the scalar from the columns the plan formed.  Each kernel forms
    only the cells its step's keep admits.  A tangle that falls empty stays
    empty, so no power is formed after that."""
    rotation, cost, columns, steps = schedule
    letters = sum(op in ("take", "accrete") for op, *_ in steps)
    logger.debug("rotation %d of %d", rotation, letters)
    logger.debug("modelled cost %d", cost)
    logger.debug("columns %s of the open string", ", ".join(map(str, columns)))
    z = identity_tangle(0)
    done = 0
    for op, s, i, e, keep in steps:
        if op == "open":
            z = _open_string(z, i, *keep)
            logger.debug("opened string %d: %d live strings, %d entries", s, z.n, len(z.entries))
        elif op == "close":
            z = close(z, (i + 1,))
            logger.debug(
                "closed one string (%d): %d live strings, %d entries", s, z.n, len(z.entries)
            )
        else:
            if op == "take":
                z = generator_power(e, keep)
            elif z.entries:  # else a closing emptied it, and no later step refills it
                z = accrete(z, generator_power(e), i + 1, keep)
            done += 1
            logger.debug(
                "accreted letter %d/%d (pos %d, exp %+d): %d entries",
                done, letters, s, e, len(z.entries),
            )
    return extract_scalar(z, columns)


def evaluate_raw(word: BraidWord, max_size: int = DEFAULT_SIZE_CAP) -> LaurentQP:
    """The raw value of the word's closure, a Laurent polynomial in
    q^(1/2), p: the size guard on the word as given, then the plan of its
    reduced word executed.  A reduced word on two or more strings that
    leaves one untouched closes to a split link, whose value is 0, and no
    power is formed for it."""
    _guard(word.n_strings, max_size)
    word = reduce_closure(word)
    n = word.n_strings
    logger.debug("reduced word '%s': %d letters, %d strings", word, word.expanded_length(), n)
    if n > 1 and len(_touched(word)) < n:
        return ZERO
    return execute(plan(word))
