"""Core evaluation: ``evaluate_raw`` reduces a braid word to a shorter one
with the same closure (``braid.reduce_closure``), ``plan`` decides that
word's schedule with no arithmetic, and ``execute`` runs it over sparse
tangles and extracts the scalar.  ``evaluate_raw`` then checks the value
against the word as given with the Alexander oracle (``alexander.check``,
which shares no code with the state model): at q = 1 it must be
P^k Delta(P)^2, Delta from the Burau matrix of the word's normal form.

Every tensor here is a ``SparseTangle``: the crossing tensor, its inverse
and its powers are 2-string tangles, and the closed tangle is a 1-string
one.  ``accrete`` is the one product.  A plan step may restrict the
cells it forms on each of its strings to a set of (upper, lower) index
pairs, and no kernel (``_open_string``, ``accrete``, ``combine``) forms a
cell outside it.  Two restrictions are used:
  - DIAGONAL, upper == lower, at a string's last letter: the cells its
    close reads;
  - lower index in COLUMNS on the open string (the highest touched
    string), where it opens.  No step changes a lower index, so each
    column of the closed (1,1)-tangle, which is lambda times the
    identity, is summed on its own, and one column holds lambda.  The
    oracle, not a second column, checks it.

A tangle on n strings over the dimension-M basis has at most M^(2n)
entries.  The size guard is that dense bound on the word's string count:
the default cap admits 5 strings at M = 4 and refuses 6.  What costs is
the letters and the number of strings open at each, which the reduction
and the plan keep low.

A tangle holds its terms, not its cells: one dict from a packed integer
key to an integer coefficient, zero coefficients never stored.  The key
is the term's cell (one digit per string) shifted above two offset
fields, its doubled q-exponent and its p-exponent (see ``_pack``), so
multiplying a term by a monomial adds one integer to its key (Kronecker
substitution).  Only this module reads or builds the keys, so their
layout can change here alone: the crossing tensor's cells, the Newton
coefficients and the extracted scalar are ``LaurentQP`` values, and a
tangle's cells cross the boundary as {(upper, lower): value}, index tuples
one index per string, in through ``SparseTangle.from_cells`` and out
through ``entries``.  ``SparseTangle(n, terms)`` takes
packed terms and is this module's own.  A field holds an exponent of at
most ``_LIMIT`` in absolute value, and ``plan`` refuses a word whose
terms could outgrow it (``_check_reach``) before any arithmetic.
"""

from __future__ import annotations

import bisect
import sys
import time
from itertools import product

from . import alexander
from .braid import BraidWord, reduce_closure
from .ring import ONE, LaurentQP
from .statemodel import EIGENVALUES, GAUGED, HANDLE_PLUS, M_DIM

DEFAULT_SIZE_CAP = M_DIM ** 10  # 5 strings at M=4; one more string is refused
_PAIR = M_DIM * M_DIM  # values of one string's digit M a + b
_DIGIT = 4  # bits of one string's digit (M = 4)
# mask of the upper indices in two adjacent digits, each index being two bits (M = 4)
_UPPERS = (M_DIM - 1) * M_DIM * (_PAIR + 1)
Index = tuple[int, ...]  # one index per string, string 1 first

# The packed key of a term: bits 0..19 hold ep + _OFFSET, bits 20..39
# eq2 + _OFFSET, and the bits from _CELL up the cell, string 1's digit the
# most significant.
_FIELD = 20  # bits of one exponent field
_OFFSET = 1 << (_FIELD - 1)
_LIMIT = _OFFSET - 1  # the largest |eq2| or |ep| a field holds
_FIELD_MASK = (1 << _FIELD) - 1
_CELL = 2 * _FIELD  # the bit where the cell starts
_FIELDS = (1 << _CELL) - 1  # mask of both exponent fields
_ORIGIN = _OFFSET << _FIELD | _OFFSET  # both fields of the exponent 0


def debug_logger(name: str):
    """The named logger if it is enabled for DEBUG, else None.  ``logging``
    is not imported for it: until something imports it (``lgpoly -v``
    does) there is no logger, level or handler, so no record could be
    emitted.  A caller fetches it once per call and builds its debug
    values only when it gets one."""
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    logger = logging.getLogger(name)
    return logger if logger.isEnabledFor(logging.DEBUG) else None


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


class ExponentRangeError(RuntimeError):
    """Evaluation refused because a term's exponent could outgrow the
    packed key's field."""


def _pack(cell: int, eq2: int, ep: int) -> int:
    """The packed key of the term q^(eq2/2) p^ep in the given cell."""
    if abs(eq2) > _LIMIT or abs(ep) > _LIMIT:
        raise ExponentRangeError(
            f"exponents (eq2, ep) = ({eq2}, {ep}) do not fit a {_FIELD}-bit field"
        )
    return cell << _CELL | (eq2 + _OFFSET) << _FIELD | ep + _OFFSET


def _deltas(v: LaurentQP) -> list[tuple[int, int]]:
    """v's terms as (change to a packed key, coefficient): a term times
    one of them has its key plus the change.  Exact while the product's
    exponents fit their fields."""
    return [((eq2 << _FIELD) + ep, c) for (eq2, ep), c in v.terms.items()]


class SparseTangle:
    """Rank-2n tensor as terms = {packed key: integer coefficient} (see
    _pack), with no zero coefficient.  A key's cell has one base-M^2 digit
    M a_s + b_s per string s, of upper index a_s and lower index b_s,
    string 1 the most significant.  The constructor takes the terms as
    they are and is this module's own; other modules build a tangle with
    from_cells and read it through entries, by (upper, lower) index
    tuples, so SparseTangle.from_cells(t.n, t.entries) == t."""

    def __init__(self, n: int, terms: dict[int, int]) -> None:
        self.n = n
        self.terms = terms
        self._prepared: dict | None = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not SparseTangle:
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __repr__(self) -> str:
        return f"SparseTangle.from_cells({self.n!r}, {self.entries!r})"

    @classmethod
    def from_cells(cls, n: int, cells: dict[tuple[Index, Index], LaurentQP]) -> SparseTangle:
        """The n-string tangle {(upper, lower): value}, the inverse of entries."""
        terms = {}
        for (upper, lower), v in cells.items():
            cell = _key(n, upper, lower)
            terms.update((_pack(cell, eq2, ep), c) for (eq2, ep), c in v.terms.items())
        return cls(n, terms)

    @property
    def entries(self) -> dict[tuple[Index, Index], LaurentQP]:
        """{(upper, lower): value} over the nonzero cells, a new dict on
        each read: a reader reads it once.  No kernel does."""
        return {_indices(self.n, cell): _value(f) for cell, f in _by_cell(self).items()}


def _by_cell(t: SparseTangle) -> dict[int, dict[int, int]]:
    """t's terms gathered by cell, {cell: {exponent fields: coefficient}}."""
    cells: dict[int, dict[int, int]] = {}
    get = cells.get
    for key, c in t.terms.items():
        fields = get(key >> _CELL)
        if fields is None:
            fields = cells[key >> _CELL] = {}
        fields[key & _FIELDS] = c
    return cells


def _value(terms: dict[int, int]) -> LaurentQP:
    """The Laurent polynomial of one cell's terms, keyed by their packed
    keys or by the exponent fields alone: only the fields are read."""
    return LaurentQP(
        {
            ((f >> _FIELD & _FIELD_MASK) - _OFFSET, (f & _FIELD_MASK) - _OFFSET): c
            for f, c in terms.items()
        }
    )


def _cell_count(t: SparseTangle) -> int:
    return len({key >> _CELL for key in t.terms})


def _key(n: int, upper: Index, lower: Index) -> int:
    if len(upper) != n or len(lower) != n or not all(0 <= i < M_DIM for i in upper + lower):
        raise ValueError(f"indices {upper}, {lower} are not two {n}-tuples over 0..{M_DIM - 1}")
    key = 0
    for a, b in zip(upper, lower):
        key = key * _PAIR + a * M_DIM + b
    return key


def _indices(n: int, cell: int) -> tuple[Index, Index]:
    """The (upper, lower) indices of an n-string cell, the inverse of _key."""
    digits = [cell >> _DIGIT * (n - 1 - s) & _PAIR - 1 for s in range(n)]
    return tuple(d // M_DIM for d in digits), tuple(d % M_DIM for d in digits)


def _digits(cells: list[tuple[int, int]]) -> int:
    """The restriction of one string to the given (upper, lower) index
    pairs: bit M a + b is set for each pair (a, b)."""
    return sum(1 << a * M_DIM + b for a, b in set(cells))


ANY = (1 << _PAIR) - 1  # every pair: no restriction
DIAGONAL = _digits([(a, a) for a in range(M_DIM)])  # the cells a close reads
ALL_COLUMNS = tuple(range(M_DIM))
# the lower indices of the open string that evaluate_raw forms: one column
# holds the scalar
COLUMNS = (0,)


def lower_in(columns: tuple[int, ...]) -> int:
    """The restriction of one string to the given lower indices."""
    return _digits([(a, c) for a in range(M_DIM) for c in columns])


def _allows(keep: tuple[int, ...], cell: int) -> bool:
    """Whether the restriction keep, one per string, admits the cell whose
    least significant digit is keep[-1]'s string."""
    for digits in reversed(keep):
        if not digits >> (cell & _PAIR - 1) & 1:
            return False
        cell >>= _DIGIT
    return True


def _guard(n: int, max_size: int) -> None:
    if _surely_over(n, max_size) or M_DIM ** (2 * n) > max_size:
        raise SizeCapExceeded(n, max_size)


def identity_tangle(n: int, max_size: int = DEFAULT_SIZE_CAP) -> SparseTangle:
    """The identity on n strings; on none it is the scalar 1."""
    _guard(n, max_size)
    return SparseTangle.from_cells(n, {(t, t): ONE for t in product(range(M_DIM), repeat=n)})


def _prepare(x: SparseTangle, low: int, keep: tuple[int, int]):
    """x's terms ready to accrete into keys whose second accreted string's
    digit starts at bit low, under keep: the mask of the digits a term of
    z is matched by, and {match: [(change to z's key, coefficient)]}.
    Kept on x, so R and R^-1, the module's own tangles, are prepared once
    per place they are accreted at, over all the words of a process."""
    if x._prepared is None:
        x._prepared = {}
    found = x._prepared.get((low, keep))
    if found is not None:
        return found
    # z's lower indices on the restricted strings, in the two digits at
    # j, j+1: every value they can take
    lows, mask = [0], _UPPERS
    for weight, digits in zip((_PAIR, 1), keep):
        if digits != ANY:
            lows = [lo + b * weight for lo in lows for b in range(M_DIM)]
            mask |= (M_DIM - 1) * weight
    # x by lower pair, shifted to where z holds its upper pair, and by the
    # lower indices of z that keep admits under x's upper pair; the change
    # puts x's upper pair for z's and adds the term's exponents
    rows: dict[int, list[tuple[int, int]]] = {}
    for xkey, c in x.terms.items():
        cell = xkey >> _CELL
        lower, upper = cell & ~_UPPERS, cell & _UPPERS
        change = ((upper - lower * M_DIM) << low) + (xkey & _FIELDS) - _ORIGIN
        for lo in lows:
            if _allows(keep, upper | lo):
                rows.setdefault(lower * M_DIM | lo, []).append((change, c))
    found = x._prepared[low, keep] = mask, rows
    return found


def accrete(
    z: SparseTangle, x: SparseTangle, j: int, keep: tuple[int, int] = (ANY, ANY)
) -> SparseTangle:
    """Multiply the 2-string tangle x into strings j, j+1 of z: the upper
    indices at j, j+1 are contracted against x's lower pair and replaced
    by its upper pair.  On two strings, accrete(a, b, 1) is the matrix
    product b * a.

    keep restricts the cells formed on strings j and j+1.  x's rows are
    matched to z's lower indices on the restricted strings before any
    product is taken, so a cell keep excludes costs nothing.  Each pair
    of a term of z and a matching term of x costs one integer add."""
    n = z.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"position {j} outside 1..{n - 1}")
    if x.n != 2:
        raise ValueError(f"accreted tangle has {x.n} strings, not 2")
    low = _CELL + _DIGIT * (n - j - 1)  # where string j + 1's digit starts
    mask, rows = _prepare(x, low, keep)
    out: dict[int, int] = {}
    get, matching = out.get, rows.get
    for key, c in z.terms.items():
        row = matching(key >> low & mask)
        if row:
            for change, xc in row:
                nk = key + change
                out[nk] = v = get(nk, 0) + c * xc
                if not v:  # cancelled: nk was stored, as no term is 0
                    del out[nk]
    return SparseTangle(n, out)


def combine(
    parts: list[tuple[LaurentQP, SparseTangle]], keep: tuple[int, ...] | None = None
) -> SparseTangle:
    """Sum of coeff * tangle over parts, all on the same number of strings,
    formed only in the cells that keep, one restriction per string, admits."""
    out: dict[int, int] = {}
    get = out.get
    for coeff, t in parts:
        changes = _deltas(coeff)
        for key, c in t.terms.items():
            if keep and not _allows(keep, key >> _CELL):
                continue
            for change, cc in changes:
                nk = key + change
                out[nk] = v = get(nk, 0) + c * cc
                if not v:
                    del out[nk]
    return SparseTangle(parts[0][1].n, out)


_IDENTITY2 = identity_tangle(2)


def _newton_coefficients(e: int) -> tuple[LaurentQP, LaurentQP]:
    """The divided differences h1 and h2 of x^e, e != 0, at the nodes
    (-1, l1) and (-1, l1, l2), l1 = q p^-2, l2 = q p^2.  For e = n > 0 they
    are h_{n-1}(-1, l1) and h_{n-2}(-1, l1, l2) (h_0 = 1, h_-1 = 0),
        sum_{i < n} (-1)^(n-1-i) l1^i,  sum_{i+k <= n-2} (-1)^(n-i-k) l1^i l2^k.
    The nodes are units, so for e = -n they are Laurent polynomials,
    -(-l1)^-1 h_{n-1}(-1, l1^-1) and (-l1 l2)^-1 h_{n-1}(-1, l1^-1, l2^-1),
        sum_{i < n} (-1)^(n-1-i) l1^-(i+1),  sum_{i+k <= n-1} (-1)^(n-i-k) l1^-(i+1) l2^-(k+1),
    of n and n(n+1)/2 terms.  Each term is +-1 on a monomial of its own,
    l1^a l2^b = q^(a+b) p^(2b-2a): no ring product is taken."""
    sign = (1, -1)  # (-1)^k by the parity of k
    # s: twice the exponents' sign; d: the shift of i and k for e < 0
    n, s, d = (e, 2, 0) if e > 0 else (-e, -2, 1)
    h1 = {(s * (i + d), -s * (i + d)): sign[(n - 1 - i) & 1] for i in range(n)}
    h2 = {
        (s * (i + k + 2 * d), s * (k - i)): sign[(n - i - k) & 1]
        for i in range(n - 1 + d)
        for k in range(n - 1 + d - i)
    }
    return LaurentQP(h1), LaurentQP(h2)


def _combination(
    basis: tuple[SparseTangle, ...], e: int, keep: tuple[int, int] | None = None
) -> SparseTangle:
    """R^e = (-1)^e I + h1 N1 + h2 N2 over R's Newton basis (I, N1, N2)
    (see _newton_coefficients), formed only in the cells keep admits."""
    identity, n1, n2 = basis
    h1, h2 = _newton_coefficients(e)
    return combine([(-ONE if e % 2 else ONE, identity), (h1, n1), (h2, n2)], keep)


def _crossing(
    gauged: dict[tuple[int, int], LaurentQP],
) -> tuple[SparseTangle, SparseTangle, tuple[SparseTangle, ...]]:
    """The crossing tensor R from its gauged (row, col) cells, its inverse,
    and the Newton basis of every power R^e: (I, N1, N2) at the eigenvalues
    taken in the order (-1, q p^-2, q p^2), with N1 = R + I and
    N2 = (R + I)(R - q p^-2 I).  R^-1 is that basis's e = -1 combination,
    -I + q^-1 p^2 N1 - q^-2 N2, so it changes with R."""
    sigma = SparseTangle.from_cells(
        2, {(divmod(row, M_DIM), divmod(col, M_DIM)): v for (row, col), v in gauged.items()}
    )
    n1 = combine([(ONE, sigma), (ONE, _IDENTITY2)])
    n2 = accrete(n1, combine([(ONE, sigma), (-EIGENVALUES[0], _IDENTITY2)]), 1)
    basis = (_IDENTITY2, n1, n2)
    return sigma, _combination(basis, -1), basis


# formed once per process; generator_power(+-1) returns R and R^-1, so each
# is prepared once per place it is accreted at (see _prepare)
_SIGMA, _SIGMA_INVERSE, _BASIS = _crossing(GAUGED)


# Each letter R^e or R^-e adds at most 5 |e| to |eq2| and 2 |e| to |ep|
# of every term formed for it: R reaches (5, 2), so R^e reaches (5 |e|,
# 2 |e|), and R^-e's terms are R^e's negated (the strings swapped and q, p
# inverted take R to R^-1).  On the way, a coefficient's term times one of
# N1 (eq2 in -1..5, |ep| <= 2) or N2 (eq2 in -1..7, |ep| <= 4) reaches
# (2n + 3, 2n) for e = n, and (2n + 3, 2n + 2) for e = -n, whose h1 has eq2
# in -2n..-2 and h2 in -2n-2..-4: within a field holding 5n.  A close
# multiplies by a handle term, which reaches (2, 2).
_LETTER_REACH = (5, 2)
_HANDLE_REACH = (2, 2)


def _check_reach(letters: int, closes: int) -> None:
    """Refuse, before any arithmetic, a word of the given expanded letter
    count whose plan closes the given number of strings (all but one of
    its strings), if its terms could outgrow a packed field.  The exponents
    of a product are the sums of its factors', so every term formed has
    |eq2| <= 5 letters + 2 closes and |ep| <= 2 letters + 2 closes: with
    20-bit fields, words of up to about 100,000 letters."""
    q, p = (
        r * letters + h * closes for r, h in zip(_LETTER_REACH, _HANDLE_REACH)
    )
    if max(q, p) > _LIMIT:
        raise ExponentRangeError(
            f"{letters} letters and {closes} closed strings may form exponents up to "
            f"|eq2| = {q}, |ep| = {p}, over the packed field's limit {_LIMIT}"
        )


def generator_power(e: int, keep: tuple[int, int] = (ANY, ANY)) -> SparseTangle:
    """Crossing tensor raised to the e-th power (e != 0), in Newton form
    over the eigenvalues: x^e modulo the cubic relation is its
    interpolating polynomial at the three roots, all units, so for every
    e != 0 R^e = (-1)^e I + h1 N1 + h2 N2 over the one basis _BASIS (see
    _newton_coefficients), whose cost grows as e^2 with the coefficients'
    terms.  Only the cells that keep, one restriction per string, admits
    are formed.  An unrestricted R or R^-1 is the module's own tangle,
    which no caller may change."""
    if e == 0:
        raise ValueError("exponent must be nonzero")
    _check_reach(abs(e), 0)
    if abs(e) == 1 and keep == (ANY, ANY):
        return _SIGMA if e > 0 else _SIGMA_INVERSE
    return _combination(_BASIS, e, keep)


def _open_string(z: SparseTangle, i: int, keep: int = ANY) -> SparseTangle:
    """z with an identity string inserted after its first i strings, its
    cells restricted by keep."""
    low = _CELL + _DIGIT * (z.n - i)  # where the new string's digit starts
    rest = (1 << low) - 1
    # the new string's digit at a = b
    shifts = [a * (M_DIM + 1) << low for a in range(M_DIM) if keep >> (M_DIM + 1) * a & 1]
    out: dict[int, int] = {}
    for key, c in z.terms.items():
        base = (key >> low) << (low + _DIGIT) | key & rest
        for shift in shifts:
            out[base + shift] = c
    return SparseTangle(z.n + 1, out)


def _monomial(v: LaurentQP) -> tuple[int, int]:
    """The one term of a monomial v, as _deltas gives it."""
    (term,) = _deltas(v)
    return term


# by a string's digit M a + b: if a == b, the handle's term (its cells
# are monomials) as a change to a key and a coefficient, else None, as a
# close reads only the diagonal
_CLOSING = tuple(
    _monomial(HANDLE_PLUS[d // M_DIM]) if d // M_DIM == d % M_DIM else None
    for d in range(_PAIR)
)


def close(z: SparseTangle, j: int) -> SparseTangle:
    """Partial trace of string j of z (1-based) against the (diagonal)
    left handle C+: z on one string fewer."""
    if not 1 <= j <= z.n:
        raise ValueError(f"string {j} outside 1..{z.n}")
    low = _CELL + _DIGIT * (z.n - j)  # where string j's digit starts
    high, rest, digit, closing = low + _DIGIT, (1 << low) - 1, _PAIR - 1, _CLOSING
    out: dict[int, int] = {}
    get = out.get
    for key, c in z.terms.items():
        term = closing[key >> low & digit]
        if term:
            nk = ((key >> high) << low | key & rest) + term[0]
            out[nk] = v = get(nk, 0) + c * term[1]
            if not v:
                del out[nk]
    return SparseTangle(z.n - 1, out)


def extract_scalar(t: SparseTangle, columns: tuple[int, ...] = ALL_COLUMNS) -> LaurentQP:
    """Check that the 1-string tangle t, formed only in the given columns
    (lower indices), is those columns of a scalar multiple of the identity,
    and return the scalar, the first column's diagonal cell: each diagonal
    cell in the columns must equal it and every other cell must be 0.
    Anything else signals a convention bug or invalid input.  With one
    column and every term in that cell, as in a correct value, there is no
    other cell to compare, and the least and greatest keys show it; else
    the cells are grouped and compared packed (_check_scalar).  Only the
    scalar is converted."""
    first = _key(1, (columns[0],), (columns[0],))
    terms = t.terms
    if columns[1:] or terms and not min(terms) >> _CELL == max(terms) >> _CELL == first:
        _check_scalar(t, first, columns)
        terms = {key: c for key, c in terms.items() if key >> _CELL == first}
    return _value(terms)


def _check_scalar(t: SparseTangle, first: int, columns: tuple[int, ...]) -> None:
    """Raise NonScalarTangleError, naming up to four cells, unless each
    diagonal cell of t in the columns equals the cell first and no other
    cell holds a term."""
    cells = _by_cell(t)
    scalar = cells.get(first, {})
    diagonal = {_key(1, (c,), (c,)) for c in columns}
    bad = sorted(
        (cell, cells.get(cell, {}))
        for cell in diagonal | cells.keys()
        if cells.get(cell, {}) != (scalar if cell in diagonal else {})
    )
    if bad:
        detail = ", ".join(
            "t[{}][{}] = {}".format(*divmod(cell, M_DIM), _value(v)) for cell, v in bad[:4]
        )
        raise NonScalarTangleError(f"closed tangle is not scalar * identity: {detail}")


def _rotation_costs(top: int, letters: tuple[tuple[int, int], ...]) -> list[int]:
    """Cost of each rotation r of the word, letters[r:] + letters[:r]: the
    sum over letters of 16^(strings live at that letter), where a string
    is live from its first letter to its last, and the open string top
    from its first letter to the end.

    One rule gives every rotation (letter indices are the word's as
    written): with the cut before letter r, a touched string is dead
    strictly between its last letter before the cut and its first after
    it, cyclically, string top only from the cut up to its first letter,
    and live elsewhere.  shift applies each change of a gap, at rotation
    0 and as the cut moves past each letter.  Each gap is shifted at most
    twice over all rotations, plus once at rotation 0: O(n L)."""
    size = len(letters)
    touches: dict[int, list[int]] = {}
    for t, (pos, _) in enumerate(letters):
        touches.setdefault(pos, []).append(t)
        touches.setdefault(pos + 1, []).append(t)
    live = [len(touches)] * size
    cost = size * _PAIR ** len(touches)

    def shift(after: int, before: int, delta: int) -> None:
        # the letters strictly between letters after and before, cyclically
        nonlocal cost
        for k in range(after + 1, after + 1 + (before - after - 1) % size):
            t = k % size
            cost += _PAIR ** (live[t] + delta) - _PAIR ** live[t]
            live[t] += delta

    for s, ts in touches.items():
        shift(-1 if s == top else ts[-1], ts[0], -1)
    passed = dict.fromkeys(touches, 0)  # each string's letters before the cut
    costs = [cost]
    for r in range(size - 1):  # move the cut past letter r
        pos = letters[r][0]
        for s in (pos, pos + 1):
            ts = touches[s]
            if s != top:  # the gap since s's previous letter re-opens
                shift(ts[passed[s] - 1], r, 1)
            passed[s] += 1
            shift(r, ts[passed[s] % len(ts)], -1)  # the gap up to its next closes
        if top in touches and top not in (pos, pos + 1):
            shift(r - 1, r + 1, 1)  # string top turns live at r
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
    indices of the open string) it forms, and the steps (op, braid string
    s, live index i, exponent e, keep) that evaluate it:
        ("open", s, i, 0, keep)     open string s at live index i;
        ("accrete", s, i, e, keep)  accrete R^e on live strings i, i + 1
                                    (s, s + 1);
        ("take", s, 0, e, keep)     the first letter, when no step comes
                                    before it: it opens both its strings
                                    itself, on the scalar ONE, so R^e is
                                    the tangle;
        ("close", s, i, 0, ())      close live string i against the left
                                    handle.
    keep restricts the cells a step forms, one restriction per string it
    opens or accretes on: DIAGONAL on a string the next steps close,
    lower_in(columns) where the open string opens (its open step, or the
    take that opens it), ANY elsewhere.
    The open string (the highest touched string; string n if no letter
    touches one) is the one left open.  A string opens at its first letter
    and, unless it is the open string, closes after its last; a free
    string (any other untouched string) opens and closes before the first
    letter, so the tangle is 0 from there on and no power is formed, and
    an untouched open string opens after the last.  Exact: the handle on a
    string commutes with every operator not acting on it, conjugate braids
    have the same closure, and no step changes a lower index.  The word is
    planned as given; evaluate_raw plans its reduced word.  The plan alone
    refuses a schedule: one whose terms could outgrow a packed field."""
    n = word.n_strings
    _check_reach(word.expanded_length(), n - 1)
    touched = _touched(word)
    top = max(touched, default=n)
    costs = _rotation_costs(top, word.letters)
    r = costs.index(min(costs))  # the earliest of the cheapest
    # each event is the strings it touches and its exponent, 0 for no letter
    events = [((s,), 0) for s in range(1, n + 1) if s not in touched and s != top]
    events += [((pos, pos + 1), exp) for pos, exp in word.letters[r:] + word.letters[:r]]
    events.append(((top,), 0))  # a no-op if the open string is live already
    last = {s: t for t, (span, _) in enumerate(events) for s in span}
    opening = lower_in(columns)
    live: list[int] = []
    steps: list[Step] = []
    for t, (span, exp) in enumerate(events):
        take = exp != 0 and not steps
        for s in span:
            if s not in live:
                bisect.insort(live, s)
                if not take:
                    steps.append(("open", s, live.index(s), 0, (opening if s == top else ANY,)))
        if exp:
            keep = tuple(
                DIAGONAL if s != top and last[s] == t
                else opening if s == top and take
                else ANY
                for s in span
            )
            steps.append(("take" if take else "accrete", span[0], live.index(span[0]), exp, keep))
        for s in reversed(span):
            if s != top and last[s] == t:
                steps.append(("close", s, live.index(s), 0, ()))
                live.remove(s)
    return r, costs[r], tuple(columns), steps


def execute(schedule: tuple[int, int, tuple[int, ...], list[Step]]) -> LaurentQP:
    """Run the steps of a plan, which has refused what cannot run, one
    kernel call each, and extract the scalar from the columns it formed.
    Each kernel forms only the cells its step's keep admits.  R and R^-1
    are the module's own tangles, prepared once per place they are accreted
    at; a power R^e, |e| > 1, is formed for its letter, and none once the
    tangle is empty.  -v logs one plan line, then one key=value line per
    step: the live strings, cells and terms after it."""
    rotation, cost, columns, steps = schedule
    logger = debug_logger(__name__)
    if logger:
        logger.debug(
            "plan rotation=%d cost=%d columns=%s steps=%d",
            rotation, cost, ",".join(map(str, columns)), len(steps),
        )
    z = identity_tangle(0)
    for k, (op, s, i, e, keep) in enumerate(steps, 1):
        if op == "open":
            z = _open_string(z, i, *keep)
        elif op == "close":
            z = close(z, i + 1)
        elif op == "take":
            z = generator_power(e, keep)
        elif z.terms:  # else a closing emptied it, and no later step refills it
            z = accrete(z, generator_power(e), i + 1, keep)
        if logger:
            logger.debug(
                "step=%d/%d op=%s string=%d exp=%+d live=%d cells=%d terms=%d",
                k, len(steps), op, s, e, z.n, _cell_count(z), len(z.terms),
            )
    return extract_scalar(z, columns)


def evaluate_raw(word: BraidWord, max_size: int = DEFAULT_SIZE_CAP) -> LaurentQP:
    """The raw value of the word's closure, a Laurent polynomial in
    q^(1/2), p: the refusals of the word as given, then the plan of its
    reduced word executed, forming the columns of the open string (the
    highest touched string), then the Alexander oracle on the word as
    given (alexander.check), so that it covers the reduction too.  The
    refusals are the size guard and _check_reach on the word as given,
    n - 1 closes: reduction adds no letter or string, so whether a word
    is refused does not depend on how far it reduces.
    Neither bounds the oracle's time: it reads its own free and cyclic
    normal form of the word, linear to form, but one that shrinks only by
    commuting letters still grows its Burau coefficients with its letters
    (see README, "Storage wall").  A split link's plan closes a free string
    first, so its value is 0 and no power is formed."""
    _guard(word.n_strings, max_size)
    _check_reach(word.expanded_length(), word.n_strings - 1)
    reduced = reduce_closure(word)
    logger = debug_logger(__name__)
    if logger:
        logger.debug(
            "reduced word '%s': %d letters, %d strings",
            reduced, reduced.expanded_length(), reduced.n_strings,
        )
    value = execute(plan(reduced))
    start = time.perf_counter() if logger else 0.0
    delta = alexander.check(word, value)
    if logger:
        logger.debug(
            "alexander oracle: Delta has %d terms, %.4fs", len(delta), time.perf_counter() - start
        )
    return value

