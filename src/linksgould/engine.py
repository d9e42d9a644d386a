"""Core evaluation: accrete crossing tensors into a sparse rank-2n tangle,
close all strings but the rightmost against the left handle, and extract
the scalar.

Every tensor here is a ``SparseTangle``: the crossing tensor, its inverse
and its powers are 2-string tangles, and the closed tangle is a 1-string
one.  ``accrete`` is the one product.

A tangle on n strings over the dimension-M basis has at most M^(2n)
entries, which is the storage wall; the default cap admits 5 strings at
M = 4 and refuses 6.  Tangles are kept as maps from a composite index
(upper indices as the high base-M digits, lower as the low digits) to
Laurent polynomials, with zero entries never stored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .braid import BraidWord
from .ring import ONE, ZERO, LaurentQP
from .statemodel import EIGENVALUES, GAUGED, HANDLE_PLUS, M_DIM

logger = logging.getLogger(__name__)

DEFAULT_SIZE_CAP = M_DIM ** 10  # 5 strings at M=4; one more string is refused
_PAIR = M_DIM * M_DIM  # values of an index pair


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


@dataclass
class SparseTangle:
    """Rank-2n tensor as {composite index: value}; index digits are
    a_1..a_n (upper, most significant first) then b_1..b_n (lower).

    On two strings the key is row * 16 + col of the 16 x 16 matrix with
    row = 4 a_1 + a_2 and col = 4 b_1 + b_2."""

    n: int
    entries: dict[int, LaurentQP]

    def entry(self, upper: tuple[int, ...], lower: tuple[int, ...]) -> LaurentQP:
        key = 0
        for digit in upper + lower:
            key = key * M_DIM + digit
        return self.entries.get(key, ZERO)


def identity_tangle(n: int, max_size: int = DEFAULT_SIZE_CAP) -> SparseTangle:
    if n < 1:
        raise ValueError("need at least one string")
    if _surely_over(n, max_size) or M_DIM ** (2 * n) > max_size:
        raise SizeCapExceeded(n, max_size)
    side = M_DIM ** n
    return SparseTangle(n, {t * side + t: ONE for t in range(side)})


def accrete(z: SparseTangle, x: SparseTangle, j: int) -> SparseTangle:
    """Multiply the 2-string tangle x into strings j, j+1 of z: the upper
    indices at j, j+1 are contracted against x's lower pair and replaced
    by its upper pair.  On two strings, accrete(a, b, 1) is the matrix
    product b * a."""
    n = z.n
    if not 1 <= j <= n - 1:
        raise ValueError(f"position {j} outside 1..{n - 1}")
    if x.n != 2:
        raise ValueError(f"accreted tangle has {x.n} strings, not 2")
    unit = M_DIM ** (2 * n - j - 1)  # weight of the upper index at j + 1
    # x's entries grouped by lower pair, the upper pair as an offset into the key
    xmap: dict[int, list[tuple[int, LaurentQP]]] = {}
    for xkey, xv in x.entries.items():
        xmap.setdefault(xkey % _PAIR, []).append((xkey // _PAIR * unit, xv))
    out: dict[int, LaurentQP] = {}
    for key, v in z.entries.items():
        pair = key // unit % _PAIR
        base = key - pair * unit
        for offset, xv in xmap.get(pair, ()):
            nk = base + offset
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
    """Index pairs swapped, q and p inverted: (a, b, c, d) -> (b, a, d, c).
    Both steps respect products (a conjugation and a ring map), and the map
    takes R to R^-1, so it takes R^e to R^-e.  Inverting q forces p -> 1/p
    because p is a half-integer power of q times the representation
    parameter."""

    def swapped(key: int) -> int:
        a, b = divmod(key // _PAIR, M_DIM)
        c, d = divmod(key % _PAIR, M_DIM)
        return (b * M_DIM + a) * _PAIR + d * M_DIM + c

    return SparseTangle(2, {swapped(k): v.invert_qp() for k, v in t.entries.items()})


_SIGMA = SparseTangle(2, GAUGED)
_IDENTITY2 = identity_tangle(2)
# Newton basis of the cubic relation at the eigenvalues taken in the order
# (-1, q p^-2, q p^2): N1 = R + I and N2 = (R + I)(R - q p^-2 I)
_NEWTON_1 = combine([(ONE, _SIGMA), (ONE, _IDENTITY2)])
_NEWTON_2 = accrete(_NEWTON_1, combine([(ONE, _SIGMA), (-EIGENVALUES[0], _IDENTITY2)]), 1)


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


def _positive_power(e: int) -> SparseTangle:
    """R^e for e >= 1 in Newton form over the eigenvalues: x^e modulo the
    cubic relation is its interpolating polynomial at the three roots, so
    R^e = (-1)^e I + h_{e-1} N1 + h_{e-2} N2.  The coefficients have O(e^2)
    terms and R^e is one linear combination, so the cost grows as e^2."""
    if e == 1:  # most letters; the combination costs about 200 times this copy
        return lg_sigma()
    h1, h2 = _newton_coefficients(e)
    sign = ONE if e % 2 == 0 else -ONE
    return combine([(sign, _IDENTITY2), (h1, _NEWTON_1), (h2, _NEWTON_2)])


def generator_power(e: int) -> SparseTangle:
    """Crossing tensor raised to the e-th power (e != 0); R^-e is R^e
    swapped and inverted."""
    if e == 0:
        raise ValueError("exponent must be nonzero")
    return _positive_power(e) if e > 0 else _swap_invert(_positive_power(-e))


def _contract_first_string(z: SparseTangle) -> SparseTangle:
    """Partial trace of string 1 against the (diagonal) left handle C+."""
    n = z.n
    top = M_DIM ** (2 * n - 1)
    mid = M_DIM ** n
    low = M_DIM ** (n - 1)
    out: dict[int, LaurentQP] = {}
    for key, v in z.entries.items():
        a1 = key // top
        b1 = key // low % M_DIM
        if a1 != b1:
            continue
        nk = (key // mid % low) * low + key % low
        term = v * HANDLE_PLUS[a1]
        cur = out.get(nk)
        out[nk] = term if cur is None else cur + term
    return SparseTangle(n - 1, {k: v for k, v in out.items() if v})


def close(z: SparseTangle) -> SparseTangle:
    """Contract strings 1..n-1 against the left handle, one string at a
    time, leaving the rightmost string open: a 1-string tangle."""
    while z.n > 1:
        z = _contract_first_string(z)
        logger.debug("closed one string: rank %d, %d entries", 2 * z.n, len(z.entries))
    return z


def extract_scalar(t: SparseTangle) -> LaurentQP:
    """Check that the 1-string tangle t is a scalar multiple of the
    identity and return the scalar; anything else signals a convention bug
    or invalid input."""
    diag = t.entries.get(0, ZERO)
    bad = []
    for a in range(M_DIM):
        for b in range(M_DIM):
            v = t.entries.get(a * M_DIM + b, ZERO)
            if (a != b and v) or (a == b and v != diag):
                bad.append((a, b, v))
    if bad:
        detail = ", ".join(f"t[{a}][{b}] = {v}" for a, b, v in bad[:4])
        raise NonScalarTangleError(
            f"closed tangle is not scalar * identity: {detail}"
        )
    return diag


def evaluate_raw(word: BraidWord, max_size: int = DEFAULT_SIZE_CAP) -> LaurentQP:
    """Full pipeline: identity tangle, per-letter accretion (repeated
    letters accreted in one stage via the generator power), closure,
    scalar extraction.  Returns the raw Laurent polynomial in q^(1/2), p."""
    z = identity_tangle(word.n_strings, max_size)
    for i, (pos, exp) in enumerate(word.letters):
        z = accrete(z, generator_power(exp), pos)
        logger.debug(
            "accreted letter %d/%d (pos %d, exp %+d): %d entries",
            i + 1, len(word.letters), pos, exp, len(z.entries),
        )
    return extract_scalar(close(z))
