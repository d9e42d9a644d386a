"""Core evaluation: accrete crossing tensors into a sparse rank-2n tangle,
close all strings but the rightmost against the left handle, and extract
the scalar.

A tangle on n strings over a dimension-M basis has at most M^(2n) entries,
which is the storage wall; the default cap admits 5 strings at M = 4 and
refuses 6.  Tangles are kept as maps from a composite index (upper indices
as the high base-M digits, lower as the low digits) to Laurent polynomials,
with zero entries never stored.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .braid import BraidWord
from .ring import ONE, ZERO, LaurentQP
from .statemodel import DiagTensor2, M_DIM, RTensor4, generator_power, lg_handles

logger = logging.getLogger(__name__)

DEFAULT_SIZE_CAP = M_DIM ** 10  # 5 strings at M=4; one more string is refused


class SizeCapExceeded(RuntimeError):
    """Evaluation refused because M^(2n) exceeds the configured cap."""

    def __init__(self, n: int, dim: int, cap: int):
        # M^(2n) is neither formed nor printed when it is sure to exceed the cap
        self.full_size = None if _surely_over(n, cap) else dim ** (2 * n)
        size = "" if self.full_size is None else f" = {self.full_size}"
        super().__init__(
            f"tangle on {n} strings needs M^(2n) = {dim}^{2 * n}{size} entries, "
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
    a_1..a_n (upper, most significant first) then b_1..b_n (lower)."""

    n: int
    dim: int
    entries: dict[int, LaurentQP]

    def entry(self, upper: tuple[int, ...], lower: tuple[int, ...]) -> LaurentQP:
        key = 0
        for digit in upper + lower:
            key = key * self.dim + digit
        return self.entries.get(key, ZERO)


@dataclass
class Tangle11:
    """Rank-2 tensor left after closure; t[a][b] with a upper, b lower."""

    dim: int
    t: list[list[LaurentQP]]


def identity_tangle(n: int, dim: int = M_DIM, max_size: int = DEFAULT_SIZE_CAP) -> SparseTangle:
    if n < 1:
        raise ValueError("need at least one string")
    if _surely_over(n, max_size) or dim ** (2 * n) > max_size:
        raise SizeCapExceeded(n, dim, max_size)
    side = dim ** n
    return SparseTangle(n, dim, {t * side + t: ONE for t in range(side)})


def accrete(z: SparseTangle, x: RTensor4, j: int) -> SparseTangle:
    """Multiply the crossing tensor x into strings j, j+1 of z: the upper
    indices at j, j+1 are contracted against x's lower pair and replaced
    by its upper pair."""
    n, m = z.n, z.dim
    if not 1 <= j <= n - 1:
        raise ValueError(f"position {j} outside 1..{n - 1}")
    hi = m ** (2 * n - j)
    lo = m ** (2 * n - j - 1)
    # x's entries grouped by lower pair, both pairs as offsets into the key
    xmap: dict[int, list[tuple[int, LaurentQP]]] = {}
    for (a1, a2, c1, c2), xv in x.nonzero():
        xmap.setdefault(c1 * hi + c2 * lo, []).append((a1 * hi + a2 * lo, xv))
    out: dict[int, LaurentQP] = {}
    for key, v in z.entries.items():
        lower = key // hi % m * hi + key // lo % m * lo
        base = key - lower
        for offset, xv in xmap.get(lower, ()):
            nk = base + offset
            term = v * xv
            cur = out.get(nk)
            out[nk] = term if cur is None else cur + term
    return SparseTangle(n, m, {k: v for k, v in out.items() if v})


def _contract_first_string(z: SparseTangle, handle: DiagTensor2) -> SparseTangle:
    n, m = z.n, z.dim
    top = m ** (2 * n - 1)
    mid = m ** n
    low = m ** (n - 1)
    diag = handle.diag
    out: dict[int, LaurentQP] = {}
    for key, v in z.entries.items():
        a1 = key // top
        b1 = key // low % m
        if a1 != b1:
            continue
        nk = (key // mid % low) * low + key % low
        term = v * diag[a1]
        cur = out.get(nk)
        out[nk] = term if cur is None else cur + term
    return SparseTangle(n - 1, m, {k: v for k, v in out.items() if v})


def close(z: SparseTangle, handle: DiagTensor2 | None = None) -> Tangle11:
    """Contract strings 1..n-1 against the handle, one string at a time,
    leaving the rightmost string open."""
    if handle is None:
        handle = lg_handles()[0]
    while z.n > 1:
        z = _contract_first_string(z, handle)
        logger.debug("closed one string: rank %d, %d entries", 2 * z.n, len(z.entries))
    m = z.dim
    t = [[ZERO] * m for _ in range(m)]
    for key, v in z.entries.items():
        t[key // m][key % m] = v
    return Tangle11(m, t)


def extract_scalar(t: Tangle11) -> LaurentQP:
    """Check that t is a scalar multiple of the identity and return the
    scalar; anything else signals a convention bug or invalid input."""
    m = t.dim
    bad = [
        (a, b, t.t[a][b])
        for a in range(m)
        for b in range(m)
        if (a != b and t.t[a][b]) or (a == b and t.t[a][b] != t.t[0][0])
    ]
    if bad:
        detail = ", ".join(f"t[{a}][{b}] = {v}" for a, b, v in bad[:4])
        raise NonScalarTangleError(
            f"closed tangle is not scalar * identity: {detail}"
        )
    return t.t[0][0]


def evaluate_raw(word: BraidWord, max_size: int = DEFAULT_SIZE_CAP) -> LaurentQP:
    """Full pipeline: identity tangle, per-letter accretion (repeated
    letters accreted in one stage via the generator power), closure,
    scalar extraction.  Returns the raw Laurent polynomial in q^(1/2), p."""
    z = identity_tangle(word.n_strings, M_DIM, max_size)
    for i, (pos, exp) in enumerate(word.letters):
        z = accrete(z, generator_power(exp), pos)
        logger.debug(
            "accreted letter %d/%d (pos %d, exp %+d): %d entries",
            i + 1, len(word.letters), pos, exp, len(z.entries),
        )
    return extract_scalar(close(z))
