"""Concrete state-model data over the 4-dimensional basis.

The paper's crossing tensor has four cells carrying the root Y of
Y^2 = p^2 + p^-2 - q - q^-1.  Conjugating it by D x D, D = diag(1, 1, 1/Y, 1)
(the gauge), leaves Laurent polynomials in q^(1/2) and p; the handles are
diagonal, so closures do not change.  Also here: the inverse (index pairs
swapped, q and p inverted; inverting q forces p -> 1/p because p is a
half-integer power of q times the representation parameter), powers from
the cubic relation, the cap/cup diagonals and the left handles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .ring import ONE, ZERO, LaurentQP

M_DIM = 4

Cell = tuple[LaurentQP, int]  # transcription cell: (coefficient, power of Y)


def _mono(coeff: int, eq2: int = 0, ep: int = 0) -> LaurentQP:
    return LaurentQP.monomial(coeff, eq2, ep)


def _m(coeff: int, eq2: int = 0, ep: int = 0) -> Cell:
    return _mono(coeff, eq2, ep), 0


def _y(coeff: int, eq2: int = 0, ep: int = 0) -> Cell:
    return _mono(coeff, eq2, ep), 1


def _poly(*terms: tuple[int, int, int]) -> Cell:
    return LaurentQP({(eq2, ep): c for c, eq2, ep in terms}), 0


@dataclass
class RTensor4:
    """Rank-4 crossing tensor: entry(a, b, c, d) with (a, b) the outgoing
    index pair and (c, d) the incoming one, all 0-based in 0..dim-1.

    Viewed as a dim^2 x dim^2 matrix, row = dim*a + b and col = dim*c + d.
    """

    dim: int
    entries: dict[tuple[int, int, int, int], LaurentQP]

    def entry(self, a: int, b: int, c: int, d: int) -> LaurentQP:
        return self.entries.get((a, b, c, d), ZERO)

    def nonzero(self) -> Iterator[tuple[tuple[int, int, int, int], LaurentQP]]:
        return iter(self.entries.items())

    def compose(self, other: RTensor4) -> RTensor4:
        """Matrix product self * other on the dim^2 x dim^2 layout."""
        x, y = ({(k[:2], k[2:]): v for k, v in t.nonzero()} for t in (self, other))
        return RTensor4(self.dim, {r + c: v for (r, c), v in _matmul(x, y).items()})

    def as_matrix(self) -> list[list[LaurentQP]]:
        m = self.dim
        grid = [[ZERO] * (m * m) for _ in range(m * m)]
        for (a, b, c, d), v in self.entries.items():
            grid[m * a + b][m * c + d] = v
        return grid

    def is_identity(self) -> bool:
        m = self.dim
        if len(self.entries) != m * m:
            return False
        return all(
            self.entries.get((a, b, a, b)) == 1 for a in range(m) for b in range(m)
        )


def _matmul(x: dict[tuple, LaurentQP], y: dict[tuple, LaurentQP]) -> dict[tuple, LaurentQP]:
    """Sparse matrix product over {(row, col): value} maps."""
    by_row: dict[tuple, list] = {}
    for (r, c), v in y.items():
        by_row.setdefault(r, []).append((c, v))
    out: dict[tuple, LaurentQP] = {}
    for (r, c), v in x.items():
        for c2, w in by_row.get(c, ()):
            k = (r, c2)
            term = v * w
            cur = out.get(k)
            out[k] = term if cur is None else cur + term
    return {k: v for k, v in out.items() if v}


@dataclass(frozen=True)
class DiagTensor2:
    """Diagonal rank-2 tensor (caps, cups and handles are all diagonal)."""

    dim: int
    diag: tuple[LaurentQP, ...]

    def trace(self) -> LaurentQP:
        return sum(self.diag, ZERO)


class CapsCups(NamedTuple):
    omega_plus: DiagTensor2
    omega_minus: DiagTensor2
    mho_plus: DiagTensor2
    mho_minus: DiagTensor2


# The paper's positive-crossing tensor on the (row, col) = (4a+b, 4c+d)
# layout.  26 nonzero cells; everything else is exactly zero.
TRANSCRIPTION: dict[tuple[int, int], Cell] = {
    (0, 0): _m(1, 2, -2),                       # p^-2 q
    (1, 4): _m(1, 1, -1),                       # p^-1 q^1/2
    (2, 8): _m(1, 1, -1),
    (3, 12): _m(1),
    (4, 1): _m(1, 1, -1),
    (4, 4): _poly((1, 2, -2), (-1, 0, 0)),      # p^-2 q - 1
    (5, 5): _m(-1),
    (6, 9): _m(-1, 2, 0),                       # -q
    (6, 12): _y(-1, 1, 0),                      # -q^1/2 Y
    (7, 13): _m(1, 1, 1),                       # p q^1/2
    (8, 2): _m(1, 1, -1),
    (8, 8): _poly((1, 2, -2), (-1, 0, 0)),
    (9, 6): _m(-1, 2, 0),
    (9, 9): _poly((1, 4, 0), (-1, 0, 0)),       # q^2 - 1
    (9, 12): _y(1, 3, 0),                       # q^3/2 Y
    (10, 10): _m(-1),
    (11, 14): _m(1, 1, 1),
    (12, 3): _m(1),
    (12, 6): _y(-1, 1, 0),
    (12, 9): _y(1, 3, 0),
    (12, 12): _poly((1, 2, 2), (1, 2, -2), (-1, 4, 0), (-1, 0, 0)),  # q Y^2, reduced
    (13, 7): _m(1, 1, 1),
    (13, 13): _poly((1, 2, 2), (-1, 0, 0)),     # p^2 q - 1
    (14, 11): _m(1, 1, 1),
    (14, 14): _poly((1, 2, 2), (-1, 0, 0)),
    (15, 15): _m(1, 2, 2),                      # p^2 q
}

# Y^2 = p^2 + p^-2 - q - q^-1
_Y2 = LaurentQP({(0, 2): 1, (0, -2): 1, (2, 0): -1, (-2, 0): -1})
_GAUGE_INDEX = 2  # D = diag(1, 1, 1/Y, 1): the basis index that carries 1/Y


def _gauge(cells: dict[tuple[int, int], Cell]) -> dict[tuple[int, ...], LaurentQP]:
    """R'[row, col] = R[row, col] * D_row / D_col, where D_row = D_a * D_b
    for row = 4a + b; the Y power left in each cell must be even and is
    expanded through Y^2.  Keyed (a, b, c, d) like RTensor4."""

    def y_count(i: int) -> int:
        return (i // M_DIM == _GAUGE_INDEX) + (i % M_DIM == _GAUGE_INDEX)

    out = {}
    for (row, col), (coeff, y) in cells.items():
        y += y_count(col) - y_count(row)
        if y < 0 or y % 2:
            raise ValueError(f"gauge leaves Y^{y} in cell {(row, col)}")
        for _ in range(y // 2):
            coeff = coeff * _Y2
        out[(row // M_DIM, row % M_DIM, col // M_DIM, col % M_DIM)] = coeff
    return out


_GENERATOR = _gauge(TRANSCRIPTION)

# eigenvalues of the crossing tensor: (R - q p^-2)(R + 1)(R - q p^2) = 0
_EIGENVALUES = (_mono(1, 2, -2), _mono(-1), _mono(1, 2, 2))


def lg_sigma() -> RTensor4:
    """Tensor of the positive braid generator (gauged, so Y-free)."""
    return RTensor4(M_DIM, dict(_GENERATOR))


def _swap_invert(t: RTensor4) -> RTensor4:
    """Index pairs swapped, q and p inverted.  Both steps respect products
    (a conjugation and a ring map), and the map takes R to R^-1, so it
    takes R^e to R^-e."""
    return RTensor4(
        t.dim, {(b, a, d, c): v.invert_qp() for (a, b, c, d), v in t.nonzero()}
    )


def lg_sigma_inverse() -> RTensor4:
    """Tensor of the inverse generator."""
    return _swap_invert(lg_sigma())


def _combine(parts: list[tuple[LaurentQP, RTensor4]], scalar: LaurentQP) -> RTensor4:
    """Sum of coeff * tensor over parts, plus scalar * identity."""
    out: dict[tuple[int, int, int, int], LaurentQP] = {}
    for coeff, t in parts:
        for k, v in t.nonzero():
            out[k] = out.get(k, ZERO) + coeff * v
    for a in range(M_DIM):
        for b in range(M_DIM):
            out[(a, b, a, b)] = out.get((a, b, a, b), ZERO) + scalar
    return RTensor4(M_DIM, {k: v for k, v in out.items() if v})


def generator_power(e: int) -> RTensor4:
    """Crossing tensor raised to the e-th power (e != 0).

    For e >= 2, R^e = a R^2 + b R + c I, with (a, b, c) stepped from
    (0, 1, 0) at e = 1 by the cubic relation R^3 = s1 R^2 - s2 R + s3
    (s1, s2, s3: elementary symmetric polynomials of the eigenvalues);
    R^-e is R^e swapped and inverted."""
    if e == 0:
        raise ValueError("exponent must be nonzero")
    if e < 0:
        return _swap_invert(generator_power(-e))
    sig = lg_sigma()
    if e == 1:
        return sig
    l1, l2, l3 = _EIGENVALUES
    s1, s2, s3 = l1 + l2 + l3, l1 * l2 + l1 * l3 + l2 * l3, l1 * l2 * l3
    a, b, c = ZERO, ONE, ZERO
    for _ in range(e - 1):
        a, b, c = a * s1 + b, c - a * s2, a * s3
    return _combine([(a, sig.compose(sig)), (b, sig)], c)


def lg_caps_cups() -> CapsCups:
    identity = (ONE,) * M_DIM
    omega_plus = (_mono(1, 2, -2), _mono(-1, 2, -2), _mono(-1, -2, -2), _mono(1, -2, -2))
    mho_minus = (_mono(1, -2, 2), _mono(-1, -2, 2), _mono(-1, 2, 2), _mono(1, 2, 2))
    return CapsCups(
        omega_plus=DiagTensor2(M_DIM, omega_plus),
        omega_minus=DiagTensor2(M_DIM, identity),
        mho_plus=DiagTensor2(M_DIM, identity),
        mho_minus=DiagTensor2(M_DIM, mho_minus),
    )


def _compose_handle(cap: DiagTensor2, cup: DiagTensor2) -> DiagTensor2:
    # handle[a][b] = sum_c cap[c][a] * cup[c][b]; both factors diagonal,
    # so only a == b == c survives
    return DiagTensor2(cap.dim, tuple(o * u for o, u in zip(cap.diag, cup.diag)))


def lg_handles() -> tuple[DiagTensor2, DiagTensor2]:
    """Left handles (C+, C-), composed from caps and cups and checked
    against their known closed forms."""
    caps = lg_caps_cups()
    c_plus = _compose_handle(caps.omega_plus, caps.mho_plus)
    c_minus = _compose_handle(caps.omega_minus, caps.mho_minus)
    expect_plus = (_mono(1, 2, -2), _mono(-1, 2, -2), _mono(-1, -2, -2), _mono(1, -2, -2))
    expect_minus = (_mono(1, -2, 2), _mono(-1, -2, 2), _mono(-1, 2, 2), _mono(1, 2, 2))
    if c_plus.diag != expect_plus or c_minus.diag != expect_minus:
        raise AssertionError("handle composition disagrees with closed form")
    return c_plus, c_minus


def check_yang_baxter() -> bool:
    """Braid relation for the crossing tensor, checked exactly on the
    64 x 64 composite layout: (s x I)(I x s)(s x I) = (I x s)(s x I)(I x s)."""
    sig = lg_sigma()
    left: dict[tuple, LaurentQP] = {}
    right: dict[tuple, LaurentQP] = {}
    for (a, b, c, d), v in sig.nonzero():
        for k in range(M_DIM):
            left[((a, b, k), (c, d, k))] = v
            right[((k, a, b), (k, c, d))] = v
    lhs = _matmul(_matmul(left, right), left)
    rhs = _matmul(_matmul(right, left), right)
    return lhs == rhs


def check_cubic_relation() -> bool:
    """(R - q p^-2)(R + 1)(R - q p^2) = 0, checked exactly; generator_power
    rests on it."""
    f1, f2, f3 = (_combine([(ONE, lg_sigma())], -lam) for lam in _EIGENVALUES)
    return not f1.compose(f2).compose(f3).entries
