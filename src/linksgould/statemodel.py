"""The paper's state-model data over the 4-dimensional basis.

The paper's crossing tensor has four cells carrying the root Y of
Y^2 = p^2 + p^-2 - q - q^-1.  Conjugating it by D x D, D = diag(1, 1, 1/Y, 1)
(the gauge), leaves Laurent polynomials in q^(1/2) and p; the handles are
diagonal, so closures do not change.  Also here: the eigenvalues of the
crossing tensor, the cap/cup diagonals and the left handles formed from
them.  Tensor operations live in ``engine``; checks of this data live in
``checks``.
"""

from __future__ import annotations

from .ring import LaurentQP

M_DIM = 4

Cell = tuple[LaurentQP, int]  # transcription cell: (coefficient, power of Y)
Diagonal = tuple[LaurentQP, ...]  # the diagonal of a rank-2 tensor


def _mono(coeff: int, eq2: int = 0, ep: int = 0) -> LaurentQP:
    return LaurentQP.monomial(coeff, eq2, ep)


def _m(coeff: int, eq2: int = 0, ep: int = 0) -> Cell:
    return _mono(coeff, eq2, ep), 0


def _y(coeff: int, eq2: int = 0, ep: int = 0) -> Cell:
    return _mono(coeff, eq2, ep), 1


def _poly(*terms: tuple[int, int, int]) -> Cell:
    return LaurentQP({(eq2, ep): c for c, eq2, ep in terms}), 0


# The paper's positive-crossing tensor on the (row, col) = (4a+b, 4c+d)
# layout, (a, b) the outgoing index pair and (c, d) the incoming one.
# 26 nonzero cells; everything else is exactly zero.
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


def _gauge(cells: dict[tuple[int, int], Cell]) -> dict[tuple[int, int], LaurentQP]:
    """R'[row, col] = R[row, col] * D_row / D_col, where D_row = D_a * D_b
    for row = 4a + b; the Y power left in each cell must be even and is
    expanded through Y^2.  Keyed by (row, col), as the transcription is."""

    def y_count(i: int) -> int:
        return (i // M_DIM == _GAUGE_INDEX) + (i % M_DIM == _GAUGE_INDEX)

    out = {}
    for (row, col), (coeff, y) in cells.items():
        y += y_count(col) - y_count(row)
        if y < 0 or y % 2:
            raise ValueError(f"gauge leaves Y^{y} in cell {(row, col)}")
        for _ in range(y // 2):
            coeff = coeff * _Y2
        out[row, col] = coeff
    return out


GAUGED = _gauge(TRANSCRIPTION)

# eigenvalues of the crossing tensor: (R - q p^-2)(R + 1)(R - q p^2) = 0
EIGENVALUES = (_mono(1, 2, -2), _mono(-1), _mono(1, 2, 2))

# cap and cup diagonals (all four are diagonal rank-2 tensors)
_IDENTITY: Diagonal = (_mono(1),) * M_DIM
OMEGA_PLUS: Diagonal = (_mono(1, 2, -2), _mono(-1, 2, -2), _mono(-1, -2, -2), _mono(1, -2, -2))
OMEGA_MINUS: Diagonal = _IDENTITY
MHO_PLUS: Diagonal = _IDENTITY
MHO_MINUS: Diagonal = (_mono(1, -2, 2), _mono(-1, -2, 2), _mono(-1, 2, 2), _mono(1, 2, 2))

# left handles C+ and C-: handle[a][b] = sum_c cap[c][a] * cup[c][b]; both
# factors are diagonal, so only a == b == c survives
HANDLE_PLUS: Diagonal = tuple(o * u for o, u in zip(OMEGA_PLUS, MHO_PLUS))
HANDLE_MINUS: Diagonal = tuple(o * u for o, u in zip(OMEGA_MINUS, MHO_MINUS))
