"""The check that ties a Links-Gould value to the Alexander polynomial of
its braid's closure: LG(q = 1, P) is P^k Delta(P)^2 (Ishii; Kohli 2016,
"On the Links-Gould invariant and the square of the Alexander
polynomial").  Nothing here comes from the state model, so the check is
independent of the engine.

Delta is D(t) = det(I - B') (Kassel-Turaev, "Braid Groups"), B' the
unreduced Burau matrix B of the word with row 1 and column 1 deleted.
sigma_i acts on rows i and i + 1 of B as [[1 - t, t], [1, 0]], so row r
of B is e_r times the letters' matrices in word order, each row formed on
its own, and only rows 2..n are needed.  The unit is fixed: for a raw
value f at q = 1, a polynomial in p with P = p^2, a word on n strings
with exponent sum e has

    f(p) p^(2(e - n + 1)) = D(p^2)^2.

The check reads both sides at one point, p = X modulo the prime
P_MOD = 2^61 - 1, for the word as given: linear in its letters, with no
coefficient growth and no normal form.  It never refuses a correct
value, since the identity is exact.  A wrong value passes only if the
difference of the two sides vanishes at X modulo P_MOD: each of its
coefficients is a multiple of P_MOD, or X is one of its roots.  For a
value whose p-exponents stay within the p-reach N = 2 letters + 2 closes
that engine._check_reach admits, the difference times p^N is a
polynomial of degree at most 2N, with at most 2N roots, so a point drawn
at random is one with chance at most 2N / P_MOD: under 2 * 10^-13 on the
five strings the default size cap admits (where the q-reach keeps N
under 210,000), and under 5 * 10^-13 for any admitted word.  X is a
constant, so the same input always gives the same outcome.

A polynomial is a plain dict {exponent: integer coefficient} with no zero
coefficient, a Laurent polynomial in p (or in P).
"""

from __future__ import annotations

from .braid import BraidWord, Refusal
from .ring import LaurentQP

Poly = dict[int, int]

P_MOD = (1 << 61) - 1  # a prime, 3 mod 4: no x has x^2 = -1, so 1 + t is a unit
X = 0x0123456789ABCDEF  # the point p = X, t = P = X^2


class AlexanderMismatchError(Refusal):
    """A value at q = 1 is not P^k times the square of the Alexander
    polynomial of the word it was evaluated from."""


def burau_rows(word: BraidWord, t: int) -> list[list[int]]:
    """Rows 2..n of the unreduced Burau matrix of the word at t mod P_MOD.
    A letter sigma_i^e takes a row's entries (x, y) at i, i + 1 to
    (x, y) M^e = (x - d, y + d), d = alpha (t x - y): M's eigenvalues are 1
    and -t, so M^e = alpha M + (1 - alpha) I with
    alpha = (1 - (-t)^e) / (1 + t), one pow per distinct exponent."""
    n = word.n_strings
    rows = [[int(c == r) for c in range(n)] for r in range(1, n)]
    over = pow(1 + t, -1, P_MOD)
    alphas: dict[int, int] = {}
    for pos, e in word.letters:
        a = alphas.get(e)
        if a is None:
            a = alphas[e] = (1 - pow(-t, e, P_MOD)) * over % P_MOD
        for row in rows:
            x, y = row[pos - 1], row[pos]
            d = a * (t * x - y) % P_MOD
            row[pos - 1], row[pos] = (x - d) % P_MOD, (y + d) % P_MOD
    return rows


def _determinant(m: list[list[int]]) -> int:
    """The determinant mod P_MOD, by elimination with one inverse per pivot."""
    m = [row[:] for row in m]
    det = 1
    for k in range(len(m)):
        pivot = next((r for r in range(k, len(m)) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], det = m[pivot], m[k], -det
        row = m[k]
        det = det * row[k] % P_MOD
        inverse = pow(row[k], -1, P_MOD)
        for below in m[k + 1 :]:
            factor = below[k] * inverse % P_MOD
            if factor:
                for j in range(k + 1, len(m)):
                    below[j] = (below[j] - factor * row[j]) % P_MOD
    return det


def delta_at_point(word: BraidWord) -> int:
    """D(t) = det(I - B') of the word as given, at t = X^2 mod P_MOD."""
    t = X * X % P_MOD
    minor = [
        [(int(r == c) - v) % P_MOD for c, v in enumerate(row[1:])]
        for r, row in enumerate(burau_rows(word, t))
    ]
    return _determinant(minor)


def at_q_one(value: LaurentQP) -> Poly:
    """A raw value at q = 1, a polynomial in p."""
    out: Poly = {}
    for (_, e), c in value.terms.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def check(word: BraidWord, value: LaurentQP) -> None:
    """AlexanderMismatchError unless the raw Links-Gould value of the
    word's closure (in q^(1/2) and p, P = p^2) has
    f(X) X^(2(e - n + 1)) = D(X^2)^2 mod P_MOD at q = 1, f being read by
    Horner over its p-exponents."""
    f = at_q_one(value)
    side = 0
    if f:
        low = min(f)
        for e in range(max(f), low - 1, -1):
            side = (side * X + f.get(e, 0)) % P_MOD
        shift = 2 * (sum(e for _, e in word.letters) - word.n_strings + 1)
        side = side * pow(X, low + shift, P_MOD) % P_MOD
    if side != pow(delta_at_point(word), 2, P_MOD):
        raise AlexanderMismatchError(
            "value at q = 1 is not P^k Delta(P)^2, k = n - 1 - e, for the braid's"
            f" Alexander polynomial Delta (from its Burau matrix, at p = {X} mod 2^61 - 1)"
        )
