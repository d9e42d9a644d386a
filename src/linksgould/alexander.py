"""The Alexander polynomial of a braid's closure from its Burau matrix, and
the check that ties it to the Links-Gould invariant: LG(q = 1, P) is
P^k Delta(P)^2 for some integer k (Ishii; Kohli 2016, "On the Links-Gould
invariant and the square of the Alexander polynomial").  Nothing here
comes from the state model, so the check is independent of the engine.

A polynomial is a plain dict {exponent: integer coefficient} with no zero
coefficient, a Laurent polynomial in t (or in P, or in p).

Delta(t) is det(I - B) with row 1 and column 1 deleted, up to a unit
+-t^k.  B is the unreduced Burau matrix of the word: sigma_i acts on rows
i and i + 1 as [[1 - t, t], [1, 0]].  Row r of B is e_r times the letters'
matrices in word order, so each row is formed on its own, and a letter
at i changes its entries i and i + 1 (see _letter).  Only rows 2..n are
needed.
"""

from __future__ import annotations

import math

from .braid import BraidWord
from .ring import LaurentQP

Poly = dict[int, int]


class AlexanderMismatchError(RuntimeError):
    """A value at q = 1 is not P^k times the square of the Alexander
    polynomial of the word it was evaluated from."""


def _products(*terms: tuple[int, Poly, Poly]) -> Poly:
    """The sum of sign * f * g over (sign, f, g), formed in one dict."""
    out: Poly = {}
    get = out.get
    for sign, f, g in terms:
        for a, x in f.items():
            x *= sign
            for b, y in g.items():
                out[a + b] = get(a + b, 0) + x * y
    return {e: c for e, c in out.items() if c}


def _sum(f: Poly, g: Poly, h: Poly) -> Poly:
    """f + g - h, formed in one dict.  Every sum the oracle forms has this
    shape, and fixed signs cost less per call than a list of signed terms."""
    out = dict(f)
    for e, c in g.items():
        out[e] = out.get(e, 0) + c
    for e, c in h.items():
        out[e] = out.get(e, 0) - c
    return {e: c for e, c in out.items() if c}


def _alpha(e: int) -> Poly:
    """alpha with M^e = alpha M + (1 - alpha) I for the Burau block
    M = [[1 - t, t], [1, 0]], whose eigenvalues are 1 and -t:
    alpha = (1 - (-t)^e) / (1 + t), a sum of |e| powers of -t."""
    sign = (1, -1)  # (-1)^k by the parity of k
    if e > 0:
        return {k: sign[k & 1] for k in range(e)}
    return {k: -sign[k & 1] for k in range(e, 0)}


def _letter(x: Poly, y: Poly, e: int) -> tuple[Poly, Poly]:
    """A row's entries (x, y) at i, i + 1 times sigma_i^e's block:
    (x, y) M^e = (x - d, y + d) with d = alpha (t x - y) (see _alpha), so
    the letter keeps x + y.  At e = 1, y + d = t x; at e = -1, x - d = y / t."""
    if e == 1:
        new_y = {k + 1: c for k, c in x.items()}
        return _sum(x, y, new_y), new_y
    if e == -1:
        new_x = {k - 1: c for k, c in y.items()}
        return new_x, _sum(x, y, new_x)
    d = _products((1, _alpha(e), _sum({k + 1: c for k, c in x.items()}, {}, y)))
    return _sum(x, {}, d), _sum(y, d, {})


def burau(word: BraidWord) -> list[list[Poly]]:
    """Rows 2..n of the unreduced Burau matrix of the word, each a list of
    n polynomials in t (see _letter).  Row 1 follows from them, as
    (1, t, ..., t^(n-1)) B = (1, t, ..., t^(n-1)) for every braid."""
    n = word.n_strings
    out = [[{0: 1} if c == r else {} for c in range(n)] for r in range(1, n)]
    for pos, exp in word.letters:
        for row in out:
            if row[pos - 1] or row[pos]:
                row[pos - 1], row[pos] = _letter(row[pos - 1], row[pos], exp)
    return out


def _divide(f: Poly, g: Poly) -> Poly:
    """f / g when g divides f exactly, term by term from the top."""
    f, out = dict(f), {}
    top = max(g)
    lowest = min(f) - min(g) if f else 0
    while f:
        e = max(f)
        c, r = divmod(f[e], g[top])
        if r or e - top < lowest:
            raise ArithmeticError("inexact polynomial division")
        out[e - top] = c
        for k, v in g.items():
            s = f.get(k + e - top, 0) - c * v
            if s:
                f[k + e - top] = s
            else:
                del f[k + e - top]
    return out


def _determinant(m: list[list[Poly]]) -> Poly:
    """The determinant by fraction-free elimination (Bareiss): each
    division in it is exact, so every entry stays a polynomial."""
    m = [row[:] for row in m]
    size, sign, previous = len(m), 1, {0: 1}
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return {}
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                cross = _products((1, m[k][k], m[i][j]), (-1, m[i][k], m[k][j]))
                m[i][j] = _divide(cross, previous) if k else cross
        previous = m[k][k]
    return {e: sign * c for e, c in previous.items()}


def _normal_form(word: BraidWord) -> BraidWord:
    """The word freely and cyclically reduced, on its own strings, in one
    pass: adjacent letters at one position merged, and dropped if their
    exponents sum to 0; then the first and the last letter merged or
    cancelled while they sit at one position.  Its closure has the word's
    Delta, since Burau is a representation and Delta a conjugacy invariant.
    It shares no code with braid.reduce_closure, which the oracle checks."""
    out: list[tuple[int, int]] = []
    for pos, exp in word.letters:
        if out and out[-1][0] == pos:
            exp += out.pop()[1]
        if exp:
            out.append((pos, exp))
    lo, hi = 0, len(out) - 1
    while lo < hi and out[lo][0] == out[hi][0]:
        exp, hi = out[lo][1] + out[hi][1], hi - 1
        if exp:
            out[lo] = (out[lo][0], exp)
            break
        lo += 1
    return BraidWord(word.n_strings, tuple(out[lo : hi + 1]))


def alexander(word: BraidWord) -> Poly:
    """Delta(t) of the word's closure, up to a unit +-t^k; 0 for a split
    link, 1 for the unknot on one string.  It is det(I - B'), B' being B
    with row 1 and column 1 deleted, formed as (-1)^(n-1) det(B' - I), B
    the Burau matrix of the word's normal form (see _normal_form)."""
    minor = [row[1:] for row in burau(_normal_form(word))]
    for r, row in enumerate(minor):
        row[r] = _sum(row[r], {}, {0: 1})
    delta = _determinant(minor)
    return {e: -c for e, c in delta.items()} if len(minor) % 2 else delta


def _at(f: Poly, bits: int) -> int:
    """f shifted to start at x^0, at x = 2^bits."""
    low = min(f)
    return sum(c << bits * (e - low) for e, c in f.items())


def is_square_multiple(f: Poly, g: Poly) -> bool:
    """Whether f(p) = p^k g(p^2)^2 for some integer k: a raw value at q = 1
    against Delta(P), P = p^2.  Both sides are read at p = 2^bits, each
    shifted to start at p^0, with bits chosen so that no coefficient of
    either reaches 2^(bits - 1) in absolute value: two such polynomials are
    equal exactly when those integers are (Kronecker substitution), and one
    big-integer square costs far less than squaring g term by term."""
    if not f or not g:
        return f == g
    bound = max(max(map(abs, f.values())), sum(map(abs, g.values())) ** 2)
    bits = bound.bit_length() + 2
    return _at(f, bits) == _at(g, 2 * bits) ** 2


def at_q_one(value: LaurentQP) -> Poly:
    """A raw value at q = 1, a polynomial in p."""
    out: Poly = {}
    for (_, e), c in value.terms.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def check(word: BraidWord, value: LaurentQP) -> Poly:
    """Delta of the word's closure, once the raw Links-Gould value of that
    closure (in q^(1/2) and p, P = p^2) is checked to be P^k Delta(P)^2 at
    q = 1; AlexanderMismatchError if it is not."""
    delta = alexander(word)
    if not is_square_multiple(at_q_one(value), delta):
        raise AlexanderMismatchError(
            f"value at q = 1 is not P^k Delta(P)^2 for the braid's Alexander polynomial"
            f" Delta ({len(delta)} terms, from its Burau matrix)"
        )
    return delta


def square_root(f: Poly) -> Poly | None:
    """The integer Laurent polynomial g with g * g == f and a positive top
    coefficient, or None if f is no such square.  g's terms are found from
    the top down: the next is what f's matching coefficient leaves over
    the square of the terms found so far, over twice g's top coefficient."""
    if not f:
        return {}
    top = max(f)
    lead = math.isqrt(f[top]) if f[top] > 0 else 0
    if top % 2 or lead * lead != f[top]:
        return None
    half = top // 2
    g = {half: lead}
    for e in range(half - 1, min(f) // 2 - 1, -1):
        known = sum(c * g.get(half + e - k, 0) for k, c in g.items())
        c, r = divmod(f.get(half + e, 0) - known, 2 * lead)
        if r:
            return None
        if c:
            g[e] = c
    return g if _products((1, g, g)) == f else None
