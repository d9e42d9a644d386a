"""Exact arithmetic in Z[q^(1/2), q^(-1/2), p, p^(-1)].

Half-integer q-exponents are stored doubled (eq2 = 2 * q-exp) so that all
exponent bookkeeping stays in plain integers; coefficients are Python ints
and therefore exact at any size.
"""

from __future__ import annotations

TermKey = tuple[int, int]  # (eq2, ep): doubled q-exponent, p-exponent
Terms = dict[TermKey, int]


class LaurentQP:
    """Laurent polynomial in q^(1/2) and p, canonical form (no zero terms)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Terms | None = None):
        self.terms: Terms = {k: c for k, c in terms.items() if c} if terms else {}

    @classmethod
    def monomial(cls, coeff: int, eq2: int = 0, ep: int = 0) -> LaurentQP:
        return cls({(eq2, ep): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentQP):
            return self.terms == other.terms
        return NotImplemented

    def __add__(self, other: LaurentQP) -> LaurentQP:
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return LaurentQP(out)

    def __neg__(self) -> LaurentQP:
        return LaurentQP({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: LaurentQP) -> LaurentQP:
        return self + (-other)

    def __mul__(self, other: LaurentQP) -> LaurentQP:
        x, y = self.terms, other.terms
        if len(y) < len(x):
            x, y = y, x
        out: Terms = {}
        for (e1, p1), c1 in x.items():
            for (e2, p2), c2 in y.items():
                k = (e1 + e2, p1 + p2)
                out[k] = out.get(k, 0) + c1 * c2
        return LaurentQP(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (e, p), c in sorted(self.terms.items()):
            t = str(c)
            if e:
                t += f"*q^{e // 2}" if e % 2 == 0 else f"*q^({e}/2)"
            if p:
                t += f"*p^{p}"
            parts.append(t)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentQP({self.terms!r})"


ZERO = LaurentQP()
ONE = LaurentQP.monomial(1)
