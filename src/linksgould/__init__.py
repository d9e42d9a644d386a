"""Exact state-sum evaluation of the Links-Gould two-variable link invariant.

The invariant of the closure of a braid word is computed by shortening the
word with moves that keep its closure, then accreting the rank-4 crossing
tensor letter by letter into a sparse tensor on the strings still in use,
closing every string but the rightmost against the left handle after its
last letter, and reading off the scalar.  Every value is checked at q = 1
against the square of the Alexander polynomial, from the word's Burau
matrix.  All arithmetic is exact; the result is a Laurent polynomial in q
and P, symmetric under P -> 1/P.
"""

from __future__ import annotations

from .braid import BraidWord, parse as parse_braid
from .engine import DEFAULT_SIZE_CAP, evaluate_raw
from .invariant import InvariantPoly, to_compact, to_invariant

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "DEFAULT_SIZE_CAP",
    "evaluate",
    "evaluate_raw",
    "parse_braid",
    "to_compact",
    "to_invariant",
]


def evaluate(
    word: str | BraidWord,
    strings: int | None = None,
    max_size: int = DEFAULT_SIZE_CAP,
) -> InvariantPoly:
    """Evaluate the invariant of the closure of a braid word.

    ``word`` is either a :class:`BraidWord` or a string in the generator
    grammar (e.g. ``"1 1 1"`` for the trefoil).
    """
    braid = parse_braid(word, strings) if isinstance(word, str) else word
    return to_invariant(evaluate_raw(braid, max_size=max_size))
