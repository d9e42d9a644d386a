"""Braid words: parsing, closure bookkeeping, and the moves that preserve
the closure's link type: ``reduce_closure``, which the engine runs before
it plans, and the moves the property-test suite applies.

Grammar: a word is whitespace- or comma-separated tokens, each ``j`` or
``j^k``, with j and k in ASCII digits (any other script's digits are a
syntax error).  A token ``j`` with j > 0 is the generator crossing
strings j and j+1; j < 0 is its inverse.  ``j^k`` repeats the token k
times; negative k means |k| copies of the inverse of the generator given.
"""

from __future__ import annotations

import re
from collections import deque


class Refusal(ValueError):
    """An input the package will not read or evaluate, or a value it will
    not return, with a one-line diagnostic.  Every error class the package
    defines derives from it, so one ``except Refusal`` catches them all."""


class BraidSyntaxError(Refusal):
    """Raised on malformed braid-word text; carries the offending token."""


class BraidWord:
    """n_strings >= 1 plus run-length letters (position, nonzero exponent),
    positions 1-based in 1..n_strings-1.  Immutable and hashable; a copy or
    an unpickled word is validated again."""

    __slots__ = ("n_strings", "letters")

    def __init__(self, n_strings: int, letters: tuple[tuple[int, int], ...]) -> None:
        if n_strings < 1:
            raise ValueError(f"need at least one string, got {n_strings}")
        for pos, exp in letters:
            if not 1 <= pos <= n_strings - 1:
                raise ValueError(f"letter position {pos} outside 1..{n_strings - 1}")
            if exp == 0:
                raise ValueError("zero exponent letter")
        object.__setattr__(self, "n_strings", n_strings)
        object.__setattr__(self, "letters", letters)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a BraidWord")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a BraidWord")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not BraidWord:
            return NotImplemented
        return (self.n_strings, self.letters) == (other.n_strings, other.letters)

    def __hash__(self) -> int:
        return hash((self.n_strings, self.letters))

    def __repr__(self) -> str:
        return f"BraidWord(n_strings={self.n_strings!r}, letters={self.letters!r})"

    def __reduce__(self) -> tuple:
        return BraidWord, (self.n_strings, self.letters)

    def expanded_length(self) -> int:
        return sum(abs(e) for _, e in self.letters)

    def __str__(self) -> str:
        return render(self)


_TOKEN_RE = re.compile(r"^(-?[0-9]+)(?:\^(-?[0-9]+))?$")


def infer_strings(letters: tuple[tuple[int, int], ...] | list[tuple[int, int]]) -> int:
    return 1 + max((pos for pos, _ in letters), default=0)


def _merge_push(letters: list[tuple[int, int]], pos: int, exp: int) -> None:
    # run-length merge of consecutive same-position, same-sign letters;
    # opposite signs are kept apart (no silent free reduction)
    if letters:
        lpos, lexp = letters[-1]
        if lpos == pos and (lexp > 0) == (exp > 0):
            letters[-1] = (pos, lexp + exp)
            return
    letters.append((pos, exp))


def parse(text: str, n_strings: int | None = None) -> BraidWord:
    """Parse braid-word text into canonical run-length form.

    ``n_strings`` overrides the inferred string count (it must not be
    smaller); this is how free strands are represented.  A token ``j^0``
    adds no letter, but its generator counts toward the inferred count:
    the word names strings j and j+1.
    """
    tokens: list[tuple[int, int]] = []  # every (position, exponent) given
    letters: list[tuple[int, int]] = []
    for idx, token in enumerate(re.split(r"[,\s]+", text.strip())):
        if not token:
            continue
        m = _TOKEN_RE.match(token)
        if m is None:
            raise BraidSyntaxError(f"bad token {token!r} at position {idx + 1}")
        try:
            j = int(m.group(1))
            k = int(m.group(2)) if m.group(2) is not None else 1
        except ValueError:  # over the interpreter's limit on digits
            raise BraidSyntaxError(
                f"integer in token at position {idx + 1} has too many digits"
            ) from None
        if j == 0:
            raise BraidSyntaxError(f"generator index 0 at position {idx + 1}")
        tokens.append((abs(j), k))
        if k:
            _merge_push(letters, abs(j), (1 if j > 0 else -1) * k)
    return with_strings(BraidWord(infer_strings(tokens), tuple(letters)), n_strings)


def with_strings(word: BraidWord, n_strings: int | None) -> BraidWord:
    """word on n_strings strings, the added ones free; None keeps its own
    count, and a count below it is refused."""
    if n_strings is None or n_strings == word.n_strings:
        return word
    if n_strings < word.n_strings:
        raise BraidSyntaxError(f"--strings {n_strings} below inferred minimum {word.n_strings}")
    return BraidWord(n_strings, word.letters)


def render(word: BraidWord) -> str:
    """Canonical text for a braid word; parse(render(w)) == w."""
    tokens = []
    for pos, exp in word.letters:
        if exp == 1:
            tokens.append(str(pos))
        elif exp == -1:
            tokens.append(str(-pos))
        else:
            tokens.append(f"{pos}^{exp}")
    return " ".join(tokens)


def components(word: BraidWord) -> int:
    """The number of components of the closed-up link: the cycles of the
    permutation the word induces on its strings."""
    n = word.n_strings
    perm = list(range(n))
    for pos, exp in word.letters:
        if exp % 2:  # sigma_i^e permutes the strings as sigma_i^(e mod 2)
            perm[pos - 1], perm[pos] = perm[pos], perm[pos - 1]
    seen = [False] * n
    cycles = 0
    for i in range(n):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


def writhe(word: BraidWord) -> int:
    return sum(exp for _, exp in word.letters)


def mirror(word: BraidWord) -> BraidWord:
    return BraidWord(
        word.n_strings, tuple((pos, -exp) for pos, exp in word.letters)
    )


def conjugate(word: BraidWord, g: tuple[int, int]) -> BraidWord:
    """g^-1 . word . g for a single letter g; same closure."""
    pos, exp = g
    if exp == 0:
        raise ValueError("zero exponent letter")
    n = max(word.n_strings, pos + 1)
    letters: list[tuple[int, int]] = [(pos, -exp)]
    for item in word.letters:
        _merge_push(letters, *item)
    _merge_push(letters, pos, exp)
    return BraidWord(n, tuple(letters))


def stabilize(word: BraidWord, sign: int) -> BraidWord:
    """Append the new top generator on one extra string; same closure."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    n = word.n_strings
    return BraidWord(n + 1, word.letters + ((n, sign),))


def free_insert(word: BraidWord, index: int, pos: int) -> BraidWord:
    """Insert the cancelling pair sigma_pos sigma_pos^-1 before letter index."""
    n = max(word.n_strings, pos + 1)
    letters = list(word.letters)
    letters[index:index] = [(pos, 1), (pos, -1)]
    return BraidWord(n, tuple(letters))


def reduce_closure(word: BraidWord) -> BraidWord:
    """A word with the same closure and no more letters or strings, by
    moves that do no arithmetic, applied until none applies:
      - a letter slides left past the letters it commutes with (positions
        two or more apart) and merges into the first letter at its own
        position that it meets; a letter whose exponents sum to 0 is dropped;
      - the same across the seam, since conjugation keeps the closure;
      - Markov destabilization at either end: string n, touched by one
        letter only and that of exponent +-1, is dropped with the letter,
        and so is string 1, with the positions shifted down by one (the
        flip, a conjugation by the half twist, takes string 1 to string n).
    An untouched string is a split unknot, not a stabilization: it stays."""
    n, letters = word.n_strings, list(word.letters)
    while True:
        reduced = _destabilize(n, _merge_seam(_slide(letters)))
        if reduced == (n, letters):
            return BraidWord(n, tuple(letters))
        n, letters = reduced


def _slide(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # linear: stacks[p] holds -1, then the indices in out of the live letters
    # at p, so the blocker is the latest top at pos - 1, pos, pos + 1 (none
    # if -1); None is cancelled
    out: list[tuple[int, int] | None] = []
    stacks: list[list[int]] = [[-1] for _ in range(infer_strings(letters) + 1)]
    for pos, exp in letters:
        k = max(stacks[pos - 1][-1], stacks[pos][-1], stacks[pos + 1][-1])
        if k < 0 or out[k][0] != pos:
            stacks[pos].append(len(out))
            out.append((pos, exp))
        elif out[k][1] + exp:
            out[k] = (pos, out[k][1] + exp)
        else:
            out[k] = None
            stacks[pos].pop()
    return [letter for letter in out if letter is not None]


def _merge_seam(letters: list[tuple[int, int]]) -> list[tuple[int, int]]:
    # a letter that can slide to the front crosses the seam and slides on
    # from the back, into the first letter at its position that it meets:
    # at p, when the first and the last of the letters at p - 1, p and p + 1
    # are two letters at p.  A merge at p changes only letters at p, so it
    # can start or stop a merge only at p - 1, p and p + 1, and merges at
    # other positions give the same word in any order.  at[p] holds the
    # indices in out of the live letters at p (empty at 0 and past the last
    # position, so every neighbour looked at exists); None is merged away
    out: list[tuple[int, int] | None] = list(letters)
    at: list[deque[int]] = [deque() for _ in range(infer_strings(letters) + 2)]
    for k, (pos, _) in enumerate(letters):
        at[pos].append(k)
    todo = list(range(1, len(at) - 2))
    while todo:
        pos = todo.pop()
        below, here, above = at[pos - 1], at[pos], at[pos + 1]
        if (
            len(here) < 2
            or below and (below[0] < here[0] or below[-1] > here[-1])
            or above and (above[0] < here[0] or above[-1] > here[-1])
        ):
            continue
        i, j = here.popleft(), here[-1]
        total = out[i][1] + out[j][1]
        out[i] = None
        if total:
            out[j] = (pos, total)
        else:
            out[j] = None
            here.pop()
        todo += (pos - 1, pos, pos + 1)
    return [letter for letter in out if letter is not None]


def _destabilize(
    n: int, letters: list[tuple[int, int]]
) -> tuple[int, list[tuple[int, int]]]:
    # the letters touching string n, then those touching string 1
    for end, shift in ((n - 1, 0), (1, 1)):
        at = [k for k, (pos, _) in enumerate(letters) if pos == end]
        if len(at) == 1 and abs(letters[at[0]][1]) == 1:
            rest = letters[: at[0]] + letters[at[0] + 1 :]
            return n - 1, [(pos - shift, exp) for pos, exp in rest]
    return n, letters


def random_braid(
    rng: "random.Random", max_strings: int = 4, max_expanded_len: int = 8
) -> BraidWord:
    # the annotation is text: eval never draws a random braid, so it does not
    # import random (nor typing, which TYPE_CHECKING would need)
    n = rng.randint(2, max_strings)
    length = rng.randint(0, max_expanded_len)
    letters: list[tuple[int, int]] = []
    for _ in range(length):
        _merge_push(letters, rng.randint(1, n - 1), rng.choice((1, -1)))
    return BraidWord(n, tuple(letters))
