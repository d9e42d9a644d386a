"""Embedded reference corpus: exact reference polynomials keyed by
knot/link name, with braid words attached where the closure is standard or
was verified against the stored value.

The corpus ships as ``data/lg_table.txt``; each entry is a header line
``name; components; amphichiral|chiral[; braid=<word>]`` followed by one
machine-format polynomial record.  This module parses and checks the
corpus only; ``checks.regression`` evaluates the entries that carry a braid.
``validate_entry`` runs each stored value through ``to_invariant``'s
structural checks and checks it against LG(q = 1) = Delta(P)^2 (see
``alexander``); ``load_corpus`` runs no check.
"""

from __future__ import annotations

import re
from collections import namedtuple
from importlib import resources

from .alexander import at_q_one, square_root
from .braid import BraidWord, components, parse as parse_braid
from .invariant import (
    CompactForm, StructureError, from_compact, is_palindromic_q, parse_machine, to_invariant
)
from .ring import LaurentQP

CORPUS_RESOURCE = "lg_table.txt"


class CorpusFormatError(ValueError):
    pass


# name: str, components: int, amphichiral: bool, braid: BraidWord | None,
# compact: CompactForm; a namedtuple, since dataclasses imports inspect
CorpusEntry = namedtuple("CorpusEntry", "name components amphichiral braid compact")


def _parse_header(line: str) -> tuple[str, int, bool, BraidWord | None]:
    fields = [f.strip() for f in line.split(";")]
    if len(fields) not in (3, 4):
        raise CorpusFormatError(f"bad header {line!r}")
    name = fields[0]
    if not re.fullmatch("[0-9]+", fields[1]):  # int() would also take "+1_0" and "١"
        raise CorpusFormatError(f"bad component count in {line!r}")
    components = int(fields[1])
    if fields[2] not in ("amphichiral", "chiral"):
        raise CorpusFormatError(f"bad chirality flag in {line!r}")
    braid: BraidWord | None = None
    if len(fields) == 4:
        if not fields[3].startswith("braid="):
            raise CorpusFormatError(f"bad braid field in {line!r}")
        braid = parse_braid(fields[3][len("braid="):])
    return name, components, fields[2] == "amphichiral", braid


def parse_corpus(text: str) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    header: tuple[str, int, bool, BraidWord | None] | None = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line)
            continue
        name, components, amphi, braid = header
        record_name, compact = parse_machine(line)
        if record_name is not None:
            raise CorpusFormatError(
                f"line {lineno}: record carries a second name {record_name!r}"
            )
        entries.append(CorpusEntry(name, components, amphi, braid, compact))
        header = None
    if header is not None:
        raise CorpusFormatError(f"entry {header[0]!r} has no polynomial record")
    seen: set[str] = set()
    for e in entries:
        if e.name in seen:
            raise CorpusFormatError(f"duplicate entry {e.name!r}")
        seen.add(e.name)
    return entries


def load_corpus() -> list[CorpusEntry]:
    """The corpus, read and parsed afresh on each call."""
    text = resources.files("linksgould").joinpath("data", CORPUS_RESOURCE).read_text()
    return parse_corpus(text)


def validate_entry(entry: CorpusEntry) -> list[str]:
    """Internal-consistency problems of a stored entry (empty = fine).
    The value must pass to_invariant's structural checks (q/P exponent
    parity among them), as an evaluated one must.  LG(q = 1) must be the
    square of an integer Laurent polynomial in P^(1/2) (a link's Delta has
    half-integer exponents in P), and that root, Delta, is +-1 at P = 1
    for a knot and 0 for a link."""
    problems = []
    poly = from_compact(entry.compact)
    try:
        to_invariant(LaurentQP({(2 * eq, 2 * eP): c for (eq, eP), c in poly.items()}))
    except StructureError as exc:
        problems.append(str(exc))
    if entry.amphichiral != is_palindromic_q(poly):
        problems.append("amphichirality flag disagrees with q-palindromicity")
    # in P^(1/2), whose exponents are twice those of P
    root = square_root({2 * k: c for k, c in at_q_one(poly).items()})
    if root is None:
        problems.append("LG(q = 1) is not the square of an integer Laurent polynomial")
    elif abs(sum(root.values())) != (1 if entry.components == 1 else 0):
        problems.append(
            f"the root of LG(q = 1) is {sum(root.values())} at P = 1 for"
            f" {entry.components} components"
        )
    if entry.braid is not None:
        got = components(entry.braid)
        if got != entry.components:
            problems.append(
                f"braid closure has {got} components, flag says {entry.components}"
            )
    return problems
