"""Embedded regression corpus: exact reference polynomials keyed by
knot/link name, with braid words attached where the closure is standard or
was verified against the stored value.

The corpus ships as ``data/lg_table.txt``; each entry is a header line
``name; components; amphichiral|chiral[; braid=<word>]`` followed by one
machine-format polynomial record.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from importlib import resources

import linksgould

from .braid import BraidWord, closure_info, parse as parse_braid
from .engine import DEFAULT_SIZE_CAP
from .invariant import (
    CompactForm,
    from_compact,
    is_palindromic_q,
    parse_machine,
    render_machine,
    to_compact,
)

CORPUS_RESOURCE = "lg_table.txt"


class CorpusFormatError(ValueError):
    pass


@dataclass
class CorpusEntry:
    name: str
    components: int
    amphichiral: bool
    braid: BraidWord | None
    compact: CompactForm


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
        word = fields[3][len("braid="):]
        braid = parse_braid(word) if word else parse_braid("", 1)
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


_cache: list[CorpusEntry] | None = None


def load_corpus() -> list[CorpusEntry]:
    global _cache
    if _cache is None:
        text = (
            resources.files("linksgould").joinpath("data", CORPUS_RESOURCE).read_text()
        )
        _cache = parse_corpus(text)
    return _cache


def corpus_entry(name: str) -> CorpusEntry:
    for e in load_corpus():
        if e.name == name:
            return e
    raise KeyError(name)


def validate_entry(entry: CorpusEntry) -> list[str]:
    """Internal-consistency problems of a stored entry (empty = fine)."""
    problems = []
    poly = from_compact(entry.compact)
    if entry.amphichiral != is_palindromic_q(poly):
        problems.append("amphichirality flag disagrees with q-palindromicity")
    if entry.braid is not None:
        got = closure_info(entry.braid).components
        if got != entry.components:
            problems.append(
                f"braid closure has {got} components, flag says {entry.components}"
            )
    return problems


@dataclass
class RegressionReport:
    results: list[tuple[str, str, str]] = field(default_factory=list)
    seconds: dict[str, float] = field(default_factory=dict, init=False)  # evaluated

    def add(self, name: str, status: str, detail: str = "") -> None:
        self.results.append((name, status, detail))

    @property
    def failures(self) -> list[tuple[str, str, str]]:
        return [r for r in self.results if r[1] == "fail"]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, status, _ in self.results:
            out[status] = out.get(status, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts.get(s, 0)} {s}" for s in ("pass", "fail", "value-only")]
        lines = [", ".join(parts)]
        for name, _, detail in self.failures:
            lines.append(f"  FAIL {name}: {detail}")
        return "\n".join(lines)


def run_regression(
    entries: list[CorpusEntry] | None = None, max_size: int = DEFAULT_SIZE_CAP
) -> RegressionReport:
    """Evaluate every entry that has a braid word and compare bit-exactly
    with its stored compact form, timing each; entries without a braid are
    skipped as value-only."""
    report = RegressionReport()
    for entry in entries if entries is not None else load_corpus():
        if entry.braid is None:
            report.add(entry.name, "value-only")
            continue
        start = time.perf_counter()
        got = to_compact(linksgould.evaluate(entry.braid, max_size=max_size))
        report.seconds[entry.name] = time.perf_counter() - start
        if got == entry.compact:
            report.add(entry.name, "pass")
        else:
            report.add(
                entry.name,
                "fail",
                f"got {render_machine(got)} expected {render_machine(entry.compact)}",
            )
    return report
