"""Run ``linksgould.cli.main`` with spans around each layer boundary.

Usage: ``python3 lgbench/tracer.py OUT.json <lgpoly arguments>``

The wrappers replace the names as the calling modules bind them
(``cli.parse``, ``engine.accrete``, ...), so the program runs unchanged
while every call across a layer boundary records a span: name, start, end
and the index of the enclosing span.  The ring type's ``__mul__`` and
``__add__`` are only counted, because they run millions of times.  Spans
and counts stay in memory and are written to OUT.json when the process
ends; ``batch --jobs`` workers (forked, so they inherit the wrappers) write
theirs to OUT.json.<pid> at exit and the parent merges them.

A wrapped name that no longer exists is listed under ``missing`` by its
span name (``ring`` for the ring type) instead of being counted as zero.
"""

from __future__ import annotations

import glob
import json
import os
import sys
import time
from collections import Counter

import linksgould.cli as cli
import linksgould.engine as engine

# (module, attribute, span name, per-result counter or None)
SPANNED = [
    (cli, "parse", "braid.parse", "braid"),
    (cli, "evaluate_raw", "engine.evaluate", None),
    (engine, "generator_power", "statemodel.power", None),
    (engine, "accrete", "engine.accrete", "entries"),
    (engine, "close", "engine.close", None),
    (engine, "extract_scalar", "engine.extract", None),
    (cli, "to_invariant", "invariant.convert", "terms"),
    (cli, "to_compact", "invariant.compact", None),
]

spans: list[list] = []  # [name, start, end, parent index]
counts: Counter = Counter()
stack: list[int] = []
missing: list[str] = []
_main_pid = os.getpid()
_worker_dump_registered = False


def _count_result(kind: str, result) -> None:
    if kind == "braid":
        counts["braid.letters"] += sum(abs(e) for _, e in result.letters)
    elif kind == "entries":
        size = len(result.entries)
        counts["engine.entries_sum"] += size
        counts["engine.peak_entries"] = max(counts["engine.peak_entries"], size)
    elif kind == "terms":
        counts["invariant.terms"] += len(result)


def _spanned(name: str, fn, kind: str | None):
    def wrapper(*args, **kwargs):
        _register_worker_dump()
        idx = len(spans)
        spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1])
        stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            stack.pop()
            spans[idx][2] = time.perf_counter()
        if kind is not None:
            _count_result(kind, result)
        return result

    return wrapper


def _term_count(x) -> int:
    if hasattr(x, "terms"):
        return len(x.terms)
    return len(x.a.terms) + len(x.b.terms)


def _wrap_ring() -> None:
    ring_type = type(getattr(engine, "ONE", None))
    mul = getattr(ring_type, "__mul__", None)
    add = getattr(ring_type, "__add__", None)
    if getattr(engine, "ONE", None) is None or mul is None or add is None:
        missing.append("ring")
        return
    try:
        _term_count(engine.ONE)
        count_terms = True
    except AttributeError:
        missing.append("ring.terms")
        count_terms = False

    def traced_mul(self, other):
        result = mul(self, other)
        counts["ring.mul_calls"] += 1
        if count_terms:
            counts["ring.mul_terms"] += _term_count(result)
        return result

    def traced_add(self, other):
        counts["ring.add_calls"] += 1
        return add(self, other)

    ring_type.__mul__ = traced_mul
    ring_type.__add__ = traced_add


def install() -> None:
    for module, attr, name, kind in SPANNED:
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(name)
            continue
        setattr(module, attr, _spanned(name, fn, kind))
    _wrap_ring()


def _dump(path: str) -> None:
    with open(path, "w") as fh:
        json.dump({"spans": spans, "counts": counts, "missing": missing}, fh)


def _register_worker_dump() -> None:
    global _worker_dump_registered
    if _worker_dump_registered or os.getpid() == _main_pid:
        return
    import multiprocessing.util

    _worker_dump_registered = True
    # a forked worker starts with a copy of the parent's spans; keep only its own
    spans.clear()
    stack.clear()
    counts.clear()
    out = f"{sys.argv[1]}.{os.getpid()}"
    multiprocessing.util.Finalize(None, _dump, args=(out,), exitpriority=100)


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    install()
    start = time.perf_counter()
    spans.append(["cli.main", start, 0.0, -1])
    stack.append(0)
    try:
        code = cli.main(argv)
    finally:
        stack.pop()
        spans[0][2] = time.perf_counter()
        sys.stdout.flush()
    workers = []
    for path in sorted(glob.glob(f"{glob.escape(out)}.*")):
        with open(path) as fh:
            workers.append(json.load(fh))
        os.remove(path)
    for doc in workers:
        offset = len(spans)
        for name, t0, t1, parent in doc["spans"]:
            spans.append([name, t0, t1, parent + offset if parent >= 0 else -1])
        for key, value in doc["counts"].items():
            if key == "engine.peak_entries":
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value
    _dump(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
