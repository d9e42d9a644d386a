"""Benchmark for linksgould: exact Links-Gould evaluation through the CLI.

Usage (from the repository root)::

    python3 lgbench/run.py --workload wide5|twist|batch --seed N \
        --seconds S --trace 0|1

Workloads (closed loop, one client):

* ``wide5``  - Markov-moved corpus braids on 5 strings, one
  ``python -m linksgould eval`` process per word.  Sparse accretion and
  ring products take nearly all the time.
* ``twist``  - torus links T(2, e) and T(2, -e) for e = 48, 56, 64, one
  ``eval`` process per word, so every word builds the power R^e from a
  cold cache.  Building R^e takes nearly all the time.
* ``batch``  - 96 Markov-moved corpus braids on 2-4 strings in one
  ``python -m linksgould batch --jobs 2`` call.  Words are small, so a
  fixed cost per word or per call shows, and both pool workers must stay
  busy.

A round evaluates the run's word list once.  The run repeats rounds until
``--seconds`` have passed (always at least one).  Every output is checked:
Markov-moved words against their stored corpus record, torus words
against the cubic-relation recurrence, which is itself checked against
the six corpus torus entries first.  A wrong, failed, timed-out or
missing record makes the run print ``"correct": false`` and exit 1.

Times are reported in reference units (``ref``): measured seconds divided
by the mean time of a fixed computation, a sparse Laurent-polynomial
product like the program's own, timed on each CPU the measured process
can use just before and just after it.  The shared VM this was built on
changed speed by up to 70 % over minutes while evaluating the same words;
in reference units the run-to-run spread of the one-client workloads
fell from about 0.10 to 0.07.  One ``ref`` is about 20 ms on that VM when
idle.  The raw seconds are kept in the run record.  wide5 and twist run
on one CPU, the reference with them, so that it sees the same contention.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds under ``tracer.py`` and prints the per-layer
split (in seconds and counts) and the tracing overhead.  Each run's words,
expected records, outputs and metrics are stored in ``lgbench/runs/`` so
that it can be replayed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import words

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / "runs"
SETUP_SAMPLES = 7
# A run must end within 180 s: children get what is left of this budget.
RUN_BUDGET_S = 160.0
EVAL_DEADLINE_S = 60.0
BATCH_DEADLINE_S = 120.0
BATCH_JOBS = 2
TRACE_PAIRS = 2
REF_SAMPLES = 4

SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import linksgould.cli; "
    "t1 = time.perf_counter(); from linksgould.knotdata import load_corpus; "
    "load_corpus(); t2 = time.perf_counter(); print(t1 - t0, t2 - t1)"
)


@dataclass
class Outcome:
    """One word's result in one round."""

    word: words.Word
    ok: bool
    detail: str


@dataclass
class Sample:
    """One measured process: wall and child CPU seconds, and the reference
    time around it."""

    wall_s: float
    cpu_s: float
    ref_s: float


@dataclass
class Round:
    outcomes: list[Outcome] = field(default_factory=list)
    samples: dict[str, Sample] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.samples.values())

    @property
    def cpu_s(self) -> float:
        return sum(s.cpu_s for s in self.samples.values())


# The reference computation: the sparse product at the heart of the
# program's ring arithmetic, on fixed 60-term operands.
_REF_A = {(i, i % 7): (i * 37) % 101 - 50 for i in range(60)}
_REF_B = {(i % 13, i): (i * 53) % 97 - 48 for i in range(60)}


def reference_time() -> float:
    """Mean time of the reference over REF_SAMPLES runs on each CPU this
    process may use, so that it sees every CPU the measured work ran on."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            for _ in range(REF_SAMPLES):
                t0 = time.perf_counter()
                _reference()
                times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)


def _reference() -> None:
    for _ in range(12):
        out: dict[tuple[int, int], int] = {}
        for (e1, p1), c1 in _REF_A.items():
            for (e2, p2), c2 in _REF_B.items():
                key = (e1 + e2, p1 + p2)
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                elif key in out:
                    del out[key]


class Runner:
    def __init__(self, workload: str, start: float):
        self.workload = workload
        self.start = start
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("PYTHONSTARTUP", None)
        RUNS.mkdir(exist_ok=True)
        if workload != "batch":
            # one client: keep it, its children and the reference on one CPU
            os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def call(self, argv: list[str], deadline: float) -> tuple[int | None, str, str]:
        """Run a child to completion or to its deadline; returns (exit code
        or None on timeout, stdout, stderr).  The child gets its own process
        group so that a timeout also stops any pool workers it started."""
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=self.env, text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, min(deadline, self.remaining())))
            return proc.returncode, out, err
        except subprocess.TimeoutExpired:
            _kill_group(proc)
            out, err = proc.communicate()
            return None, out, err
        finally:
            if proc.poll() is None:
                _kill_group(proc)

    def program(self, trace_out: Path | None) -> list[str]:
        if trace_out is None:
            return ["-m", "linksgould"]
        return [str(HERE / "tracer.py"), str(trace_out)]

    def round(self, word_list: list[words.Word], trace_out: Path | None = None) -> Round:
        result = Round()
        if self.workload == "batch":
            outcomes, result.samples["batch"] = _timed(
                lambda: self._batch(word_list, trace_out))
            result.outcomes += outcomes
        else:
            for w in word_list:
                outcome, result.samples[w.name] = _timed(lambda: self._eval(w, trace_out))
                result.outcomes.append(outcome)
        return result

    def _eval(self, word: words.Word, trace_out: Path | None) -> Outcome:
        out_path = None if trace_out is None else trace_out.with_name(
            f"{trace_out.stem}-{word.name}.json")
        # "--" keeps a word such as "-1^48" from being read as an option
        argv = self.program(out_path) + [
            "eval", "--strings", str(word.strings), "--format", "compact-machine",
            "--", word.text,
        ]
        code, out, err = self.call(argv, EVAL_DEADLINE_S)
        if code is None:
            return Outcome(word, False, "timed out")
        if code != 0:
            return Outcome(word, False, f"exit {code}: {err.strip()[-300:]}")
        return Outcome(word, *check_record(out.strip(), word.expected))

    def _batch(self, word_list: list[words.Word], trace_out: Path | None) -> list[Outcome]:
        batch_file = RUNS / f"{self.workload}-batch-{os.getpid()}.txt"
        batch_file.write_text("".join(f"{w.name} {w.text}\n" for w in word_list))
        argv = self.program(trace_out) + [
            "batch", str(batch_file), "--jobs", str(BATCH_JOBS)]
        code, out, err = self.call(argv, BATCH_DEADLINE_S)
        batch_file.unlink()
        records = {}
        for line in out.splitlines():
            name, _, record = line.partition(";")
            records[name.strip()] = record.strip()
        why = "timed out" if code is None else f"exit {code}: {err.strip()[-300:]}"
        outcomes = []
        for w in word_list:
            if w.name in records:
                outcomes.append(Outcome(w, *check_record(records[w.name], w.expected)))
            else:
                outcomes.append(Outcome(w, False, f"no record ({why})"))
        return outcomes


def _timed(fn):
    """Call fn and return its result with a Sample of the child processes
    it ran; the reference is timed before and after and averaged."""
    ref0 = reference_time()
    cpu0 = _children_cpu()
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    cpu = _children_cpu() - cpu0
    return result, Sample(wall, cpu, (ref0 + reference_time()) / 2)


def _kill_group(proc: subprocess.Popen) -> None:
    """Kill the child's process group, reap the child, and wait (up to 10 s)
    until the group's other members, such as pool workers, are gone too."""
    os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    for _ in range(200):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def check_record(record: str, expected: words.Compact) -> tuple[bool, str]:
    try:
        got = words.parse_record(record)
    except ValueError as exc:
        return False, f"unparsable output {record[:200]!r}: {exc}"
    if got != expected:
        return False, f"got {record[:200]} expected {words.render_record(expected)[:200]}"
    return True, record


def measure_setup(runner: Runner) -> tuple[list[float], list[float], list[float], int]:
    """Fresh interpreters importing linksgould.cli and loading the corpus.
    Returns outer walls, import times, corpus-load times and failures."""
    walls, imports, loads, failures = [], [], [], 0
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        code, out, _ = runner.call(["-c", SETUP_CODE], 30.0)
        walls.append(time.perf_counter() - t0)
        if code != 0:
            failures += 1
            continue
        imp, load = map(float, out.split())
        imports.append(imp)
        loads.append(load)
    return walls, imports, loads, failures


# Per-layer metrics from tracer.py spans: summed self times, span counts,
# and the tracer's counters.  Each names the spans (or "ring") it needs; a
# metric whose source the tracer could not wrap is reported as null.
SELF_TIMES = {
    "braid.parse_s": ("braid.parse",),
    "statemodel.power_s": ("statemodel.power",),
    "engine.accrete_s": ("engine.accrete",),
    "engine.close_s": ("engine.close",),
    "engine.extract_s": ("engine.extract",),
    "engine.self_s": ("engine.evaluate", "engine.accrete", "engine.close", "engine.extract"),
    "invariant.convert_s": ("invariant.convert", "invariant.compact"),
    "cli.self_s": ("cli.main",),
}
SPAN_CALLS = {
    "statemodel.power_calls": "statemodel.power",
    "engine.accrete_calls": "engine.accrete",
}
COUNTERS = {
    "braid.letters": "braid.parse",
    "engine.entries_sum": "engine.accrete",
    "engine.peak_entries": "engine.accrete",
    "invariant.terms": "invariant.convert",
    "ring.mul_calls": "ring",
    "ring.add_calls": "ring",
    "ring.mul_terms": "ring.terms",
}


def layer_metrics(
    trace_files: list[Path], n_rounds: int
) -> tuple[dict[str, float | None], list[str]]:
    """Per-layer metrics for one traced round (averaged over n_rounds) from
    tracer.py outputs, and the missing sources.  A span's self time is its
    duration minus that of its child spans."""
    self_time: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    missing: set[str] = set()
    for path in trace_files:
        doc = json.loads(path.read_text())
        path.unlink()
        missing.update(doc["missing"])
        spans = doc["spans"]
        inner = [0.0] * len(spans)
        for _, t0, t1, parent in spans:
            if parent >= 0:
                inner[parent] += t1 - t0
        for (name, t0, t1, _), child in zip(spans, inner):
            self_time[name] = self_time.get(name, 0.0) + (t1 - t0 - child)
            calls[name] = calls.get(name, 0) + 1
        for key, value in doc["counts"].items():
            if key == "engine.peak_entries":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value

    metrics: dict[str, float | None] = {}
    for name, sources in SELF_TIMES.items():
        metrics[name] = sum(self_time.get(s, 0.0) for s in sources) / n_rounds
    for name, source in SPAN_CALLS.items():
        metrics[name] = calls.get(source, 0) / n_rounds
    for name, source in COUNTERS.items():
        # the peak is a maximum, every other counter a total
        scale = 1 if name == "engine.peak_entries" else n_rounds
        metrics[name] = counts.get(name, 0) / scale
    needs = {**{n: s for n, s in SELF_TIMES.items()},
             **{n: (s,) for n, s in {**SPAN_CALLS, **COUNTERS}.items()}}
    for name, sources in needs.items():
        if missing.intersection(sources):
            metrics[name] = None
    return metrics, sorted(missing)


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(words.GENERATORS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    if not (ROOT / "src" / "linksgould" / "__init__.py").is_file():
        print(f"error: no linksgould sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    corpus = words.load_corpus(ROOT)
    runner = Runner(args.workload, start)
    problems = [f"recurrence: {p}" for p in words.check_recurrence(corpus)]
    word_list = words.GENERATORS[args.workload](corpus, args.seed)

    walls, imports, loads, setup_failures = measure_setup(runner)
    if setup_failures:
        problems.append(f"setup: {setup_failures} of {SETUP_SAMPLES} probes failed")

    rounds: list[Round] = []
    traced: list[Round] = []
    missing: list[str] = []
    measure_start = time.perf_counter()
    if args.trace:
        # untraced and traced rounds alternate, so that drift in the
        # machine's speed falls on both alike
        stem = RUNS / f"trace-{args.workload}-{os.getpid()}"
        for i in range(TRACE_PAIRS):
            rounds.append(runner.round(word_list))
            traced.append(runner.round(word_list, RUNS / f"{stem.name}-r{i}.json"))
        trace_files = sorted(RUNS.glob(f"{stem.name}*.json"))
    else:
        while True:
            rounds.append(runner.round(word_list))
            if any(not o.ok for o in rounds[-1].outcomes):
                break
            if time.perf_counter() - measure_start >= args.seconds:
                break
            if rounds[-1].wall_s > runner.remaining() - 10.0:
                break

    outcomes = [o for r in rounds + traced for o in r.outcomes]
    failed = [o for o in outcomes if not o.ok]
    n_words = len(word_list)

    if args.trace:
        layer, missing = layer_metrics(trace_files, len(traced))
        untraced_wall = statistics.median(r.wall_s for r in rounds)
        traced_wall = statistics.median(r.wall_s for r in traced)
        jobs = BATCH_JOBS if args.workload == "batch" else 1
        metrics = {
            **layer,
            "knotdata.load_s": statistics.median(loads) if loads else None,
            "cli.import_s": statistics.median(imports) if imports else None,
            "cli.pool_util": sum(r.cpu_s for r in rounds)
            / (sum(r.wall_s for r in rounds) * jobs),
            "trace.wall_s": traced_wall,
            "trace.untraced_wall_s": untraced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
        }
        wanted = spec["per_layer"]
    else:
        # An item is a process the client waits for: one word for wide5 and
        # twist, the whole batch call for batch, whose records all arrive
        # when the call ends.  Each item counts with its median over the
        # run's rounds, in reference units; wall_ref and cpu_ref are the
        # sums over a round's items.
        per_item: dict[str, list[Sample]] = {}
        for r in rounds:
            for name, sample in r.samples.items():
                per_item.setdefault(name, []).append(sample)
        ref = statistics.mean(s.ref_s for v in per_item.values() for s in v)
        item_wall = [statistics.median(s.wall_s for s in v) / ref for v in per_item.values()]
        wall = sum(item_wall)
        metrics = {
            "wall_ref": wall,
            "words_per_kref": 1000 * (len(outcomes) - len(failed)) / len(rounds) / wall,
            "word_p50_ref": statistics.median(item_wall),
            "word_max_ref": max(item_wall),
            "cpu_ref": sum(statistics.median(s.cpu_s for s in v) for v in per_item.values()) / ref,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
            "setup_s": statistics.median(walls),
        }
        wanted = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in wanted}
    if set(metrics) != set(units):
        problems.append(
            f"metric names differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(units))}"
        )
    if missing:
        print(f"note: layers missing from the program, reported as null: {missing}",
              file=sys.stderr)
    for o in failed:
        print(f"FAIL {o.word.name} [{o.word.text}]: {o.detail}", file=sys.stderr)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)

    correct = not failed and not problems
    result = {
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {
            name: {"value": metrics.get(name), "unit": units[name]} for name in units
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": len(rounds),
        "traced_rounds": len(traced),
        "words_per_round": n_words,
        "fail_rate": len(failed) / len(outcomes),
        "problems": problems,
        "missing_layers": missing,
        "env": {
            "machine": platform.machine(),
            "node": platform.node(),
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "commit": commit(),
        },
        "words": [
            {"name": w.name, "text": w.text, "strings": w.strings,
             "expected": words.render_record(w.expected)}
            for w in word_list
        ],
        "outcomes": [
            {"round": i, "name": o.word.name, "ok": o.ok,
             "detail": o.detail if not o.ok else ""}
            for i, r in enumerate(rounds + traced)
            for o in r.outcomes
        ],
        "samples": [
            {"round": i, "item": name, **vars(sample)}
            for i, r in enumerate(rounds + traced)
            for name, sample in r.samples.items()
        ],
        "setup": {"walls_s": walls, "import_s": imports, "load_s": loads},
        "result": result,
    }
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
