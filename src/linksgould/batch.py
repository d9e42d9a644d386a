"""``lgpoly batch``: evaluate a file of named words, one machine-format
record per line in input order.

``--jobs N`` runs at most N processes: the parent and the children it
forks.  They claim chunks of consecutive records from one queue, a pipe
that the parent fills before it forks with min(records, 1024) 4-byte
chunk numbers (one page, which a fresh pipe always holds).  The claims go
in input order, so the run ends at most one chunk's time (one record's,
up to 1024 records) after an ideal split.  Right after the fork each
process moves itself to its own allowed CPU and allows them all again
(``_spread``): the kernel leaves a forked child on its parent's CPU.  A
child writes to an unlinked temporary file of its own each claim, before
it evaluates the chunk, and then its records, each frame a marshal value
that marks its own end; the parent reads the file up to the last whole
frame once the child has ended.  So a child that dies loses only the
records it had claimed and not written, each reported with its signal or
exit status.  A refused fork or file, or no ``os.fork``, just means fewer
claimants, so ``--jobs 1`` runs the same code.  No process pool is
imported: the command starts no thread, so forking it is safe.  ``-v``
logs one line per process: the CPU it was spread to, the records it
claimed and the seconds it was busy.
"""

from __future__ import annotations

import marshal
import os
import sys
import tempfile
import time
from collections.abc import Iterator
from io import BufferedRandom
from types import SimpleNamespace

from .braid import Refusal
from .cli import _render, evaluate
from .engine import debug_logger

Task = tuple[str, str, int]  # name, word, size cap
Result = tuple[str, bool, str]  # name, whether it evaluated, record or error
_TOKEN = 4  # bytes of a chunk's number in the queue
_TOKENS = 4096 // _TOKEN  # chunks at most: the queue is written in one page


def _batch_worker(task: Task) -> Result:
    name, word, max_size = task
    if not word:
        return name, False, "no braid word after the name"
    try:
        return name, True, _render(evaluate(word, max_size=max_size), "compact-machine", name)
    except Refusal as exc:
        return name, False, str(exc)
    except Exception as exc:  # a defect: report it on this record, keep the others
        logger = debug_logger(__name__)
        if logger:
            logger.debug("batch record %r failed", name, exc_info=True)
        return name, False, f"internal error: {type(exc).__name__}: {exc}"


def run(tasks: list[Task], jobs: int) -> list[Result]:
    """Every task's result in input order, from the parent and up to
    jobs - 1 forked children claiming chunks of them from one queue."""
    queue = _queue(len(tasks))
    children: list[tuple[int, BufferedRandom]] = []  # pid, the file of its frames
    for k in range(1, min(jobs, len(tasks), _TOKENS)):
        try:
            children.append(_start(tasks, queue, k))
        except OSError as exc:  # no process or file to spare: fewer claimants
            logger = debug_logger(__name__)
            if logger:
                logger.debug("no worker %d (%s): %d process(es) claim the records", k, exc, k)
            break
    results: list[Result | None] = [None] * len(tasks)
    for chunk in _claims(tasks, queue, 0):
        for i in chunk:
            results[i] = _batch_worker(tasks[i])
    os.close(queue)
    for pid, file in children:
        _, status = os.waitpid(pid, 0)
        lost = _lost(status)
        with file:
            frames = _frames(file)
        for frame in frames:
            if len(frame) == 2:  # a claim, (start, stop): lost until the records come
                for i in range(*frame):
                    results[i] = (tasks[i][0], False, lost)
            else:
                i, ok, payload = frame
                results[i] = (tasks[i][0], ok, payload)
    for i, result in enumerate(results):
        if result is None:  # its token was read by a child that died before announcing it
            results[i] = _batch_worker(tasks[i])
    return results


def _queue(records: int) -> int:
    """The read end of a pipe that holds the number of each of the
    min(records, 1024) chunks, in order, and then ends."""
    queue, fill = os.pipe()
    os.write(fill, b"".join(t.to_bytes(_TOKEN, "little") for t in range(min(records, _TOKENS))))
    os.close(fill)
    return queue


def _claims(tasks: list[Task], queue: int, k: int) -> Iterator[range]:
    """The chunks of tasks that process k (0 for the parent) claims from
    the queue, after it has spread itself (_spread), until the queue is
    empty; then -v logs what it did."""
    cpu = _spread(k)
    start = time.perf_counter()
    chunks = min(len(tasks), _TOKENS)
    claimed = 0
    while token := os.read(queue, _TOKEN):
        t = int.from_bytes(token, "little")
        chunk = range(t * len(tasks) // chunks, (t + 1) * len(tasks) // chunks)
        claimed += len(chunk)
        yield chunk
    logger = debug_logger(__name__)
    if logger:
        logger.debug(
            "process %d, spread to CPU %s: claimed %d records, busy %.3fs",
            k, "-" if cpu is None else cpu, claimed, time.perf_counter() - start,
        )


def _spread(k: int) -> int | None:
    """Move this process to CPU k mod n of its n allowed ones (sorted), and
    allow them all again at once: the kernel then starts the processes of
    a run apart but can still rebalance them.  Returns that CPU, or None
    where there is one CPU or no os.sched_setaffinity (or it is refused)."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        return None
    cpu = allowed[k % len(allowed)]
    try:
        os.sched_setaffinity(0, (cpu,))
        os.sched_setaffinity(0, allowed)
    except OSError:  # a sandbox that refuses it, or a CPU set changed meanwhile
        return None
    return cpu


def _start(tasks: list[Task], queue: int, k: int) -> tuple[int, BufferedRandom]:
    """Fork child k, which claims chunks from the queue and, in an unlinked
    temporary file of its own, announces each claim before it evaluates
    the chunk and writes each record; returns the child's pid and that
    file, or raises OSError with no process, file or os.fork to spare."""
    if not hasattr(os, "fork"):
        raise OSError("no os.fork on this platform")
    out = tempfile.TemporaryFile()
    try:
        pid = os.fork()
    except OSError:
        out.close()
        raise
    if pid:
        return pid, out
    code = 1
    try:
        with out:  # whose close writes every finished record, also when the child raises
            for chunk in _claims(tasks, queue, k):
                _send(out, (chunk.start, chunk.stop))
                out.flush()  # with the records of the chunk before
                for i in chunk:
                    _send(out, (i, *_batch_worker(tasks[i])[1:]))
        code = 0
    finally:
        _exit_child(code)


def _send(out: BufferedRandom, frame: tuple) -> None:
    marshal.dump(frame, out)  # a marshal value marks its own end


def _exit_child(code: int) -> None:
    """End a forked child with no interpreter shutdown, which would run the
    parent's exit handlers and flush the child's copies of the parent's
    buffers.

    The call of multiprocessing.util's private _run_finalizers is there
    only for lgbench/tracer.py, which saves a forked worker's spans from a
    multiprocessing.util.Finalize it registers in the worker, as a
    multiprocessing worker would run it.  A finalizer runs only in the
    process that registered it, so the parent's are skipped.  Nothing else
    in the program registers one, and the call goes once the tracer saves
    its spans another way."""
    util = sys.modules.get("multiprocessing.util")
    if util is not None:
        util._run_finalizers(0)
    os._exit(code)


def _frames(file: BufferedRandom) -> list[tuple]:
    """The claims and records a child sent to its file, up to the last
    whole one: a child killed while writing leaves a partial frame, which
    marshal.load refuses."""
    file.seek(0)
    out = []
    while True:
        try:
            out.append(marshal.load(file))
        except (EOFError, ValueError):
            return out


def _lost(status: int) -> str:
    """Why a record whose child ended before sending it has no result."""
    code = os.waitstatus_to_exitcode(status)
    if code >= 0:
        return f"its worker exited with status {code} before sending it"
    import signal

    try:
        name = signal.Signals(-code).name
    except ValueError:
        name = f"signal {-code}"
    return f"its worker was killed by {name} before sending it"


def cmd_batch(args: SimpleNamespace) -> int:
    tasks: list[Task] = []
    try:
        # utf-8-sig: a leading byte-order mark is not part of the first name
        with open(args.file, encoding="utf-8-sig") as fh:
            for raw_line in fh:
                line = raw_line.strip()
                if not line or line.startswith("#"):
                    continue
                name, *word = line.split(maxsplit=1)
                tasks.append((name, "".join(word), args.max_size))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 1
    failed = 0
    for name, ok, payload in run(tasks, args.jobs):
        if ok:
            print(payload)
        else:
            failed += 1
            print(f"error: {name}: {payload}", file=sys.stderr)
    return 1 if failed else 0
