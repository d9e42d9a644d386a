"""``lgpoly batch``: evaluate a file of named words, one machine-format
record per line in input order.

``--jobs N`` runs at most N processes.  The records are split into
min(N, records) shares of near-equal modelled cost (``engine.modelled_cost``),
costed only when there are two shares or more: the pass is about 3 % of
the records' evaluation, and keeps the larger of two shares of the
benchmark's batch words within 1.5 % of the mean share's CPU time (a
strided split: 9 % over in the median, up to 44 %).  The parent forks a
child for each share but the first, evaluates the first itself, and
between its own records reads the pipes on which each child sends every
record as soon as it has it.  A child that dies loses only the records
it had not sent, each reported as an error naming the signal or exit
status.  A share with no child (a failed fork, or no ``os.fork``) is the
parent's too, so ``--jobs 1`` runs the same code.  No process pool is
imported: the command starts no thread, so forking it is safe.
"""

from __future__ import annotations

import argparse
import gc
import heapq
import marshal
import os
import select
import sys

from .braid import parse
from .cli import EVAL_ERRORS, _render, evaluate
from .engine import debug_logger, modelled_cost

Task = tuple[str, str, int]  # name, word, size cap
Result = tuple[str, bool, str]  # name, whether it evaluated, record or error
_FRAME = 4  # bytes of the length before each record a child sends


def _batch_worker(task: Task) -> Result:
    name, word, max_size = task
    if not word:
        return name, False, "no braid word after the name"
    try:
        return name, True, _render(evaluate(word, max_size=max_size), "compact-machine", name)
    except EVAL_ERRORS as exc:
        return name, False, str(exc)
    except Exception as exc:  # a defect: report it on this record, keep the others
        logger = debug_logger(__name__)
        if logger:
            logger.debug("batch record %r failed", name, exc_info=True)
        return name, False, f"internal error: {type(exc).__name__}: {exc}"


def _cost(task: Task) -> int:
    """The modelled cost of a record, at least 1 so that cheap records
    spread over the shares too.  A word that fails before it is planned
    costs next to nothing, and its worker reports why."""
    _, word, max_size = task
    try:
        return 1 + modelled_cost(parse(word), max_size)
    except Exception:  # reported on the record by _batch_worker, not here
        return 1


def split(costs: list[int], shares: int) -> list[list[int]]:
    """The record indices in the given number of shares of near-equal total
    cost: the costliest record first, each onto the share with the least
    cost so far (ties to the earlier record and the lower share), each
    share in input order.  With positive costs no share is empty when
    there are at least as many records as shares."""
    loads = [(0, k) for k in range(shares)]
    out: list[list[int]] = [[] for _ in range(shares)]
    for i in sorted(range(len(costs)), key=costs.__getitem__, reverse=True):
        load, k = loads[0]
        out[k].append(i)
        heapq.heapreplace(loads, (load + costs[i], k))
    return [sorted(share) for share in out]


def run(tasks: list[Task], jobs: int) -> list[Result]:
    """Every task's result in input order, from min(jobs, tasks) shares:
    the parent evaluates the first and any share it cannot fork a child
    for, and a forked child each of the others."""
    shares = min(jobs, len(tasks))
    own, *others = split([_cost(t) for t in tasks], shares) if shares > 1 else [range(len(tasks))]
    children: dict[int, tuple[int, list[int], bytearray]] = {}  # read end: pid, share, data
    # the children's collections then neither scan nor copy the parent's objects
    gc.freeze()
    try:
        for share in others:
            try:
                pid, read_end = _start(tasks, share, list(children))
            except OSError as exc:  # no process or pipe to spare: the parent does it
                logger = debug_logger(__name__)
                if logger:
                    logger.debug("no worker for %d records (%s): run in process", len(share), exc)
                own = [*own, *share]
            else:
                children[read_end] = (pid, share, bytearray())
    finally:
        gc.unfreeze()
    poller = select.poll() if children else None  # Windows has neither fork nor poll
    for fd in children:
        poller.register(fd, select.POLLIN)
    results: list[Result | None] = [None] * len(tasks)
    open_pipes = len(children)
    for i in own:
        results[i] = _batch_worker(tasks[i])
        if open_pipes:
            open_pipes -= _receive(poller, children, 0)
    while open_pipes:
        open_pipes -= _receive(poller, children, None)
    for pid, share, data in children.values():
        for i, ok, payload in _records(data):
            results[i] = (tasks[i][0], ok, payload)
        _, status = os.waitpid(pid, 0)
        for i in share:
            if results[i] is None:
                results[i] = (tasks[i][0], False, _lost(status))
    return results


def _start(tasks: list[Task], share: list[int], inherited: list[int]) -> tuple[int, int]:
    """Fork a child that evaluates the share and writes each result to a
    pipe as it has it; returns the child's pid and the pipe's read end,
    or raises OSError with no process, pipe or os.fork to spare.
    inherited are the read ends of earlier children, which this child
    closes."""
    if not hasattr(os, "fork"):
        raise OSError("no os.fork on this platform")
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return pid, read_end
    code = 1
    try:
        for fd in (read_end, *inherited):
            os.close(fd)
        with open(write_end, "wb") as out:
            for i in share:
                data = marshal.dumps((i, *_batch_worker(tasks[i])[1:]))
                out.write(len(data).to_bytes(_FRAME, "little") + data)
                out.flush()
        code = 0
    finally:
        _exit_child(code)


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


def _receive(poller: select.poll, children: dict, timeout: int | None) -> int:
    """Append what has arrived on the children's pipes to their data,
    waiting up to timeout ms (None: as long as it takes) for a pipe to be
    ready; returns how many pipes it found closed by their writer, which
    it closes too."""
    closed = 0
    for fd, _ in poller.poll(timeout):
        chunk = os.read(fd, 1 << 16)
        children[fd][2].extend(chunk)
        if not chunk:
            poller.unregister(fd)
            os.close(fd)
            closed += 1
    return closed


def _records(data: bytes) -> list[tuple[int, bool, str]]:
    """The (index, ok, payload) records a child sent, up to the last whole
    one: a child killed while writing leaves a partial record."""
    out = []
    pos = 0
    while pos + _FRAME <= len(data):
        end = pos + _FRAME + int.from_bytes(data[pos : pos + _FRAME], "little")
        if end > len(data):
            break
        out.append(marshal.loads(data[pos + _FRAME : end]))
        pos = end
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


def cmd_batch(args: argparse.Namespace) -> int:
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
