"""``lgpoly batch``: evaluate a file of named words, one machine-format
record per line in input order.

With ``--jobs N`` above 1 the records are split into min(N, records)
shares of near-equal modelled cost (``engine.modelled_cost``, the cost
``plan`` gives each reduced word), and a forked child evaluates each
share, sending every record back over a pipe as soon as it has it.  The
parent works out each record's cost before the first fork, and a child
parses, reduces and plans the word again as it evaluates it.  That serial
work is about 3 % of the records' evaluation; in return the largest of two
shares of the benchmark's batch words takes within 1.5 % of the mean
share's CPU time, where a strided split leaves it 9 % over in the median
and up to 44 %.  The parent otherwise only collects the records and
prints them.  A child that dies loses only the records it had not sent:
each of those is reported as an error naming the signal or exit status,
and the others are kept.  With one share, or where there is no
``os.fork``, the same records are evaluated in process.  No process pool
is imported: the command starts no thread, so forking it is safe.
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
from .cli import EVAL_ERRORS, _evaluate, _render
from .engine import debug_logger, modelled_cost

Task = tuple[str, str, int]  # name, word, size cap
Result = tuple[str, bool, str]  # name, whether it evaluated, record or error
_FRAME = 4  # bytes of the length before each record a child sends


def _batch_worker(task: Task) -> Result:
    name, word, max_size = task
    if not word:
        return name, False, "no braid word after the name"
    try:
        braid, poly, _ = _evaluate(word, None, max_size)
        return name, True, _render(braid, poly, "compact-machine", name)
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
    """Every task's result in input order, evaluated on min(jobs, tasks)
    forked children, or in process for one share or with no os.fork."""
    shares = min(jobs, len(tasks))
    if shares <= 1 or not hasattr(os, "fork"):
        return [_batch_worker(t) for t in tasks]
    results: list[Result | None] = [None] * len(tasks)
    children: dict[int, tuple[int, list[int]]] = {}  # read end: pid, share
    unforked: list[int] = []
    costs = [_cost(t) for t in tasks]
    # the children's collections then neither scan nor copy the parent's objects
    gc.freeze()
    try:
        for share in split(costs, shares):
            try:
                pid, read_end = _start(tasks, share, list(children))
            except OSError as exc:  # no process or pipe to spare: do it here
                logger = debug_logger(__name__)
                if logger:
                    logger.debug(
                        "no worker for %d records (%s): run in process", len(share), exc
                    )
                unforked += share
            else:
                children[read_end] = (pid, share)
    finally:
        gc.unfreeze()
    for i in unforked:
        results[i] = _batch_worker(tasks[i])
    for read_end, data in _drain(list(children)).items():
        pid, share = children[read_end]
        for i, ok, payload in _records(data):
            results[i] = (tasks[i][0], ok, payload)
        _, status = os.waitpid(pid, 0)
        for i in share:
            if results[i] is None:
                results[i] = (tasks[i][0], False, _lost(status))
    return results


def _start(tasks: list[Task], share: list[int], inherited: list[int]) -> tuple[int, int]:
    """Fork a child that evaluates the share and writes each result to a
    pipe as it has it; returns the child's pid and the pipe's read end.
    inherited are the read ends of earlier children, which this child
    closes."""
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


def _drain(fds: list[int]) -> dict[int, bytes]:
    """Everything written to each pipe until its last writer closed it,
    read from all pipes as it arrives so that no child waits on a full
    pipe."""
    data = {fd: bytearray() for fd in fds}
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    open_fds = len(fds)
    while open_fds:
        for fd, _ in poller.poll():
            chunk = os.read(fd, 1 << 16)
            if chunk:
                data[fd] += chunk
            else:
                poller.unregister(fd)
                os.close(fd)
                open_fds -= 1
    return {fd: bytes(buf) for fd, buf in data.items()}


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
        with open(args.file, encoding="utf-8") as fh:
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
