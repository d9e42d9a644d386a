"""``lgpoly batch``: the parent and the forked children that claim chunks
of records from one queue, the spread of the processes over the allowed
CPUs, and what is reported when a child dies."""

import errno
import os
import random
import signal
import tempfile
from pathlib import Path

import pytest

from linksgould import batch, cli
from linksgould.braid import random_braid, render
from linksgould.cli import main
from linksgould.invariant import render_machine
from linksgould.knotdata import load_corpus
from linksgould.ring import LaurentQP

DATA = Path(__file__).resolve().parent / "data"
BATCH_WORDS = DATA / "batch_words.txt"
JOBS = ("1", "2", "3", "100000")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def names(out):
    return [record.split(";")[0] for record in out.splitlines()]


@pytest.fixture
def four_words(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("a 1 1 1\nb 1 1 1\nc 1 1 1\nd 1 1 1\n")
    return str(path)


def test_the_corpus_braids_give_their_stored_values_on_any_jobs(capsys):
    outputs = {jobs: run(capsys, "batch", str(BATCH_WORDS), "--jobs", jobs) for jobs in JOBS}
    assert all(output == outputs["1"] for output in outputs.values())
    code, out, err = outputs["1"]
    expected = {e.name: render_machine(e.compact, e.name) for e in load_corpus() if e.braid}
    assert code == 1 and len(expected) == 14
    assert out.splitlines() == [expected[name] for name in names(out)]
    assert sorted(names(out)) == sorted(expected)
    assert err == (
        "error: six_strings: tangle on 6 strings needs M^(2n) = 4^12 = 16777216 "
        "entries, over the size cap 1048576\n"
    )


def test_the_dense_words_print_the_same_on_any_jobs(capsys):
    # --jobs 3 and a count past the records are pinned on other lists
    outputs = {jobs: run(capsys, "batch", str(DATA / "dense_words.txt"), "--jobs", jobs)
               for jobs in ("1", "2")}
    assert all(output == outputs["1"] for output in outputs.values())
    code, out, err = outputs["1"]
    assert code == 0 and len(out.splitlines()) == 6 and err == ""


@pytest.fixture
def dying_child(monkeypatch):
    """plant(die, after) makes the forked child die (die() ends it) on the
    record after the first `after` it evaluates, and the parent wait, at
    its first record, until it has: so the child has claimed after + 1
    records, whichever process won which claim.  plant returns a function
    that gives the name of the record the child died on."""
    parent = os.getpid()
    exact = batch._batch_worker
    read_end, write_end = os.pipe()
    seen = []

    def plant(die, after=0):
        def worker(task):
            if os.getpid() != parent:
                seen.append(task[0])
                if len(seen) > after:
                    os.write(write_end, task[0].encode())
                    die()
            elif not seen:
                seen.append(os.read(read_end, 64).decode())
            return exact(task)

        monkeypatch.setattr(batch, "_batch_worker", worker)
        return lambda: seen[0]

    yield plant
    os.close(read_end)
    os.close(write_end)


def test_a_killed_worker_loses_only_the_records_it_had_not_sent(four_words, capsys, dying_child):
    # as the OOM killer would, on the child's second record
    died_on = dying_child(lambda: os.kill(os.getpid(), signal.SIGKILL), after=1)
    code, out, err = run(capsys, "batch", four_words, "--jobs", "2")
    assert code == 1
    assert names(out) == [name for name in "abcd" if name != died_on()]
    assert err == f"error: {died_on()}: its worker was killed by SIGKILL before sending it\n"


def test_a_worker_that_exits_early_is_reported_with_its_status(four_words, capsys, dying_child):
    died_on = dying_child(lambda: os._exit(3))
    code, out, err = run(capsys, "batch", four_words, "--jobs", "2")
    assert code == 1
    assert names(out) == [name for name in "abcd" if name != died_on()]
    assert err == f"error: {died_on()}: its worker exited with status 3 before sending it\n"


def test_records_taken_by_a_child_that_died_before_announcing_them_are_not_lost(
    four_words, capsys, monkeypatch
):
    # the child reads a token and dies before its claim reaches the pipe:
    # no process has claimed those records, so the parent evaluates them
    serial = run(capsys, "batch", four_words)
    parent = os.getpid()
    real_send = batch._send

    def dying_on_a_claim(out, frame):
        if os.getpid() != parent and len(frame) == 2:
            os._exit(3)
        real_send(out, frame)

    monkeypatch.setattr(batch, "_send", dying_on_a_claim)
    assert run(capsys, "batch", four_words, "--jobs", "2") == serial


def test_a_child_that_raises_still_delivers_the_records_it_finished(
    four_words, capsys, monkeypatch
):
    # the child raises on announcing its second claim: its first record
    # reaches the parent all the same, and no process has claimed the
    # second chunk's records, so the parent evaluates them
    serial = run(capsys, "batch", four_words)
    parent = os.getpid()
    real_send, exact = batch._send, batch._batch_worker
    read_end, write_end = os.pipe()
    claims, waited = [], []

    def interrupted_on_the_second_claim(out, frame):
        if os.getpid() != parent and len(frame) == 2:
            claims.append(frame)
            if len(claims) == 2:
                os.write(write_end, b"!")
                raise KeyboardInterrupt
        real_send(out, frame)

    def worker(task):
        if os.getpid() == parent and not waited:  # until the child has claimed twice
            waited.append(os.read(read_end, 1))
        return exact(task)

    monkeypatch.setattr(batch, "_send", interrupted_on_the_second_claim)
    monkeypatch.setattr(batch, "_batch_worker", worker)
    try:
        assert run(capsys, "batch", four_words, "--jobs", "2") == serial
    finally:
        os.close(read_end)
        os.close(write_end)


def test_no_temporary_file_for_a_child_means_no_fork(four_words, capsys, monkeypatch):
    serial = run(capsys, "batch", four_words)

    def no_file():
        raise OSError(errno.ENOSPC, "No space left on device")

    def no_fork():
        raise AssertionError("forked a child with no file to write to")

    monkeypatch.setattr(tempfile, "TemporaryFile", no_file)
    monkeypatch.setattr(os, "fork", no_fork)
    assert run(capsys, "batch", four_words, "--jobs", "3") == serial


def test_jobs_past_the_record_count_forks_one_child_per_record(tmp_path, capsys, monkeypatch):
    path = tmp_path / "words.txt"
    path.write_text("trefoil 1 1 1\nfig8 1 -2 1 -2\nhopf 1^2\n")
    serial = run(capsys, "batch", str(path))
    real_fork = os.fork
    forks = []

    def counting_fork():
        forks.append(None)
        if len(forks) > 2:  # never start many processes, whatever the code asks
            raise AssertionError(f"fork number {len(forks)}")
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert run(capsys, "batch", str(path), "--jobs", "100000") == serial
    assert len(forks) == 2  # the parent claims records too


@pytest.mark.parametrize("jobs, forks", [("1", 0), ("2", 1), ("3", 2), ("4", 3)])
def test_jobs_n_runs_n_processes(four_words, capsys, monkeypatch, jobs, forks):
    serial = run(capsys, "batch", four_words)
    real_fork = os.fork
    count = []

    def counting_fork():
        count.append(None)
        if len(count) > 3:  # never start many processes, whatever the code asks
            raise AssertionError(f"fork number {len(count)}")
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    assert run(capsys, "batch", four_words, "--jobs", jobs) == serial
    assert len(count) == forks


@pytest.mark.parametrize("jobs", ["1", "3"])
def test_one_job_or_no_fork_runs_in_process(four_words, capsys, monkeypatch, jobs):
    monkeypatch.delattr(os, "fork")  # as on a platform with no fork
    code, out, err = run(capsys, "batch", four_words, "--jobs", jobs)
    assert code == 0 and names(out) == list("abcd") and err == ""


def test_a_share_that_cannot_fork_is_evaluated_in_process(four_words, capsys, monkeypatch):
    serial = run(capsys, "batch", four_words)
    real_fork = os.fork
    forks = []

    def failing_second_fork():
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", failing_second_fork)
    assert run(capsys, "batch", four_words, "--jobs", "3") == serial
    assert len(forks) == 2  # the parent and one child claim every record


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_builds_no_eval_metadata(four_words, capsys, monkeypatch, jobs):
    def refuse(*args):
        raise AssertionError("eval-only metadata built in batch")

    for name in ("components", "writhe", "is_palindromic_q"):
        monkeypatch.setattr(cli, name, refuse)
    code, out, err = run(capsys, "batch", four_words, "--jobs", jobs)
    assert code == 0 and names(out) == list("abcd") and err == ""


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_batch_refuses_only_the_record_whose_value_breaks_the_parity(
    tmp_path, capsys, monkeypatch, jobs
):
    # q^1 P^0 breaks the q/P exponent parity of every value; the forked
    # children inherit the planted evaluate_raw
    path = tmp_path / "words.txt"
    path.write_text("a 1 1 1\nb 1 1\nc 1 -2 1 -2\n")
    real = cli.evaluate_raw

    def broken_for_b(braid, **kwargs):
        return LaurentQP({(2, 0): 1}) if render(braid) == "1^2" else real(braid, **kwargs)

    monkeypatch.setattr(cli, "evaluate_raw", broken_for_b)
    code, out, err = run(capsys, "batch", str(path), "--jobs", jobs)
    assert code == 1 and names(out) == ["a", "c"]
    assert err == "error: b: q- and P-exponents of different parity at q^1 P^0\n"


def test_more_records_than_chunks_print_the_same_on_any_jobs(tmp_path, capsys, monkeypatch):
    # 2,100 small seeded words, more than the queue's 1,024 chunks, with a
    # refused line every 500
    rng = random.Random(24)
    path = tmp_path / "many.txt"
    path.write_text("".join(
        f"w{k} {'1 ?' if k % 500 == 7 else render(random_braid(rng, 4, 6)) or '1'}\n"
        for k in range(2100)
    ))
    real_fork = os.fork
    forks = []

    def at_most_three_forks():
        forks.append(None)
        if len(forks) > 3:  # a system with no process to spare, for --jobs 100000
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", at_most_three_forks)
    outputs = {}
    for jobs in JOBS:
        forks.clear()
        outputs[jobs] = run(capsys, "batch", str(path), "--jobs", jobs)
    assert all(output == outputs["1"] for output in outputs.values())
    code, out, err = outputs["1"]
    assert code == 1
    assert names(out) == [f"w{k}" for k in range(2100) if k % 500 != 7]
    assert err.count("\n") == 5


@pytest.mark.parametrize("records", [1, 3, 1024, 1025, 2500])
def test_the_chunks_are_the_records_in_input_order_once_each(records):
    tasks = [(f"r{k}", "1", 0) for k in range(records)]
    queue = batch._queue(records)
    try:
        chunks = list(batch._claims(tasks, queue, 0))
    finally:
        os.close(queue)
    assert len(chunks) == min(records, 1024)
    assert [i for chunk in chunks for i in chunk] == list(range(records))
    assert {len(chunk) for chunk in chunks} <= {records // 1024, -(-records // 1024), 1}


@pytest.mark.parametrize("k, cpu", [(0, 2), (1, 5), (2, 9), (4, 5)])
def test_each_process_asks_for_cpu_k_mod_n_then_for_every_allowed_cpu(monkeypatch, k, cpu):
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {9, 2, 5}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append((pid, set(cpus))),
                        raising=False)
    assert batch._spread(k) == cpu
    assert calls == [(0, {cpu}), (0, {2, 5, 9})]


def test_the_spread_does_nothing_with_one_cpu_or_no_sched_setaffinity(monkeypatch):
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(cpus),
                        raising=False)
    assert batch._spread(1) is None and calls == []
    monkeypatch.delattr(os, "sched_setaffinity")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert batch._spread(1) is None and calls == []
