"""``lgpoly batch``: the split into shares, the parent that evaluates
the first and the forked children that evaluate the others, and what is
reported when a child dies."""

import errno
import os
import random
import signal
from pathlib import Path

import pytest

from linksgould import batch, cli
from linksgould.braid import render
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


def test_split_puts_the_costliest_first_onto_the_lightest_share():
    assert batch.split([5, 1, 1, 1, 1, 1], 2) == [[0], [1, 2, 3, 4, 5]]
    assert batch.split([1, 1, 1, 1], 2) == [[0, 2], [1, 3]]  # ties: input order
    assert batch.split([3, 3, 2, 2, 2], 2) == [[0, 2, 4], [1, 3]]
    assert batch.split([7], 1) == [[0]]


def test_split_keeps_every_record_once_and_balances_the_shares():
    rng = random.Random(5)
    for _ in range(200):
        costs = [rng.randint(1, 1000) for _ in range(rng.randint(1, 40))]
        shares = rng.randint(1, len(costs))
        split = batch.split(costs, shares)
        assert len(split) == shares and all(split), (costs, shares)
        assert sorted(i for share in split for i in share) == list(range(len(costs)))
        assert all(share == sorted(share) for share in split)
        loads = [sum(costs[i] for i in share) for share in split]
        # the lightest share took the last record put on the heaviest one
        assert max(loads) - min(loads) <= max(costs), (costs, shares)


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
    outputs = {jobs: run(capsys, "batch", str(DATA / "dense_words.txt"), "--jobs", jobs)
               for jobs in JOBS}
    assert all(output == outputs["1"] for output in outputs.values())
    code, out, err = outputs["1"]
    assert code == 0 and len(out.splitlines()) == 6 and err == ""


def test_a_killed_worker_loses_only_the_records_it_had_not_sent(four_words, capsys, monkeypatch):
    parent = os.getpid()
    exact = batch._batch_worker

    def dying_on_d(task):
        if task[0] == "d" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)  # as the OOM killer would
        return exact(task)

    monkeypatch.setattr(batch, "_batch_worker", dying_on_d)
    # equal costs: the parent takes a then c, the child b then d
    code, out, err = run(capsys, "batch", four_words, "--jobs", "2")
    assert code == 1
    assert names(out) == ["a", "b", "c"]
    assert err == "error: d: its worker was killed by SIGKILL before sending it\n"


def test_a_worker_that_exits_early_is_reported_with_its_status(four_words, capsys, monkeypatch):
    parent = os.getpid()
    exact = batch._batch_worker

    def exiting_on_b(task):
        if task[0] == "b" and os.getpid() != parent:
            os._exit(3)
        return exact(task)

    monkeypatch.setattr(batch, "_batch_worker", exiting_on_b)
    code, out, err = run(capsys, "batch", four_words, "--jobs", "2")
    assert code == 1
    assert names(out) == ["a", "c"]
    assert err.splitlines() == [
        f"error: {name}: its worker exited with status 3 before sending it" for name in "bd"
    ]


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
    assert len(forks) == 2  # the parent evaluates the first record's share


@pytest.mark.parametrize("jobs, forks", [("1", 0), ("2", 1), ("3", 2), ("4", 3)])
def test_jobs_n_runs_n_processes(four_words, capsys, monkeypatch, jobs, forks):
    serial = run(capsys, "batch", four_words)
    real_fork, real_cost = os.fork, batch._cost
    counts = {"fork": 0, "cost": 0}

    def counting_fork():
        counts["fork"] += 1
        if counts["fork"] > 3:  # never start many processes, whatever the code asks
            raise AssertionError(f"fork number {counts['fork']}")
        return real_fork()

    def counting_cost(task):
        counts["cost"] += 1
        return real_cost(task)

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(batch, "_cost", counting_cost)
    assert run(capsys, "batch", four_words, "--jobs", jobs) == serial
    # one share needs no split, so no record is costed
    assert counts == {"fork": forks, "cost": 0 if forks == 0 else 4}


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
    assert len(forks) == 2  # the parent evaluates the first and the third share


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


def test_modelled_costs_decide_the_split(tmp_path, capsys, monkeypatch):
    # the 3-string word costs far more than the 2-string ones, so it has a
    # share of its own; a word that fails to parse costs next to nothing
    words = ("1 1 1", "1 2 1 2 1 2", "1 ?", "1 1")
    cost = {w: batch._cost(("x", w, cli.DEFAULT_SIZE_CAP)) for w in words}
    assert cost["1 2 1 2 1 2"] > cost["1 1 1"] == cost["1 1"] > cost["1 ?"] == 1
    splits = []
    real_split = batch.split

    def recording_split(costs, shares):
        splits.append(real_split(costs, shares))
        return splits[-1]

    monkeypatch.setattr(batch, "split", recording_split)
    path = tmp_path / "words.txt"
    path.write_text("".join(f"{name} {w}\n" for name, w in zip("awbc", words)))
    code, out, _ = run(capsys, "batch", str(path), "--jobs", "2")
    assert code == 1 and names(out) == ["a", "w", "c"]
    assert splits == [[[1], [0, 2, 3]]]
