"""Tests of the benchmark itself: ``python3 -m pytest lgbench``.

They run the real CLI on small words, so they need ``src/`` beside
``lgbench/``, as the benchmark does.
"""

from __future__ import annotations

import json
import time

import pytest

import run
import words

CORPUS = words.load_corpus(run.ROOT)


@pytest.mark.parametrize("workload", sorted(words.GENERATORS))
def test_generator_is_deterministic_for_a_seed(workload):
    gen = words.GENERATORS[workload]
    assert gen(CORPUS, 7) == gen(CORPUS, 7)
    assert gen(CORPUS, 7) != gen(CORPUS, 8)


def test_batch_lines_never_hold_only_a_name():
    for w in words.batch_words(CORPUS, 3):
        assert w.text.strip() and " " not in w.name and ";" not in w.name


def test_seed_changes_spelling_but_not_the_word():
    a = sorted(words.wide5_words(CORPUS, 1), key=lambda w: w.name.split("-")[0])
    b = sorted(words.wide5_words(CORPUS, 2), key=lambda w: w.name.split("-")[0])
    assert [w.text for w in a] != [w.text for w in b]
    assert [words.parse_word(w.text) for w in a] == [words.parse_word(w.text) for w in b]


def test_recurrence_reproduces_the_corpus_torus_entries():
    assert words.check_recurrence(CORPUS) == []
    values = words.torus_values(CORPUS["2^2_1"].compact, 9)
    assert values[0] == [{}] and values[1] == [{0: 1}]
    for e, name in words.TORUS_ENTRIES.items():
        assert values[e] == CORPUS[name].compact


def test_recurrence_check_catches_a_wrong_corpus_value():
    corpus = dict(CORPUS)
    good = corpus["5_1"]
    bad = [dict(block) for block in good.compact]
    bad[0][0] += 1
    corpus["5_1"] = words.CorpusEntry(good.name, good.braid, bad)
    assert any("5_1" in p for p in words.check_recurrence(corpus))


def _corrupt(expected: words.Compact) -> words.Compact:
    bad = [dict(block) for block in expected]
    e = min(bad[0])
    bad[0][e] += 1
    return bad


def test_a_corrupted_expected_record_is_caught():
    runner = run.Runner("twist", time.perf_counter())
    expected = words.torus_values(CORPUS["2^2_1"].compact, 5)[5]
    good = words.Word("T2_5", "1^5", 2, expected)
    assert runner._eval(good, None).ok
    bad = runner._eval(words.Word("T2_5", "1^5", 2, _corrupt(expected)), None)
    assert not bad.ok and "expected" in bad.detail


def test_a_corrupted_record_in_a_batch_fails_only_that_word():
    runner = run.Runner("batch", time.perf_counter())
    trefoil = CORPUS["3_1"].compact
    batch = [
        words.Word("a", "1 1 1", 2, trefoil),
        words.Word("b", "1^3", 2, _corrupt(trefoil)),
    ]
    outcomes = runner._batch(batch, None)
    assert [o.ok for o in outcomes] == [True, False]


def test_a_batch_call_past_its_deadline_fails_every_word(monkeypatch):
    monkeypatch.setattr(run, "BATCH_DEADLINE_S", 1.0)
    runner = run.Runner("batch", time.perf_counter())
    batch = [
        words.Word("small", "1 1 1", 2, CORPUS["3_1"].compact),
        words.Word("huge", "1^400", 2, [{}]),
    ]
    t0 = time.perf_counter()
    outcomes = runner._batch(batch, None)
    assert time.perf_counter() - t0 < 30
    assert not any(o.ok for o in outcomes)
    assert all("timed out" in o.detail for o in outcomes)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_in_benchmark_json_is_emitted(monkeypatch, capsys, trace):
    monkeypatch.setattr(words, "TWIST_EXPONENTS", (3, 6))
    monkeypatch.setattr(run, "TRACE_PAIRS", 1)
    code = run.main(["--workload", "twist", "--seed", "1", "--seconds", "0",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], (int, float))
