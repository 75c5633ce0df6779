"""Tests of the benchmark's own logic (no server is started).

Run from the repository root::

    python3 -m pytest servebench -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
# harness imports the routing package, as run.py does
sys.path.insert(0, str(HERE.parent / "src"))

import harness  # noqa: E402
import layers  # noqa: E402
import spans as spanlib  # noqa: E402
from workloads import WORKLOADS, make_schedule, tail_rank  # noqa: E402

RUN_SECONDS = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
#: node counts of the fixed instances (both are E1: 449)
NODES = {"skew-450": 449, "churn-450": 449}
SEEDS = range(1, 11)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_schedule_is_a_function_of_the_seed(name):
    workload = WORKLOADS[name]
    a = make_schedule(workload, NODES[name], 5)
    b = make_schedule(workload, NODES[name], 5)
    c = make_schedule(workload, NODES[name], 6)
    assert a == b
    assert a.requests != c.requests
    assert len(a.requests) == workload.requests
    assert a.warmup not in a.requests


@pytest.mark.parametrize("name", ["skew-450", "churn-450"])
def test_stated_miss_share_holds(name):
    workload = WORKLOADS[name]
    low, high = workload.miss_band
    for seed in SEEDS:
        schedule = make_schedule(workload, NODES[name], seed)
        misses = sum(schedule.expected_misses())
        share = misses / len(schedule.requests)
        assert low <= share <= high, (seed, share)
        # p50 falls among the hits and the tail rank among the misses
        # (misses are the slow requests): fewer than half miss, and more
        # requests miss than lie beyond the tail rank.
        index, _ = tail_rank(len(schedule.requests))
        assert share < 0.5
        assert misses > len(schedule.requests) - 1 - index


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_trial_takes_the_same_trajectory_steps(name):
    workload = WORKLOADS[name]
    schedule = make_schedule(workload, NODES[name], 4)
    assert workload.trajectory_steps() == len(schedule.rebind_before) + workload.update_steps
    # every workload reports update_ms: each trial rebinds at least once
    assert workload.trajectory_steps() > 0


def test_churn_rebinds_every_k_requests():
    workload = WORKLOADS["churn-450"]
    schedule = make_schedule(workload, NODES["churn-450"], 2)
    k = workload.rebind_every
    assert schedule.rebind_before == list(range(k, len(schedule.requests), k))
    assert max(schedule.epochs) == len(schedule.rebind_before)
    # the first request after every rebind is a miss: the response cache
    # is dropped on rebind
    misses = schedule.expected_misses()
    assert all(misses[i] for i in schedule.rebind_before)


def test_trial_count_depends_on_seconds_only():
    for workload in WORKLOADS.values():
        assert workload.trials(1) == 3
        trials = workload.trials(RUN_SECONDS)
        assert trials == round(RUN_SECONDS / workload.trial_seconds) >= 10


def _trial(latency_ms, gap_ms, stages, update_ms, rss_kb):
    sent, received, t = [], [], 0.0
    for latency in latency_ms:
        sent.append(t)
        received.append(t + latency / 1e3)
        t += (latency + gap_ms) / 1e3
    return harness.Trial(
        setup_s=sum(stages.values()),
        stages=dict(stages),
        latencies=[x / 1e3 for x in latency_ms],
        sent=sent,
        received=received,
        updates=[{"update_ms": u} for u in update_ms],
        rss_kb=rss_kb,
    )


def test_end_to_end_counts_each_unit_of_work_with_its_best_repeat():
    a = _trial([1.0] * 15 + [5.0] * 15, 0.5, {"x": 0.2, "y": 0.1}, [10.0, 50.0], 1024 * 70)
    b = _trial([5.0] * 15 + [1.0] * 15, 0.5, {"x": 0.1, "y": 0.3}, [30.0, 20.0], 1024 * 74)
    e2e = {k: v for k, (v, _) in harness.end_to_end(harness.PassResult(trials=[a, b])).items()}
    assert set(e2e) == set(harness.UNITS)
    # every request's best is 1 ms, though half of each trial took 5 ms
    assert harness.trial_metrics(a)["tail_ms"] == pytest.approx(5.0)
    assert e2e["p50_ms"] == pytest.approx(1.0)
    assert e2e["tail_ms"] == pytest.approx(1.0)
    # best cycles: 1.5 ms from send to next send, and the last answer's 1 ms
    assert e2e["throughput_qps"] == pytest.approx(30 / ((29 * 1.5 + 1.0) / 1e3))
    assert e2e["setup_s"] == pytest.approx(0.1 + 0.1)
    assert e2e["update_ms"] == pytest.approx((10.0 + 20.0) / 2)
    assert e2e["rss_mb"] == 70.0


@pytest.mark.parametrize("count", [11, 12, 80, 100, 6000])
def test_tail_rank_leaves_ten_samples_beyond(count):
    index, percentile = tail_rank(count)
    assert count - 1 - index == 10
    assert percentile == pytest.approx(100.0 * (count - 10) / count)
    values = list(range(count))
    assert sum(1 for v in values if v > values[index]) == 10


def test_tail_rank_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_rank(10)


def _tree():
    # handle [0, 10] > worker [1, 9] > {route_many [2, 6] > dijkstra [3, 5],
    #                                    payload [6.5, 8]}
    return [
        (1, "service.handle", 0.0, 10.0, 0, 1),
        (2, "service.worker.route", 1.0, 9.0, 1, 1),
        (3, "engine.route_many", 2.0, 6.0, 2, 1),
        (4, "graphs.dijkstra", 3.0, 5.0, 3, 1),
        (5, "service.payload", 6.5, 8.0, 2, 1),
    ]


def test_self_time_subtracts_direct_children():
    selfs = spanlib.self_times(_tree())
    assert selfs == {1: 2.0, 2: 2.5, 3: 2.0, 4: 2.0, 5: 1.5}
    assert sum(selfs.values()) == 10.0
    assert spanlib.check_nesting(_tree()) == []


def test_nesting_check_finds_escapes_and_overlaps():
    escaped = _tree()
    escaped[3] = (4, "graphs.dijkstra", 3.0, 7.0, 3, 1)
    assert any("outside parent" in p for p in spanlib.check_nesting(escaped))
    overlapping = _tree()
    overlapping[4] = (5, "service.payload", 5.5, 8.0, 2, 1)
    assert any("overlaps" in p for p in spanlib.check_nesting(overlapping))


def test_layers_add_up_to_the_mean_latency():
    # two requests; seconds in, milliseconds out
    tree = [(sid, name, a / 1e3, b / 1e3, parent, seq) for sid, name, a, b, parent, seq in _tree()]
    second = [
        (11, "service.handle", 20.0 / 1e3, 21.0 / 1e3, 0, 2),
        (12, "service.worker.route", 20.2 / 1e3, 20.6 / 1e3, 11, 2),
    ]
    sent = [-0.5 / 1e3, 19.0 / 1e3]
    received = [10.5 / 1e3, 22.0 / 1e3]
    grouped = layers.per_request(tree + second, 2)
    out = layers.query_layers(grouped, sent, received)
    mean_latency = statistics.fmean(b - a for a, b in zip(sent, received)) * 1e3
    assert sum(out[m] for m in layers.QUERY_METRICS) == pytest.approx(mean_latency)
    assert out["service.transport_ms"] == pytest.approx((1.0 + 2.0) / 2)
    assert out["graphs.dijkstra_ms"] == pytest.approx(2.0 / 2)
    assert out["graphs.dijkstra_calls"] == 1.0
    residuals, problems = layers.reconcile(grouped, sent, received)
    assert residuals == pytest.approx([1.0, 2.0])
    assert problems == []


def test_layer_metrics_join_trials_and_count_per_trial():
    def trial(t0):
        return harness.Trial(
            stages={"graphs.ldel_s": t0},
            latencies=[0.011],
            sent=[t0 - 0.0005],
            received=[t0 + 0.0105],
            updates=[{"rebuild_ms": 1.0, "transfer_ms": 2.0, "engine_rebind_ms": 3.0}],
        )

    def spans(t0):
        return [(sid, name, t0 + a / 1e3, t0 + b / 1e3, parent, seq)
                for sid, name, a, b, parent, seq in _tree()]

    result = harness.PassResult(trials=[trial(1.0), trial(2.0)])
    counts = {"service.worker.fast_path": 0}
    for name in layers.CACHES:
        for kind in ("cache.{}.hits", "cache.{}.misses", "flush.{}.survived", "flush.{}.evicted"):
            counts[kind.format(name)] = 1
    metrics, residuals, problems = layers.layer_metrics(result, [spans(1.0), spans(2.0)], counts)
    assert problems == []
    assert residuals == pytest.approx([1.0, 1.0])
    # one Dijkstra span in each trial: counts are per trial
    assert metrics["graphs.dijkstra_calls"] == 1.0
    assert metrics["graphs.dijkstra_ms"] == pytest.approx(2.0)
    assert metrics["graphs.ldel_s"] == 1.5
    assert sum(metrics[m] for m in layers.QUERY_METRICS) == pytest.approx(11.0)


def test_reconcile_flags_a_handle_span_outside_the_client_interval():
    tree = [(1, "service.handle", 0.0, 0.010, 0, 1)]
    grouped = layers.per_request(tree, 1)
    _, problems = layers.reconcile(grouped, [0.001], [0.011])
    assert any("outside the client interval" in p for p in problems)


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "servebench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "servebench/run.py", "--workload", "skew-450", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
