"""E14 — routing query latency and engine amortization (library performance).

Two parts:

* the original micro-benchmark — wall-clock cost of a single ``route()``
  call on a ~1200-node instance for the protocol variants plus planner
  construction cost;
* the **cold-vs-warm workload**: a 1000-query repeated-pair workload on the
  E1 instance (n≈450, 2 holes) served once with all engine caches disabled
  (equivalent to a plain :class:`HybridRouter`) and once through a caching
  :class:`QueryEngine`.  Routes must be identical path-for-path between the
  two runs (the engine's determinism contract), and the warm serve must be
  at least ``QUERY_SMOKE_MIN_SPEEDUP``× faster (default 2×; CI smoke knob —
  locally the measured speedup is well above the 5× acceptance bar).
"""

import os
import time

import numpy as np
import pytest

from conftest import run_once
from repro.analysis import make_instance
from repro.routing import HybridRouter, QueryEngine, sample_pairs

INST_PARAMS = dict(
    width=20.0, height=20.0, hole_count=4, hole_scale=2.4, seed=3
)

# The E1 acceptance instance: n=449, 2 holes.
WORKLOAD_INST = dict(
    width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
)
WORKLOAD_QUERIES = 1000
WORKLOAD_DISTINCT = 100


@pytest.fixture(scope="module")
def instance():
    return make_instance(**INST_PARAMS)


@pytest.fixture(scope="module")
def pair_cycle(instance):
    rng = np.random.default_rng(7)
    pairs = sample_pairs(instance.n, 64, rng)

    def cycle():
        i = 0
        while True:
            yield pairs[i % len(pairs)]
            i += 1

    return cycle()


@pytest.mark.parametrize("mode", ["hull", "delaunay"])
def test_e14_route_latency(benchmark, instance, pair_cycle, mode):
    router = HybridRouter(instance.abstraction, mode=mode)

    def one_route():
        s, t = next(pair_cycle)
        out = router.route(s, t)
        assert out.reached
        return out

    benchmark(one_route)


def test_e14_router_construction(benchmark, instance):
    def build():
        return HybridRouter(instance.abstraction, mode="hull")

    router = benchmark(build)
    assert router.planner.base_vertices


def _repeated_workload(n, rng):
    """1000 queries drawn with repetition from a small distinct-pair pool."""
    pool = sample_pairs(n, WORKLOAD_DISTINCT, rng, distinct=True)
    idx = rng.integers(0, len(pool), size=WORKLOAD_QUERIES)
    return [pool[i] for i in idx]


def _serve(engine, workload):
    t0 = time.perf_counter()
    outcomes = engine.route_many(workload)
    return time.perf_counter() - t0, outcomes


def _run_cold_warm():
    inst = make_instance(**WORKLOAD_INST)
    rng = np.random.default_rng(17)
    workload = _repeated_workload(inst.n, rng)

    cold_engine = QueryEngine(
        inst.abstraction, "hull", udg=inst.graph.udg, caching=False
    )
    warm_engine = QueryEngine(
        inst.abstraction, "hull", udg=inst.graph.udg, caching=True
    )
    cold_s, cold_out = _serve(cold_engine, workload)
    warm_s, warm_out = _serve(warm_engine, workload)
    rewarm_s, rewarm_out = _serve(warm_engine, workload)

    mismatches = sum(
        1
        for a, b, c in zip(cold_out, warm_out, rewarm_out)
        if not (a.path == b.path == c.path and a.case == b.case == c.case)
    )
    # route_many routes each distinct pair once; the cold engine routes all.
    routed_warm = len(set(workload))
    return {
        "n": inst.n,
        "holes": WORKLOAD_INST["hole_count"],
        "queries": WORKLOAD_QUERIES,
        "distinct_pairs": WORKLOAD_DISTINCT,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "rewarm_s": rewarm_s,
        "warm_speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
        "rewarm_speedup": cold_s / rewarm_s if rewarm_s > 0 else float("inf"),
        "cold_ms_per_pair": cold_s * 1e3 / len(workload),
        "warm_ms_per_pair": warm_s * 1e3 / routed_warm,
        "path_mismatches": mismatches,
    }


def test_e14_cold_vs_warm_workload(benchmark, report):
    res = run_once(benchmark, _run_cold_warm)
    report(
        [
            {
                "n": res["n"],
                "queries": res["queries"],
                "distinct": res["distinct_pairs"],
                "cold_s": round(res["cold_s"], 3),
                "warm_s": round(res["warm_s"], 3),
                "rewarm_s": round(res["rewarm_s"], 4),
                "warm_x": round(res["warm_speedup"], 1),
                "rewarm_x": round(res["rewarm_speedup"], 1),
                "cold_ms_per_pair": round(res["cold_ms_per_pair"], 2),
                "warm_ms_per_pair": round(res["warm_ms_per_pair"], 2),
                "path_mismatches": res["path_mismatches"],
            }
        ],
        title="E14b: query-engine amortization — cold (caching off) vs warm",
    )

    # Determinism contract: caching never changes a route.
    assert res["path_mismatches"] == 0
    # CI smoke bar (local acceptance bar is 5x; CI machines get headroom).
    min_speedup = float(os.environ.get("QUERY_SMOKE_MIN_SPEEDUP", "2"))
    assert res["warm_speedup"] >= min_speedup, (
        f"warm serve only {res['warm_speedup']:.2f}x faster than cold "
        f"(required {min_speedup}x)"
    )
