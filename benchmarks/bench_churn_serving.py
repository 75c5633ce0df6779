"""E15 — serving a query stream under continuous churn (§6/§7 serving side).

A :class:`~repro.routing.engine.QueryEngine` answers batches of routing
queries while the network churns underneath it: localized bounded-speed
movement steps interleaved with node joins and leaves.  After every event
the abstraction is rebuilt from scratch and the engine rebinds, flushing
every cache.

The seed-7 schedule of 10 events draws one join (step 2) and one leave
(step 9) among the moves, so the run also rebuilds and rebinds across a
node-count change; the bench asserts both kinds appear.

Reported per step: recompute latency (abstraction rebuild + engine
rebind), the serve time of the step's batch right after the rebind, and
query availability.  The run is differentially verified against a
cache-less engine (0 mismatches — the determinism contract under churn).
"""

from conftest import run_once
from repro.analysis.churn import run_churn_serving

PARAMS = dict(
    width=12.0,
    height=12.0,
    hole_count=2,
    hole_scale=2.0,
    seed=7,
    steps=10,
    queries_per_step=32,
    speed=0.04,
    p_join=0.15,
    p_leave=0.15,
    move_fraction=0.15,
)


def test_e15_churn_serving(benchmark, report):
    res = run_once(benchmark, lambda: run_churn_serving(**PARAMS, verify=True))

    report(
        [
            {
                k: (round(v, 3) if isinstance(v, float) else v)
                for k, v in row.items()
            }
            for row in res["rows"]
        ],
        title="E15: serving under churn — per step",
    )

    # The workload rebuilds across node-count changes, not only moves.
    kinds = {row["event"] for row in res["rows"]}
    assert {"join", "leave"} <= kinds

    s = res["summary"]
    # Determinism contract under churn: a warm engine never serves a
    # stale route after a rebind.
    assert s["mismatches"] == 0
    # Serving keeps working throughout the churn.
    assert s["mean_availability"] >= 0.95
