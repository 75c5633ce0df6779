"""E15 — serving a query stream under continuous churn (§6/§7 serving side).

A :class:`~repro.routing.engine.QueryEngine` answers batches of routing
queries while the network churns underneath it: localized bounded-speed
movement steps interleaved with node joins and leaves.  After every event
the abstraction is rebuilt from scratch and the engine rebinds — with
scoped invalidation, only the caches of holes whose content digest changed
are dropped (movement), while join/leave renumbers the id space and forces
a full flush.

Reported per step: recompute latency (abstraction rebuild + engine
rebind), cache survival across the rebind, the serve time of the step's
batch against the surviving caches, and query availability.  A second
table contrasts the scoped engine with a full-flush engine on the same
event schedule.  The scoped run is differentially verified against a
cache-less engine (0 mismatches — the determinism contract under churn).
"""

import pytest

from conftest import run_once
from repro.analysis.churn import run_churn_serving

PARAMS = dict(
    width=12.0,
    height=12.0,
    hole_count=2,
    hole_scale=2.0,
    seed=7,
    steps=8,
    queries_per_step=32,
    speed=0.04,
    p_join=0.1,
    p_leave=0.1,
    move_fraction=0.15,
)


_cache: dict = {}


def _results():
    if "res" not in _cache:
        scoped = run_churn_serving(**PARAMS, scoped=True, verify=True)
        full = run_churn_serving(**PARAMS, scoped=False)
        _cache["res"] = (scoped, full)
    return _cache["res"]


def test_e15_churn_serving(benchmark, report):
    scoped, _ = run_once(benchmark, _results)

    report(
        [
            {
                k: (round(v, 3) if isinstance(v, float) else v)
                for k, v in row.items()
            }
            for row in scoped["rows"]
        ],
        title="E15: serving under churn — scoped invalidation, per step",
    )

    s = scoped["summary"]
    # Determinism contract under churn: scoped serving never changes a route.
    assert s["mismatches"] == 0
    # Movement steps must actually take the scoped path...
    assert s["scoped_rebinds"] > 0
    # ...and keep a meaningful share of the caches warm.
    assert s["mean_survival_scoped"] > 0.2
    # Serving keeps working throughout the churn.
    assert s["mean_availability"] >= 0.95


def test_e15_scoped_vs_full(report):
    scoped, full = _results()

    def summary_row(variant, summary):
        return {
            "variant": variant,
            "scoped_rebinds": summary["scoped_rebinds"],
            "full_rebinds": summary["full_rebinds"],
            "rebuild_ms": round(summary["mean_rebuild_ms"], 2),
            "rebind_ms": round(summary["mean_rebind_ms"], 3),
            "serve_ms": round(summary["mean_serve_ms"], 2),
            "survival": round(summary["mean_survival_scoped"], 3),
            "availability": round(summary["mean_availability"], 3),
        }

    report(
        [
            summary_row("scoped", scoped["summary"]),
            summary_row("full-flush", full["summary"]),
        ],
        title="E15b: scoped vs full-flush rebinds, same event schedule",
    )
    # The full-flush engine, by construction, never keeps anything.
    assert full["summary"]["mean_survival_scoped"] == 0.0
