"""Serving under continuous churn (E15).

The dynamic claim of §6/§7 is about *recomputation* cost; this harness
measures the **serving** side of the same story: a
:class:`~repro.routing.engine.QueryEngine` keeps answering a query stream
while the network churns underneath it.  Each step applies one
:class:`~repro.scenarios.mobility.ChurnEvent` (bounded-speed movement, or a
node joining/leaving), rebuilds the abstraction from scratch, rebinds the
engine (a full flush of its caches) and then serves a batch of routing
queries, recording:

* **recompute latency** — abstraction rebuild plus engine rebind;
* **serve latency** — wall time of routing the step's batch right after
  the rebind, i.e. against freshly flushed caches;
* **query availability** — fraction of queries answered with a delivered
  route on the post-event topology.

With ``verify=True`` every step additionally replays the batch on a
cache-less engine over the same abstraction and counts mismatches — the
differential guardrail that a warm engine never serves a stale answer
after a rebind (the test suite pins this at zero).
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.abstraction import build_abstraction
from ..graphs.ldel import build_ldel
from ..routing.competitiveness import sample_pairs
from ..routing.engine import QueryEngine
from ..routing.router import RouteOutcome
from ..scenarios.generators import perturbed_grid_scenario
from ..scenarios.mobility import ChurnEvent, MobilityModel, churn_schedule

__all__ = ["ChurnRebinder", "ChurnStep", "run_churn_serving"]


def _same_outcome(a: RouteOutcome, b: RouteOutcome) -> bool:
    return (
        a.path == b.path
        and a.case == b.case
        and a.reached == b.reached
        and a.used_fallback == b.used_fallback
    )


@dataclass
class ChurnStep:
    """One churn step's rebuilt topology, ready to rebind into a service."""

    step: int
    event: str
    n: int
    rebuild_ms: float
    abstraction: Any
    udg: Any


class ChurnRebinder:
    """Deterministic per-step rebuilds for rebinding a *live* service.

    Applies one :class:`~repro.scenarios.mobility.ChurnEvent` per step,
    rebuilds the abstraction and hands it to the caller, so the rebind
    runs wherever the engines actually live: an in-process engine
    (:func:`run_churn_serving`, E15), a single-process
    :class:`~repro.service.registry.InstanceRegistry`, or every worker of
    a :class:`~repro.service.supervisor.ServiceSupervisor` process group
    while query traffic keeps flowing (the repository benchmark's
    ``churn-450`` workload and the tier-1 churn-under-traffic test in
    ``tests/service/test_multiproc.py``).

    The schedule is fully deterministic given ``seed`` (or an explicit
    ``events`` list), so a baseline service and an N-worker service fed
    the same ``ChurnRebinder`` parameters see byte-for-byte the same
    sequence of topologies — the property every served differential
    check rests on.  The defaults are movement-only (``p_join = p_leave =
    0``): node count then stays fixed, so client pair pools stay valid
    across steps.
    """

    def __init__(
        self,
        scenario: Any,
        *,
        speed: float = 0.04,
        seed: int = 7,
        steps: int = 8,
        p_join: float = 0.0,
        p_leave: float = 0.0,
        batch: int = 1,
        move_fraction: float = 0.15,
        events: Sequence[ChurnEvent] | None = None,
    ) -> None:
        self.scenario = scenario
        self.model = MobilityModel(scenario, speed=speed, seed=seed + 1)
        self.schedule: list[ChurnEvent] = (
            list(events)
            if events is not None
            else churn_schedule(
                steps,
                seed=seed + 2,
                p_join=p_join,
                p_leave=p_leave,
                batch=batch,
                move_fraction=move_fraction,
            )
        )

    def __len__(self) -> int:
        return len(self.schedule)

    def steps(self) -> Iterator[ChurnStep]:
        """Yield one rebuilt topology per scheduled churn event.

        ``rebuild_ms`` covers LDel + abstraction construction only; the
        rebind itself is timed by whoever executes it (the engine worker
        reports ``rebind_ms`` per rebind).
        """
        for index, event in enumerate(self.schedule, start=1):
            pts = self.model.apply(event).copy()
            t0 = time.perf_counter()
            graph = build_ldel(pts)
            abstraction = build_abstraction(graph)
            rebuild_ms = (time.perf_counter() - t0) * 1e3
            yield ChurnStep(
                step=index,
                event=event.kind,
                n=len(pts),
                rebuild_ms=rebuild_ms,
                abstraction=abstraction,
                udg=graph.udg,
            )


def run_churn_serving(
    *,
    width: float = 12.0,
    height: float = 12.0,
    hole_count: int = 2,
    hole_scale: float = 2.0,
    seed: int = 7,
    steps: int = 8,
    queries_per_step: int = 32,
    speed: float = 0.04,
    p_join: float = 0.1,
    p_leave: float = 0.1,
    batch: int = 1,
    move_fraction: float = 0.15,
    mode: str = "hull",
    verify: bool = False,
    events: Sequence[ChurnEvent] | None = None,
    trace=None,
) -> dict[str, Any]:
    """Run the E15 continuous-churn serving workload.

    Returns ``{"rows": [...], "summary": {...}}`` — one row per step with
    the per-step measurements, and the aggregate engine statistics plus
    overall latency figures.  Fully deterministic given ``seed``
    (and ``events``, when a pre-built schedule is supplied); only the
    wall-clock timing fields vary between runs, and the optional ``trace``
    receives none of them.
    """
    sc = perturbed_grid_scenario(
        width=width,
        height=height,
        hole_count=hole_count,
        hole_scale=hole_scale,
        seed=seed,
    )
    rebinder = ChurnRebinder(
        sc,
        speed=speed,
        seed=seed,
        steps=steps,
        p_join=p_join,
        p_leave=p_leave,
        batch=batch,
        move_fraction=move_fraction,
        events=events,
    )
    query_rng = np.random.default_rng(seed + 3)

    abst = build_abstraction(build_ldel(sc.points))
    engine = QueryEngine(abst, mode, trace=trace)
    # Prime the caches with one batch on the initial topology, so step 1
    # already rebinds a warm engine.
    engine.route_many(sample_pairs(sc.n, queries_per_step, query_rng))

    rows: list[dict[str, Any]] = []
    for churn in rebinder.steps():
        step, new_abst, n = churn.step, churn.abstraction, churn.n
        t0 = time.perf_counter()
        engine.rebind(new_abst)
        rebind_s = time.perf_counter() - t0

        flush = engine.stats.last_flush or {}
        evicted = sum(c["evicted"] for c in flush.get("caches", {}).values())

        pairs = sample_pairs(n, queries_per_step, query_rng)
        t0 = time.perf_counter()
        outcomes = engine.route_many(pairs)
        serve_s = time.perf_counter() - t0
        availability = float(np.mean([o.reached for o in outcomes]))

        mismatches = 0
        if verify:
            cold = QueryEngine(new_abst, mode, caching=False)
            for (s, t), out in zip(pairs, outcomes):
                if not _same_outcome(out, cold.route(s, t)):
                    mismatches += 1

        if trace is not None:
            trace.emit(
                "churn_step",
                step=step,
                event=churn.event,
                n=n,
                evicted=evicted,
                availability=availability,
            )
        row: dict[str, Any] = {
            "step": step,
            "event": churn.event,
            "n": n,
            "holes": len([h for h in new_abst.holes if not h.is_outer]),
            "rebuild_ms": churn.rebuild_ms,
            "rebind_ms": rebind_s * 1e3,
            "serve_ms": serve_s * 1e3,
            "availability": availability,
        }
        if verify:
            row["mismatches"] = mismatches
        rows.append(row)

    summary: dict[str, Any] = {
        "steps": len(rows),
        "moves": sum(1 for r in rows if r["event"] == "move"),
        "joins": sum(1 for r in rows if r["event"] == "join"),
        "leaves": sum(1 for r in rows if r["event"] == "leave"),
        "mean_rebuild_ms": float(np.mean([r["rebuild_ms"] for r in rows])),
        "mean_rebind_ms": float(np.mean([r["rebind_ms"] for r in rows])),
        "mean_serve_ms": float(np.mean([r["serve_ms"] for r in rows])),
        "mean_availability": float(
            np.mean([r["availability"] for r in rows])
        ),
        "engine": engine.stats.summary(),
    }
    if verify:
        summary["mismatches"] = sum(r["mismatches"] for r in rows)
    return {"rows": rows, "summary": summary}
