"""Per-layer metrics of a traced pass.

Time metrics ending in ``_ms`` (except the churn ones) are **self time
per measured request**, averaged over the read phase, so they add up:
the sum of every query-path layer plus ``service.transport_ms`` is the
mean client latency.  ``service.transport_ms`` is client latency minus
the ``RoutingService.handle`` span: socket round trip, HTTP parsing and
serialization, and the client itself.
"""

from __future__ import annotations

import statistics
from typing import Any

import spans as spanlib

#: span name -> per-layer metric its self time is charged to
SELF_TIME_METRIC = {
    "service.handle": "service.handle_ms",
    "service.worker.route": "service.worker.wait_ms",
    "service.payload": "service.payload_ms",
    "engine.route_many": "routing.engine.route_ms",
    "engine.route": "routing.engine.route_ms",
    "engine.optimal": "routing.engine.route_ms",
    "engine.digest": "routing.engine.digest_ms",
    "graphs.dijkstra": "graphs.dijkstra_ms",
    "routing.locate": "routing.locate_ms",
    "routing.bay_structs": "routing.bay_structs_ms",
    "routing.router_build": "routing.router.build_ms",
    "routing.router.route": "routing.router.route_ms",
    "routing.chew": "routing.chew_ms",
    "routing.planner": "routing.planner_ms",
}

#: engine caches whose hit and flush counts the server's /metrics reports
CACHES = ("route_result", "locate", "bay_structs", "bay_legs", "dijkstra")

QUERY_METRICS = sorted(set(SELF_TIME_METRIC.values()) | {"service.transport_ms"})

#: Counts that read 0 on every workload, and their ratios.  They stay in
#: the counters the repeat check compares, but are not metrics: a change
#: against a 0 baseline has no relative size.  The worker's response fast
#: path answers every repeated pair before the engine's route-result cache
#: sees it, and each movement step moves a node inside every cached
#: route's region and changes the Dijkstra metric, so neither cache keeps
#: an entry across a rebind.
ZERO_ON_EVERY_WORKLOAD = frozenset({
    "cache.route_result.hits",
    "cache.route_result.hit_rate",
    "flush.route_result.survived",
    "flush.route_result.survival",
    "flush.dijkstra.survived",
    "flush.dijkstra.survival",
})

#: Reconciliation tolerance: the time a request's spans leave unexplained
#: (client latency minus the handle span) must lie in [0, this] for every
#: measured request.  It bounds loopback transport, HTTP framing and
#: scheduling stalls on a busy 2-CPU host: the median is 0.2-0.4 ms, the
#: largest seen in a run 2-31 ms.
RESIDUAL_LIMIT_MS = 50.0


def per_request(spans: list[spanlib.Span], count: int) -> dict[int, list[spanlib.Span]]:
    """Measured request index -> its spans (server seq ``i + 1``; 0 is warm-up)."""
    out: dict[int, list[spanlib.Span]] = {i: [] for i in range(count)}
    for span in spans:
        index = span[5] - 1
        if 0 <= index < count:
            out[index].append(span)
    return out


def reconcile(
    grouped: dict[int, list[spanlib.Span]], sent: list[float], received: list[float]
) -> tuple[list[float], list[str]]:
    """Residual ms per request and every reconciliation problem found."""
    residuals: list[float] = []
    problems: list[str] = []
    for index in sorted(grouped):
        tree = grouped[index]
        for issue in spanlib.check_nesting(tree):
            problems.append(f"request {index}: {issue}")
        roots = [s for s in tree if s[1] == "service.handle"]
        if len(roots) != 1:
            problems.append(f"request {index}: {len(roots)} handle spans")
            continue
        root = roots[0]
        if root[2] < sent[index] or root[3] > received[index]:
            problems.append(f"request {index}: handle span outside the client interval")
        residual = (received[index] - sent[index] - (root[3] - root[2])) * 1e3
        residuals.append(residual)
        if not 0.0 <= residual <= RESIDUAL_LIMIT_MS:
            problems.append(f"request {index}: {residual:.3f} ms unexplained by spans")
    return residuals, problems


def query_layers(
    grouped: dict[int, list[spanlib.Span]], sent: list[float], received: list[float]
) -> dict[str, float]:
    """Mean self time per request for each query-path layer, in ms."""
    totals = {name: 0.0 for name in QUERY_METRICS}
    dijkstra_calls = 0
    for index, tree in grouped.items():
        selfs = spanlib.self_times(tree)
        for span in tree:
            metric = SELF_TIME_METRIC.get(span[1])
            if metric is not None:
                totals[metric] += selfs[span[0]]
            if span[1] == "graphs.dijkstra":
                dijkstra_calls += 1
            if span[1] == "service.handle":
                totals["service.transport_ms"] += (
                    received[index] - sent[index] - (span[3] - span[2])
                )
    count = max(1, len(grouped))
    out = {name: total * 1e3 / count for name, total in totals.items()}
    out["graphs.dijkstra_calls"] = float(dijkstra_calls)
    return out


def ratios(counts: dict[str, int], requests: int) -> dict[str, float]:
    def share(part: int, other: int) -> float:
        return part / (part + other) if part + other else 0.0

    out = {"service.worker.fast_path_share": counts["service.worker.fast_path"] / requests}
    for name in CACHES:
        out[f"cache.{name}.hit_rate"] = share(counts[f"cache.{name}.hits"], counts[f"cache.{name}.misses"])
        out[f"flush.{name}.survival"] = share(counts[f"flush.{name}.survived"], counts[f"flush.{name}.evicted"])
    return out


def update_layers(updates: list[dict[str, float]]) -> dict[str, float]:
    """Means over the rebind steps; they add up to ``update_ms``."""
    return {
        "churn.rebuild_ms": statistics.fmean(u["rebuild_ms"] for u in updates),
        "service.rebind_transfer_ms": statistics.fmean(u["transfer_ms"] for u in updates),
        "routing.engine.rebind_ms": statistics.fmean(u["engine_rebind_ms"] for u in updates),
    }


def warmup_router_build_s(spans: list[spanlib.Span]) -> float:
    """Router construction inside the warm-up request (server seq 0)."""
    return sum(s[3] - s[2] for s in spans if s[5] == 0 and s[1] == "routing.router_build")


def layer_metrics(
    result: Any, trial_spans: list[list[spanlib.Span]], counts: dict[str, int]
) -> tuple[dict[str, float], list[float], list[str]]:
    """Every per-layer metric of a traced pass, residuals, and problems.

    ``trial_spans`` holds each trial's server spans.  Query-path layers
    are means over every measured request of every trial; set-up stages
    and the warm-up router build are medians over trials; counts are one
    trial's (they repeat exactly, while the number of trials depends on
    how fast the host ran).
    """
    trials = result.trials
    grouped: dict[int, list[spanlib.Span]] = {}
    sent: list[float] = []
    received: list[float] = []
    residuals: list[float] = []
    problems: list[str] = []
    for k, (trial, spans) in enumerate(zip(trials, trial_spans)):
        tree = per_request(spans, len(trial.latencies))
        trial_residuals, trial_problems = reconcile(tree, trial.sent, trial.received)
        residuals += trial_residuals
        problems += [f"trial {k}: {p}" for p in trial_problems]
        offset = len(sent)
        grouped.update({offset + i: t for i, t in tree.items()})
        sent += trial.sent
        received += trial.received
    metrics = {name: statistics.median(t.stages[name] for t in trials) for name in trials[0].stages}
    metrics["routing.router_build_s"] = statistics.median(warmup_router_build_s(s) for s in trial_spans)
    metrics.update(query_layers(grouped, sent, received))
    metrics["graphs.dijkstra_calls"] /= len(trials)
    metrics.update(ratios(counts, len(trials[0].latencies)))
    metrics.update({k: float(v) for k, v in counts.items()})
    metrics.update(update_layers([u for t in trials for u in t.updates]))
    metrics = {k: v for k, v in metrics.items() if k not in ZERO_ON_EVERY_WORKLOAD}
    return metrics, residuals, problems
