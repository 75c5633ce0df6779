"""Drive the served routing stack from outside and measure it.

One pass of a workload repeats one **trial** a fixed number of times:

1. **Set-up** of a fresh server, timed from scratch: scenario ->
   ``build_ldel`` -> ``find_holes`` -> ``build_abstraction`` ->
   ``InstanceStore.publish`` -> a one-worker ``ServiceSupervisor`` (the
   forked server of ``repro serve --workers N``) -> one warm-up batch
   request outside the measured set, so the lazy router and planner
   builds (bay legs included) land in set-up.
2. The movement trajectory's rebuilds are computed (untimed reads wait
   for them; their rebuild time is part of ``update_ms``).
3. **Reads**: one closed-loop keep-alive connection sends the schedule's
   stream; on churn-450 each rebind is pushed through
   ``broadcast_rebind`` between two requests.
4. **Updates** (skew-450): the remaining movement steps are pushed to
   the warm server.
5. The server's ``/metrics`` and peak RSS are read and it is stopped.

Every trial does identical work, so its cache and flush counters must
repeat exactly, and the trials of a pass differ only by what the host
did meanwhile.  :func:`end_to_end` therefore reports each timing from
its best repeat (see there).  **Checks**, outside every timed region:
sampled responses byte-for-byte against a ``QueryEngine(caching=False)``
bound to the topology the request was served on, identical bytes for
every repeat of a request in every trial, and each trial's fast-path
count against the schedule's prediction.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import statistics
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis import ChurnRebinder
from repro.core.abstraction import build_abstraction
from repro.graphs import build_ldel, find_holes
from repro.routing.engine import QueryEngine, abstraction_digest
from repro.scenarios import perturbed_grid_scenario
from repro.service import InstanceStore, ServiceClient, ServiceSupervisor, outcome_payload

from layers import CACHES
from workloads import CHURN_SEED, MIN_TRIALS, Schedule, Workload, make_schedule, tail_rank

HOST = "127.0.0.1"

#: A pass stops adding trials once it has run this many times its seconds.
CAP = 1.4

#: CPUs the benchmark may use.  Each trial runs the benchmark process, and
#: the server it forks, on one of them, taking them in turn (see run_pass).
CPUS = sorted(os.sched_getaffinity(0))

#: End-to-end metric -> unit (see :func:`end_to_end`).
UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "throughput_qps": "1/s",
    "rss_mb": "MB",
    "update_ms": "ms",
}


@dataclass
class Setup:
    supervisor: ServiceSupervisor
    scenario: Any
    graph: Any
    abstraction: Any
    seconds: float
    stages: dict[str, float]


@dataclass
class Trial:
    """Raw measurements of one trial (one fresh server, the whole stream)."""

    setup_s: float = 0.0
    #: the set-up's stages, the server's pid and its /metrics payload
    stages: dict[str, float] = field(default_factory=dict)
    server_pid: int = 0
    metrics: dict[str, Any] = field(default_factory=dict)
    #: per request
    latencies: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    received: list[float] = field(default_factory=list)
    statuses: list[int] = field(default_factory=list)
    bodies: list[bytes] = field(default_factory=list)
    #: per rebind step
    updates: list[dict[str, float]] = field(default_factory=list)
    #: wall time of the reads (churn-450's rebinds included)
    wall_s: float = 0.0
    #: the server's peak RSS
    rss_kb: int = 0


@dataclass
class PassResult:
    trials: list[Trial] = field(default_factory=list)
    mismatches: int = 0
    checked: int = 0
    problems: list[str] = field(default_factory=list)

    def requests(self) -> int:
        return sum(len(t.latencies) for t in self.trials)


def _route(client: ServiceClient, pair: tuple[int, int]):
    return client.post("/v1/route", {"source": pair[0], "target": pair[1]})


def warmup_pairs(abstraction: Any, warmup: tuple[int, int]) -> list[tuple[int, int]]:
    """The warm-up pair plus one pair from its source into every bay.

    A query whose terminal lies in a bay computes that bay's visibility
    legs the first time (a lazy planner build, cached per hole digest).
    Without this, the first measured query into each bay paid it, and
    those ~16 one-time costs set skew-450's ``tail_ms``.  All pairs share
    one source, so the batch costs one ground-truth Dijkstra.
    """
    source = warmup[0]
    pairs = [warmup]
    for hole in abstraction.holes:
        if hole.is_outer:
            continue
        for bay in hole.bays:
            interior = bay.interior
            if interior and interior[len(interior) // 2] != source:
                pairs.append((source, interior[len(interior) // 2]))
    return pairs


def _warm_answer(port: int, pairs: list[tuple[int, int]]) -> int:
    async def once() -> int:
        async with ServiceClient(HOST, port) as client:
            status, _, _ = await client.post(
                "/v1/route/batch", {"pairs": [list(p) for p in pairs]}
            )
            return status

    return asyncio.run(once())


def build_and_serve(workload: Workload, warmup: tuple[int, int]) -> Setup:
    """One timed set-up: construction through the first warm answer."""
    gc.collect()
    t0 = time.perf_counter()
    scenario = perturbed_grid_scenario(**workload.instance)
    t1 = time.perf_counter()
    graph = build_ldel(scenario.points)
    t2 = time.perf_counter()
    holes = find_holes(graph)
    t3 = time.perf_counter()
    abstraction = build_abstraction(graph, holes)
    t4 = time.perf_counter()
    store = InstanceStore()
    store.publish(abstraction, graph.udg, params={"workload": workload.name})
    t5 = time.perf_counter()
    supervisor = ServiceSupervisor(store, workers=1, start_timeout=120.0)
    supervisor.start()
    t6 = time.perf_counter()
    try:
        status = _warm_answer(supervisor.port, warmup_pairs(abstraction, warmup))
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")
    except BaseException:
        supervisor.stop()
        raise
    t7 = time.perf_counter()
    return Setup(
        supervisor=supervisor,
        scenario=scenario,
        graph=graph,
        abstraction=abstraction,
        seconds=t7 - t0,
        stages={
            "scenarios.generate_s": t1 - t0,
            "graphs.ldel_s": t2 - t1,
            "graphs.find_holes_s": t3 - t2,
            "core.abstraction_s": t4 - t3,
            "service.publish_s": t5 - t4,
            "service.worker_start_s": t6 - t5,
            "service.warmup_s": t7 - t6,
        },
    )


def _rebind(supervisor: ServiceSupervisor, step: Any) -> dict[str, float]:
    t0 = time.perf_counter()
    records = supervisor.broadcast_rebind(step.abstraction, step.udg)
    round_trip_ms = (time.perf_counter() - t0) * 1e3
    digest = abstraction_digest(step.abstraction)
    if any(r["digest"] != digest for r in records):
        raise RuntimeError("rebind did not converge on the rebuilt digest")
    engine_ms = float(records[0]["rebind_ms"])
    return {
        "rebuild_ms": step.rebuild_ms,
        "round_trip_ms": round_trip_ms,
        "engine_rebind_ms": engine_ms,
        "transfer_ms": round_trip_ms - engine_ms,
        "update_ms": step.rebuild_ms + round_trip_ms,
    }


async def _read(
    supervisor: ServiceSupervisor,
    schedule: Schedule,
    rebinds: dict[int, Any],
    trial: Trial,
    distinct: dict[bytes, bytes],
    deadline: float,
) -> None:
    async with ServiceClient(HOST, supervisor.port) as client:
        started = time.perf_counter()
        for index, pair in enumerate(schedule.requests):
            if index in rebinds:
                trial.updates.append(_rebind(supervisor, rebinds[index]))
            t0 = time.perf_counter()
            status, _, raw = await _route(client, pair)
            t1 = time.perf_counter()
            trial.sent.append(t0)
            trial.received.append(t1)
            trial.latencies.append(t1 - t0)
            trial.statuses.append(status)
            trial.bodies.append(distinct.setdefault(raw, raw))
            if t1 > deadline:
                break
        trial.wall_s = time.perf_counter() - started


def _server_metrics(port: int) -> dict[str, Any]:
    async def once() -> dict[str, Any]:
        async with ServiceClient(HOST, port) as client:
            status, payload, _ = await client.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        return payload

    return asyncio.run(once())


def _vm_hwm_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def run_trial(
    workload: Workload,
    schedule: Schedule,
    distinct: dict[bytes, bytes],
    deadline: float,
    before_fork: Callable[[], None] | None = None,
    after_fork: Callable[[], None] | None = None,
) -> tuple[Trial, list[tuple[Any, Any]]]:
    """One trial; returns it with the topology of every epoch it served.

    ``before_fork``/``after_fork`` run around the server's set-up (the
    traced pass installs its spans there, so the forked worker has them).
    """
    trial = Trial()
    if before_fork is not None:
        before_fork()
    try:
        setup = build_and_serve(workload, schedule.warmup)
    finally:
        if after_fork is not None:
            after_fork()
    supervisor = setup.supervisor
    try:
        trial.setup_s = setup.seconds
        trial.stages = setup.stages
        steps = list(
            ChurnRebinder(setup.scenario, seed=CHURN_SEED, steps=workload.trajectory_steps()).steps()
        )
        interleaved = len(schedule.rebind_before)
        rebinds = dict(zip(schedule.rebind_before, steps[:interleaved]))
        asyncio.run(_read(supervisor, schedule, rebinds, trial, distinct, deadline))
        if len(trial.statuses) == len(schedule.requests):
            trial.updates.extend(_rebind(supervisor, step) for step in steps[interleaved:])
        trial.metrics = _server_metrics(supervisor.port)
        trial.server_pid = supervisor.handles()[0].pid
        trial.rss_kb = _vm_hwm_kb(trial.server_pid)
    finally:
        supervisor.stop()
    topologies = [(setup.abstraction, setup.graph.udg)]
    topologies.extend((step.abstraction, step.udg) for step in steps[:interleaved])
    return trial, topologies


def _expected_bytes(engine: QueryEngine, digest: str, pair: tuple[int, int]) -> bytes:
    s, t = pair
    outcome = engine.route(s, t)
    envelope = {
        "instance": digest,
        "mode": "hull",
        "results": [outcome_payload(outcome, engine.abstraction.points, engine.optimal(s, t))],
    }
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def check_responses(
    schedule: Schedule, result: PassResult, topologies: list[tuple[Any, Any]]
) -> None:
    """Byte checks: oracle sample, repeat consistency, status codes.

    A request is identified by ``(trial, index)``; it fails on a non-200
    status, on bytes that differ from the first answer to the same
    ``(epoch, pair)`` in any trial, or on bytes that differ from the
    oracle's for a sampled key.
    """
    failed: set[tuple[int, int]] = set()
    by_key: dict[tuple[int, tuple[int, int]], list[tuple[int, int]]] = {}
    for k, trial in enumerate(result.trials):
        for i, status in enumerate(trial.statuses):
            if status != 200:
                failed.add((k, i))
            by_key.setdefault((schedule.epochs[i], schedule.requests[i]), []).append((k, i))

    def body(ref: tuple[int, int]) -> bytes:
        return result.trials[ref[0]].bodies[ref[1]]

    # Every repeat of a request in one epoch, in every trial (fast-path
    # hits included), must carry the bytes its first answer carried.
    for refs in by_key.values():
        first = body(refs[0])
        failed.update(ref for ref in refs if body(ref) != first)
    oracles: dict[int, tuple[QueryEngine, str]] = {}
    checked = 0
    for epoch, pair in schedule.oracle_keys:
        refs = by_key.get((epoch, pair))
        if not refs:
            continue
        if epoch not in oracles:
            abstraction, udg = topologies[epoch]
            oracles[epoch] = (
                QueryEngine(abstraction, udg=udg, caching=False),
                abstraction_digest(abstraction),
            )
        engine, digest = oracles[epoch]
        expected = _expected_bytes(engine, digest, pair)
        checked += len(refs)
        failed.update(ref for ref in refs if body(ref) != expected)
    result.mismatches = len(failed)
    result.checked = checked


def run_pass(
    workload: Workload,
    seed: int,
    seconds: float,
    before_fork: Callable[[], None] | None = None,
    after_fork: Callable[[], None] | None = None,
) -> tuple[Schedule, PassResult]:
    """Run the workload's trials for a pass of ``seconds``, then check
    every answer.

    The trial count is fixed by ``seconds``, unless the host is so slow
    that the pass has taken :data:`CAP` times its seconds: then it stops
    early (after at least :data:`MIN_TRIALS`), so that a run ends in
    bounded time.

    Client and server of a trial share one CPU.  The closed loop runs them
    in turn anyway; across two vCPUs of the shared reference host each
    request also paid for waking the idle one, which the host delays when
    busy: on a busy host skew-450's ``p50_ms`` read 0.21-0.22 ms unpinned
    against 0.12-0.14 ms pinned.  Trials take the CPUs in turn because the
    host slows one vCPU at a time, for seconds to minutes: with every
    trial on one CPU, two runs in ten read 1.3-1.5 times slower on every
    timing.
    """
    n = perturbed_grid_scenario(**workload.instance).n
    schedule = make_schedule(workload, n, seed)
    result = PassResult()
    # Repeats of a request answer with equal bytes; keeping one object per
    # distinct body holds a run's 10^5 responses in a few MB.
    distinct: dict[bytes, bytes] = {}
    topologies: list[tuple[Any, Any]] = []
    started = time.perf_counter()
    # a host several times slower than the reference still ends in time
    deadline = started + 3 * seconds + 20
    try:
        for k in range(workload.trials(seconds)):
            if len(result.trials) >= MIN_TRIALS and time.perf_counter() - started > CAP * seconds:
                break
            os.sched_setaffinity(0, {CPUS[k % len(CPUS)]})
            trial, served = run_trial(workload, schedule, distinct, deadline, before_fork, after_fork)
            result.trials.append(trial)
            topologies = topologies or served
            if len(trial.statuses) < len(schedule.requests) or time.perf_counter() > deadline:
                result.problems.append(
                    f"deadline stopped the pass in trial {len(result.trials)} after "
                    f"{len(trial.statuses)} of {len(schedule.requests)} requests"
                )
                break
    finally:
        os.sched_setaffinity(0, CPUS)
    check_responses(schedule, result, topologies)
    expected_hits = sum(1 for miss in schedule.expected_misses() if not miss)
    first = counters(result.trials[0])
    for k, trial in enumerate(result.trials):
        fast_path = counters(trial)["service.worker.fast_path"]
        if len(trial.statuses) == len(schedule.requests) and fast_path != expected_hits:
            result.problems.append(
                f"trial {k}: fast path answered {fast_path} requests, schedule predicts {expected_hits}"
            )
        if counters(trial) != first:
            result.problems.append(f"trial {k}: cache/flush counters differ from trial 0's")
    return schedule, result


def instance_stats(metrics: dict[str, Any]) -> dict[str, Any]:
    (stats,) = metrics["instances"].values()
    return stats


def counters(trial: Trial) -> dict[str, int]:
    """Deterministic counts of one trial: cache hits/misses, flush
    survived/evicted, fast-path answers."""
    stats = instance_stats(trial.metrics)
    out: dict[str, int] = {"service.worker.fast_path": int(stats["worker"]["fast_path"])}
    for name in CACHES:
        row = stats["engine"]["cache"].get(name, {"hits": 0, "misses": 0})
        out[f"cache.{name}.hits"] = int(row["hits"])
        out[f"cache.{name}.misses"] = int(row["misses"])
        frow = stats["engine"]["flush"].get(name, {"survived": 0, "evicted": 0})
        out[f"flush.{name}.survived"] = int(frow["survived"])
        out[f"flush.{name}.evicted"] = int(frow["evicted"])
    return out


def _cycles(trial: Trial) -> list[float]:
    """Per request: send to the next send (the last: to its answer), so
    they sum to the read wall time less the client's start and stop."""
    sent = trial.sent
    return [b - a for a, b in zip(sent, sent[1:])] + [trial.received[-1] - sent[-1]]


def _summary(
    latencies: list[float], cycles: list[float], setup_s: float, updates: list[float], rss_kb: int
) -> dict[str, float]:
    lat_ms = sorted(x * 1e3 for x in latencies)
    index, _ = tail_rank(len(lat_ms))
    return {
        "setup_s": setup_s,
        "p50_ms": statistics.median(lat_ms),
        "tail_ms": lat_ms[index],
        "throughput_qps": len(lat_ms) / sum(cycles),
        "rss_mb": rss_kb / 1024.0,
        # Mean, not median, over the steps: a scoped rebind costs either a
        # few ms or 40-200 ms (surviving bay legs are re-checked).
        "update_ms": statistics.fmean(updates),
    }


def trial_metrics(trial: Trial) -> dict[str, float]:
    """The end-to-end metrics of one trial alone (a diagnostic)."""
    return _summary(
        trial.latencies,
        _cycles(trial),
        trial.setup_s,
        [u["update_ms"] for u in trial.updates],
        trial.rss_kb,
    )


def end_to_end(result: PassResult) -> dict[str, tuple[float, str]]:
    """The user-visible metrics of one untraced pass.

    The trials repeat identical work, so every unit of it has one sample
    per trial: each request (its latency, and its cycle from send to the
    next send), each rebind step, each set-up stage.  Each unit counts
    with its best sample, and the metrics are computed over those as over
    one trial: ``p50_ms`` and ``tail_ms`` over the requests' best
    latencies, ``throughput_qps`` as requests over the sum of their best
    cycles, ``setup_s`` as the sum of the stages' best times,
    ``update_ms`` as the mean of the steps' best times.

    The host only ever adds time.  On the 2-CPU shared reference host a
    fixed 30 ms loop took 1 to 2.2 times its quiet time from one second
    to the next, so a median over one stream, or the best whole trial,
    moved with how busy the host was; a unit's best of its repeats is its
    time when the host left it alone (``timeit``'s best of repeats, per
    unit of work).  A change that makes a request, a step or a stage
    slower makes every repeat of it slower, the best one included.  A
    host that stays slow for a whole run still slows every repeat; the
    calibration diagnostic shows when that happened.

    ``rss_mb`` is the first trial's: a forked server's peak RSS counts
    the pages it shares with the benchmark process, which grows a little
    with every trial.
    """
    full = max(len(t.latencies) for t in result.trials)
    trials = [t for t in result.trials if t.updates and len(t.latencies) == full]
    if not trials:
        raise RuntimeError("no trial served its whole stream")

    def best(rows: list[list[float]]) -> list[float]:
        return [min(column) for column in zip(*rows)]

    stages = best([list(t.stages.values()) for t in trials])
    values = _summary(
        best([t.latencies for t in trials]),
        best([_cycles(t) for t in trials]),
        sum(stages),
        best([[u["update_ms"] for u in t.updates] for t in trials]),
        trials[0].rss_kb,
    )
    return {name: (values[name], unit) for name, unit in UNITS.items()}


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host speed, diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0
