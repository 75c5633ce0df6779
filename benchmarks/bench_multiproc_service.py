"""E18 — multi-process serving: aggregate qps, backpressure, live churn.

Three phases over the E1 acceptance instance (n≈450, 2 holes), all
byte-differentially verified against a cache-less in-process engine:

1. **Single-process baseline** — the E17 configuration (one process, one
   ``EngineWorker``, ``batch_window=0``) re-measured on this machine.
   Both qps phases measure **steady state**: a warmup sweep over the pair
   pool runs first (and is recorded as ``warmup_s``), because a worker's
   first touch of a pair pays the ground-truth Dijkstra behind
   ``optimal`` — a per-process, per-pair one-time cost that would
   otherwise dominate a short run and say nothing about serving rate.
2. **Process group** — an :class:`~repro.service.ServiceSupervisor` with
   ``--workers 4`` semantics: four forked workers behind one
   ``SO_REUSEPORT`` port, each serving a per-process engine over the
   fork-inherited (copy-on-write) instance from the shared
   :class:`~repro.service.InstanceStore`.  Aggregate qps is compared to
   both the fresh single-process number and the committed E17 baseline
   (the ≥2.5× acceptance bar); every response's raw bytes must match the
   oracle.
3. **Churn under traffic** — a deterministic movement-only
   :class:`~repro.analysis.ChurnRebinder` schedule rebinds every worker
   (a full cache flush, through each worker's engine queue) while
   clients keep routing; measures per-step broadcast rebind latency,
   query availability (error rate excluding deliberate 429s must stay
   under 1%), and a quiesced post-churn differential on the final
   topology (0 mismatches required).

Note on cores: this container exposes a single CPU, so the 4-worker
aggregate measures serving-path efficiency (admission, fast-path payload
cache, kernel accept balancing) rather than true parallel speedup; the
artifact records the core count so cross-machine numbers aren't
misread.  The committed artifact lands in both the module's
``BENCH_multiproc_service.json`` (conftest) and the E18-named
``BENCH_multiproc.json``.
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis import ChurnRebinder, make_instance
from repro.routing import QueryEngine, sample_pairs
from repro.routing.engine import abstraction_digest
from repro.service import (
    InstanceRegistry,
    InstanceStore,
    RoutingService,
    ServiceClient,
    ServiceSupervisor,
    outcome_payload,
)
from repro.service.metrics import percentile

# The E1/E17 acceptance instance and the committed E17 headline number
# (EXPERIMENTS.md, batch_window=0 row) the ≥2.5× criterion is pinned to.
INST_PARAMS = dict(
    width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
)
E17_BASELINE_QPS = 471.7
WORKERS = 4
CLIENTS = 8
REQUESTS_PER_CLIENT = 100
DISTINCT_PAIRS = 64
CHURN_STEPS = 4
CHURN_CLIENTS = 3
CHURN_MIN_OK = 60


def _expected_bytes(oracle, digest, pairs):
    """Exact ``/v1/route/batch``-shaped bytes for a one-pair request."""
    out = {}
    for s, t in pairs:
        outcome = oracle.route(s, t)
        envelope = {
            "instance": digest,
            "mode": "hull",
            "results": [
                outcome_payload(
                    outcome, oracle.abstraction.points, oracle.optimal(s, t)
                )
            ],
        }
        out[(s, t)] = json.dumps(envelope, sort_keys=True).encode("utf-8")
    return out


def _schedule(rng, pool):
    idx = rng.integers(0, len(pool), size=(CLIENTS, REQUESTS_PER_CLIENT))
    return [[pool[i] for i in row] for row in idx]


async def _drive(port, schedule, expected):
    """Run the client fleet against ``port``; returns (latencies, mismatches)."""
    latencies = []
    mismatches = 0

    async def client(pairs):
        nonlocal mismatches
        async with ServiceClient("127.0.0.1", port) as c:
            for s, t in pairs:
                t0 = time.perf_counter()
                status, _, raw = await c.post(
                    "/v1/route", {"source": s, "target": t}
                )
                latencies.append(time.perf_counter() - t0)
                assert status == 200
                if raw != expected[(s, t)]:
                    mismatches += 1

    await asyncio.gather(*(client(chunk) for chunk in schedule))
    return latencies, mismatches


async def _warm_pool(port, pool, connections):
    """Sweep the whole pair pool over many short connections.

    Each connection lands on one worker (the kernel balances at accept
    time), and one ``/v1/route/batch`` over the full pool fills that
    worker's engine + response caches; enough connections reach every
    worker with overwhelming probability.  Steady-state serving is what
    the qps phases measure — the cold first pass is recorded separately.
    """
    for _ in range(connections):
        async with ServiceClient("127.0.0.1", port) as c:
            status, _, _ = await c.post(
                "/v1/route/batch", {"pairs": [list(p) for p in pool]}
            )
            assert status == 200


def _phase_single(inst, pool, schedule, expected):
    async def run():
        registry = InstanceRegistry()
        registry.register(inst.abstraction, udg=inst.graph.udg)
        service = RoutingService(registry)
        await service.start(port=0)
        try:
            t0 = time.perf_counter()
            await _warm_pool(service.port, pool, 1)
            cold_s = time.perf_counter() - t0
            started = time.perf_counter()
            latencies, mismatches = await _drive(
                service.port, schedule, expected
            )
            elapsed = time.perf_counter() - started
        finally:
            await service.shutdown()
        return latencies, elapsed, mismatches, cold_s

    return asyncio.run(run())


def _phase_group(store, pool, schedule, expected):
    with ServiceSupervisor(store, workers=WORKERS, warm_nodes=8) as sup:

        async def run():
            t0 = time.perf_counter()
            # Many more connections than workers: every worker warmed
            # w.h.p. (accept balancing is hash-based, not round-robin).
            await _warm_pool(sup.port, pool, WORKERS * 6)
            cold_s = time.perf_counter() - t0
            started = time.perf_counter()
            latencies, mismatches = await _drive(sup.port, schedule, expected)
            return latencies, time.perf_counter() - started, mismatches, cold_s

        latencies, elapsed, mismatches, cold_s = asyncio.run(run())
        stats = sup.stats()
    fast_path = 0
    pids = set()
    for row in stats:
        pids.add(row["pid"])
        for per_instance in row["instances"].values():
            fast_path += per_instance["worker"]["fast_path"]
    return latencies, elapsed, mismatches, fast_path, len(pids), cold_s


def _phase_churn(inst, store, pool, report_rows):
    """Churn rebinds broadcast to a live 4-worker group under traffic."""
    rebinder = ChurnRebinder(
        inst.scenario, steps=CHURN_STEPS, seed=29, move_fraction=0.12
    )
    outcomes = {"ok": 0, "shed": 0, "failed": 0}
    rebind_rows = []

    async def traffic(port, stop_event, seed):
        rng = np.random.default_rng(seed)
        while not stop_event.is_set():
            pairs = [pool[i] for i in rng.integers(0, len(pool), size=8)]
            async with ServiceClient("127.0.0.1", port) as c:
                for s, t in pairs:
                    try:
                        status, _, _ = await c.post(
                            "/v1/route", {"source": s, "target": t}
                        )
                    except (OSError, asyncio.IncompleteReadError):
                        outcomes["failed"] += 1
                        continue
                    if status == 200:
                        outcomes["ok"] += 1
                    elif status == 429:
                        outcomes["shed"] += 1
                    else:
                        outcomes["failed"] += 1
            await asyncio.sleep(0)

    with ServiceSupervisor(
        store, workers=WORKERS, warm_nodes=8, queue_limit=256
    ) as sup:
        async def run_churn():
            stop_event = asyncio.Event()
            tasks = [
                asyncio.ensure_future(traffic(sup.port, stop_event, 31 + i))
                for i in range(CHURN_CLIENTS)
            ]
            last_step = None
            steps_iter = rebinder.steps()
            try:
                while True:
                    # The LDel²+abstraction rebuild is CPU-heavy; pull it
                    # off the loop so background traffic keeps flowing
                    # through the rebuild, not just between steps.
                    step = await asyncio.to_thread(next, steps_iter, None)
                    if step is None:
                        break
                    t0 = time.perf_counter()
                    records = await asyncio.to_thread(
                        sup.broadcast_rebind, step.abstraction, step.udg
                    )
                    broadcast_ms = (time.perf_counter() - t0) * 1e3
                    digests = {r["digest"] for r in records}
                    assert len(digests) == 1, "workers diverged on rebind"
                    rebind_rows.append(
                        {
                            "step": step.step,
                            "event": step.event,
                            "rebuild_ms": round(step.rebuild_ms, 2),
                            "broadcast_ms": round(broadcast_ms, 2),
                            "worker_rebind_ms": [
                                round(r["rebind_ms"], 2) for r in records
                            ],
                        }
                    )
                    last_step = step
                    # Serve between steps: the rebuild and broadcast run
                    # in threads but still hold the GIL most of the time
                    # on this 1-core box, so the between-step window is
                    # where the availability sample mostly accumulates.
                    deadline = time.perf_counter() + 0.15
                    while time.perf_counter() < deadline:
                        await asyncio.sleep(0.01)
            finally:
                stop_event.set()
                await asyncio.gather(*tasks)
            return last_step

        last_step = asyncio.run(run_churn())

        # Quiesced post-churn differential: every worker must answer on
        # the final topology, byte-identical to a cache-less oracle.
        final_digest = abstraction_digest(last_step.abstraction)
        oracle = QueryEngine(
            last_step.abstraction, "hull", udg=last_step.udg, caching=False
        )
        check_pairs = pool[:16]
        expected = _expected_bytes(oracle, final_digest, check_pairs)

        async def verify():
            mismatches = 0
            for _ in range(WORKERS * 2):  # sample every worker w.h.p.
                async with ServiceClient("127.0.0.1", sup.port) as c:
                    for s, t in check_pairs:
                        status, _, raw = await c.post(
                            "/v1/route", {"source": s, "target": t}
                        )
                        assert status == 200
                        if raw != expected[(s, t)]:
                            mismatches += 1
            return mismatches

        post_mismatches = asyncio.run(verify())

    served = outcomes["ok"] + outcomes["failed"]
    error_rate = outcomes["failed"] / served if served else 0.0
    assert outcomes["ok"] >= CHURN_MIN_OK, (
        f"availability sample too thin: {outcomes['ok']} ok requests "
        f"during churn (need >= {CHURN_MIN_OK})"
    )
    report_rows.append(
        {
            "phase": "churn-under-traffic",
            "steps": CHURN_STEPS,
            "requests_ok": outcomes["ok"],
            "shed_429": outcomes["shed"],
            "failed": outcomes["failed"],
            "error_rate": round(error_rate, 5),
            "mean_broadcast_ms": round(
                float(np.mean([r["broadcast_ms"] for r in rebind_rows])), 2
            ),
            "post_churn_mismatches": post_mismatches,
        }
    )
    return rebind_rows, error_rate, post_mismatches, outcomes


def test_e18_multiproc_service(report):
    inst = make_instance(**INST_PARAMS)
    digest = abstraction_digest(inst.abstraction)
    oracle = QueryEngine(
        inst.abstraction, "hull", udg=inst.graph.udg, caching=False
    )
    rng = np.random.default_rng(21)
    pool = [
        (int(s), int(t))
        for s, t in sample_pairs(inst.n, DISTINCT_PAIRS, rng, distinct=True)
    ]
    expected = _expected_bytes(oracle, digest, pool)
    schedule = _schedule(rng, pool)

    store = InstanceStore()
    store.publish(
        inst.abstraction, inst.graph.udg, mode="hull", params=INST_PARAMS
    )

    rows = []
    # Phase 1: fresh single-process baseline (E17 configuration),
    # warmed over the pool first — both phases measure steady state.
    lat1, elapsed1, mm1, cold1_s = _phase_single(
        inst, pool, schedule, expected
    )
    single_qps = len(lat1) / elapsed1
    ms1 = [s * 1000.0 for s in lat1]
    rows.append(
        {
            "phase": "single-process",
            "workers": 1,
            "requests": len(lat1),
            "qps": round(single_qps, 1),
            "p50_ms": round(percentile(ms1, 50.0), 3),
            "p99_ms": round(percentile(ms1, 99.0), 3),
            "warmup_s": round(cold1_s, 2),
            "mismatches": mm1,
        }
    )

    # Phase 2: the 4-worker SO_REUSEPORT group, same load.
    lat4, elapsed4, mm4, fast_path, pids, cold4_s = _phase_group(
        store, pool, schedule, expected
    )
    group_qps = len(lat4) / elapsed4
    ms4 = [s * 1000.0 for s in lat4]
    rows.append(
        {
            "phase": "process-group",
            "workers": WORKERS,
            "requests": len(lat4),
            "qps": round(group_qps, 1),
            "p50_ms": round(percentile(ms4, 50.0), 3),
            "p99_ms": round(percentile(ms4, 99.0), 3),
            "warmup_s": round(cold4_s, 2),
            "fast_path_hits": fast_path,
            "workers_observed": pids,
            "mismatches": mm4,
        }
    )

    # Phase 3: live churn.
    rebind_rows, error_rate, post_mismatches, outcomes = _phase_churn(
        inst, store, pool, rows
    )

    ratio_committed = group_qps / E17_BASELINE_QPS
    ratio_fresh = group_qps / single_qps
    summary = {
        "instance_n": inst.n,
        "cpu_count": os.cpu_count(),
        "workers": WORKERS,
        "single_process_qps": round(single_qps, 1),
        "group_qps": round(group_qps, 1),
        "single_warmup_s": round(cold1_s, 2),
        "group_warmup_s": round(cold4_s, 2),
        "e17_committed_qps": E17_BASELINE_QPS,
        "ratio_vs_e17_committed": round(ratio_committed, 2),
        "ratio_vs_fresh_single": round(ratio_fresh, 2),
        "total_mismatches": mm1 + mm4 + post_mismatches,
        "churn_error_rate": round(error_rate, 5),
        "churn_shed_429": outcomes["shed"],
        "rebinds": rebind_rows,
    }
    rows.append(
        {
            "phase": "summary",
            "qps_x_vs_e17": round(ratio_committed, 2),
            "qps_x_vs_fresh": round(ratio_fresh, 2),
            "mismatches": summary["total_mismatches"],
            "churn_error_rate": summary["churn_error_rate"],
        }
    )
    report(
        rows,
        title=(
            f"E18: multi-process serving on n={inst.n} "
            f"({WORKERS} workers, {CLIENTS} clients, verified + churn)"
        ),
    )

    # The E18-named committed artifact (ISSUE acceptance).
    artifact_dir = Path("bench-artifacts")
    artifact_dir.mkdir(exist_ok=True)
    (artifact_dir / "BENCH_multiproc.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )

    # Acceptance bars.
    assert summary["total_mismatches"] == 0
    assert error_rate < 0.01
    assert ratio_committed >= 2.5, (
        f"aggregate qps {group_qps:.1f} is below 2.5x the committed E17 "
        f"baseline {E17_BASELINE_QPS}"
    )
