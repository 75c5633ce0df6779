"""Multi-process serving tier: store, supervisor, parity, fork-safety.

The core guarantee under test is the differential one — an N-worker
SO_REUSEPORT process group must answer every route request with bytes
identical to a single-process service over the same published instance —
plus the fork-safety contract: engines, caches, and metrics created in
one process never leak mutations into another (only the immutable
abstraction is shared, copy-on-write).

Everything here forks real processes; scenarios are kept small so the
whole module stays in test-suite budget on one core.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.analysis.churn import ChurnRebinder
from repro.core.abstraction import build_abstraction
from repro.graphs.ldel import build_ldel
from repro.routing import QueryEngine
from repro.routing.engine import abstraction_digest
from repro.scenarios import perturbed_grid_scenario
from repro.service import (
    InstanceRegistry,
    InstanceStore,
    RoutingService,
    ServiceClient,
    ServiceSupervisor,
    outcome_payload,
)
from repro.service.supervisor import WorkerRuntime


@pytest.fixture(scope="module")
def inst():
    sc = perturbed_grid_scenario(
        width=9, height=9, hole_count=1, hole_scale=2.0, seed=3
    )
    graph = build_ldel(sc.points)
    return sc, graph, build_abstraction(graph)


@pytest.fixture(scope="module")
def store(inst):
    sc, graph, abst = inst
    s = InstanceStore()
    s.publish(abst, graph.udg, mode="hull", params={"seed": 3})
    return s


def _expected_bytes(abst, udg, pairs):
    """The route/batch envelope a cache-less oracle engine produces."""
    digest = abstraction_digest(abst)
    oracle = QueryEngine(abst, "hull", udg=udg, caching=False)
    results = [
        outcome_payload(
            out, oracle.abstraction.points, oracle.optimal(out.source, out.target)
        )
        for out in oracle.route_many(pairs)
    ]
    envelope = {"instance": digest, "mode": "hull", "results": results}
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


class TestInstanceStore:
    def test_publish_is_idempotent_and_live(self, inst):
        sc, graph, abst = inst
        store = InstanceStore()
        first = store.publish(abst, graph.udg, mode="hull")
        again = store.publish(abst, graph.udg, mode="hull")
        assert first is again and len(store) == 1
        loaded_abst, loaded_udg = store.load(first.digest)
        # Fork inheritance shares the very objects — zero copies.
        assert loaded_abst is abst and loaded_udg is graph.udg

    def test_fork_only_entry_refuses_foreign_load(self, inst):
        sc, graph, abst = inst
        store = InstanceStore()
        entry = store.publish(abst, graph.udg, mode="hull")
        # A store that did not fork from the publisher holds nothing.
        with pytest.raises(KeyError):
            InstanceStore().load(entry.digest)
        with pytest.raises(KeyError):
            store.load("no-such-digest")


class TestWorkerRuntime:
    def test_bootstrap_builds_fresh_per_process_state(self, store):
        runtime = WorkerRuntime(store, warm_nodes=8)
        reg_a = runtime.bootstrap()
        reg_b = runtime.bootstrap()
        try:
            a = reg_a.get(None)
            b = reg_b.get(None)
            assert a.digest == b.digest
            # Engines, workers, and metrics are per-bootstrap (what each
            # forked process gets); only the abstraction is shared.
            assert a.worker is not b.worker
            assert a.metrics is not b.metrics
            assert a.worker.engine is not b.worker.engine  # type: ignore[attr-defined]
            assert a.worker.engine.abstraction is b.worker.engine.abstraction
        finally:
            asyncio.run(reg_a.close())
            asyncio.run(reg_b.close())


class TestMultiprocParity:
    def test_n_worker_responses_byte_identical_to_single_process(self, inst, store):
        sc, graph, abst = inst
        rng = np.random.default_rng(23)
        pairs = [
            (int(s), int(t)) for s, t in rng.integers(0, sc.n, size=(16, 2))
        ]
        expected = {
            pair: _expected_bytes(abst, graph.udg, [pair]) for pair in pairs
        }

        async def single_process():
            reg = InstanceRegistry()
            reg.register(abst, udg=graph.udg)
            service = RoutingService(reg)
            await service.start(port=0)
            try:
                out = {}
                async with ServiceClient("127.0.0.1", service.port) as c:
                    for s, t in pairs:
                        status, _, raw = await c.post(
                            "/v1/route", {"source": s, "target": t}
                        )
                        assert status == 200
                        out[(s, t)] = raw
                return out
            finally:
                await service.shutdown()

        single = asyncio.run(single_process())
        assert single == expected

        async def against_group(port):
            out = {}
            pids = set()
            for s, t in pairs:
                # One connection per request spreads load across workers
                # (the kernel balances at accept time).
                async with ServiceClient("127.0.0.1", port) as c:
                    status, body, _ = await c.get("/healthz")
                    pids.add(body["pid"])
                    status, _, raw = await c.post(
                        "/v1/route", {"source": s, "target": t}
                    )
                    assert status == 200
                    out[(s, t)] = raw
            return out, pids

        with ServiceSupervisor(store, workers=2) as sup:
            group, pids = asyncio.run(against_group(sup.port))
        assert group == expected == single
        assert len(pids) == 2, "kernel never balanced across both workers"

    def test_healthz_reports_worker_identity(self, store):
        async def probe(port):
            async with ServiceClient("127.0.0.1", port) as c:
                _, body, _ = await c.get("/healthz")
            return body

        with ServiceSupervisor(store, workers=2) as sup:
            body = asyncio.run(probe(sup.port))
            handle_pids = {h.pid for h in sup.handles()}
        assert body["pid"] in handle_pids
        assert body["worker"].startswith("worker-")


class TestChurnRebindUnderGroup:
    def test_broadcast_rebind_converges_all_workers(self, inst, store):
        sc, graph, abst = inst
        rebinder = ChurnRebinder(sc, steps=2, seed=11, move_fraction=0.1)
        original_digest = abstraction_digest(abst)

        async def route_bytes(port, pairs):
            async with ServiceClient("127.0.0.1", port) as c:
                _, _, raw = await c.post(
                    "/v1/route/batch", {"pairs": [list(p) for p in pairs]}
                )
            return raw

        pairs = [(0, 40), (3, 77), (10, 10)]
        with ServiceSupervisor(store, workers=2) as sup:
            last = None
            for step in rebinder.steps():
                records = sup.broadcast_rebind(step.abstraction, step.udg)
                digests = {r["digest"] for r in records}
                assert len(digests) == 1, "workers diverged on rebind"
                assert digests != {original_digest}
                last = step
                assert all(r["rebind_ms"] > 0.0 for r in records)
            # After the final rebind, answers must match a cache-less
            # oracle over the final topology — from every worker.
            expected = _expected_bytes(last.abstraction, last.udg, pairs)
            for _ in range(4):  # several connections → both workers sampled
                assert asyncio.run(route_bytes(sup.port, pairs)) == expected


class TestChurnUnderTraffic:
    """Churn rebinds broadcast to a live group while clients keep routing.

    Background clients run throughout; after each broadcast the test
    waits (under a deadline) until they have completed a fixed number of
    requests, so the availability sample is sized by request count, not
    by wall-clock windows.
    """

    STEPS = 4
    CLIENTS = 3
    REQUESTS_PER_STEP = 20
    MIN_OK = 60
    WAIT_S = 60.0

    def test_churn_rebinds_under_background_traffic(self, inst, store):
        sc, graph, abst = inst
        rebinder = ChurnRebinder(
            sc, steps=self.STEPS, seed=29, move_fraction=0.12
        )
        assert {e.kind for e in rebinder.schedule} == {"move"}
        rng = np.random.default_rng(31)
        pool = [
            (int(s), int(t)) for s, t in rng.integers(0, sc.n, size=(16, 2))
        ]
        outcomes = {"ok": 0, "shed": 0, "failed": 0}

        def completed():
            return sum(outcomes.values())

        async def background(port, stop, seed):
            client_rng = np.random.default_rng(seed)
            while not stop.is_set():
                # A fresh connection per burst spreads load over workers.
                picks = client_rng.integers(0, len(pool), size=8)
                try:
                    async with ServiceClient("127.0.0.1", port) as c:
                        for i in picks:
                            s, t = pool[i]
                            status, _, _ = await c.post(
                                "/v1/route", {"source": s, "target": t}
                            )
                            if status == 200:
                                outcomes["ok"] += 1
                            elif status == 429:
                                outcomes["shed"] += 1
                            else:
                                outcomes["failed"] += 1
                except (OSError, asyncio.IncompleteReadError):
                    outcomes["failed"] += 1

        async def until_completed(target):
            loop = asyncio.get_running_loop()
            deadline = loop.time() + self.WAIT_S
            while completed() < target:
                assert loop.time() < deadline, (
                    f"background traffic stalled at {completed()} requests"
                )
                await asyncio.sleep(0.005)

        async def churn(sup):
            stop = asyncio.Event()
            clients = [
                asyncio.ensure_future(background(sup.port, stop, 41 + i))
                for i in range(self.CLIENTS)
            ]
            steps = rebinder.steps()
            last = None
            try:
                while True:
                    # Rebuild and broadcast off the loop, so the clients
                    # keep routing through them, not only between steps.
                    step = await asyncio.to_thread(next, steps, None)
                    if step is None:
                        break
                    records = await asyncio.to_thread(
                        sup.broadcast_rebind, step.abstraction, step.udg
                    )
                    assert {r["digest"] for r in records} == {
                        abstraction_digest(step.abstraction)
                    }, f"workers diverged on step {step.step}"
                    last = step
                    await until_completed(
                        completed() + self.REQUESTS_PER_STEP
                    )
            finally:
                stop.set()
                await asyncio.gather(*clients)
            return last

        async def verify(port, expected):
            mismatches = 0
            pids = set()
            for _ in range(16):
                async with ServiceClient("127.0.0.1", port) as c:
                    _, body, _ = await c.get("/healthz")
                    pids.add(body["pid"])
                    for pair in pool[:8]:
                        status, _, raw = await c.post(
                            "/v1/route",
                            {"source": pair[0], "target": pair[1]},
                        )
                        assert status == 200
                        mismatches += raw != expected[pair]
                if len(pids) == 2:
                    break
            return mismatches, pids

        with ServiceSupervisor(store, workers=2, queue_limit=256) as sup:
            last = asyncio.run(churn(sup))
            assert last is not None and last.step == self.STEPS
            # Quiesced differential on the final topology, against a
            # cache-less oracle, from both workers.
            expected = {
                pair: _expected_bytes(last.abstraction, last.udg, [pair])
                for pair in pool[:8]
            }
            mismatches, pids = asyncio.run(verify(sup.port, expected))

        assert outcomes["ok"] >= self.MIN_OK, outcomes
        served = outcomes["ok"] + outcomes["failed"]
        assert outcomes["failed"] / served < 0.01, outcomes
        assert mismatches == 0
        assert len(pids) == 2, "kernel never balanced across both workers"


class TestForkSafety:
    def test_parent_metrics_unaffected_by_worker_traffic(self, inst, store):
        """Traffic served by forked workers must not mutate parent state."""
        sc, graph, abst = inst
        parent_reg = InstanceRegistry()
        parent_instance = parent_reg.register(abst, udg=graph.udg)
        before_worker = dict(parent_instance.worker.stats.snapshot())
        before_cache = parent_instance.metrics.cache_summary()

        async def hammer(port):
            async with ServiceClient("127.0.0.1", port) as c:
                for s, t in [(0, 40), (1, 50), (2, 60)]:
                    status, _, _ = await c.post(
                        "/v1/route", {"source": s, "target": t}
                    )
                    assert status == 200

        with ServiceSupervisor(store, workers=2) as sup:
            asyncio.run(hammer(sup.port))
            stats = sup.stats()

        # The workers really did serve (their own counters moved) ...
        total_pairs = 0
        for row in stats:
            for per_instance in row["instances"].values():
                total_pairs += per_instance["worker"]["route_pairs"]
        assert total_pairs == 3
        # ... while the parent's pre-fork engine/worker/metrics are
        # untouched: post-fork mutation is strictly per-process.
        assert dict(parent_instance.worker.stats.snapshot()) == before_worker
        assert parent_instance.metrics.cache_summary() == before_cache
        asyncio.run(parent_reg.close())
