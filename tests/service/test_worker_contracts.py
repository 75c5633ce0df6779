"""Regression tests for the service-tier concurrency bugfix sweep.

Covers the four satellite bugs of PR 10 plus the new worker contracts
they ride along with:

* a queued backlog coalesces up to the ``max_batch`` pair budget;
* ``stop()`` (and even a killed worker task) must resolve every future;
* ``percentile`` interpolates ranks and ``/metrics`` reports ``samples``;
* ambiguous digest prefixes are a deterministic 409;
* admission control sheds with 429 + ``Retry-After`` and counts it;
* the response fast path never changes bytes and dies on rebind.
"""

import asyncio
import json
import time

import pytest

from repro.analysis.churn import ChurnRebinder
from repro.core.abstraction import build_abstraction
from repro.graphs.ldel import build_ldel
from repro.scenarios import perturbed_grid_scenario
from repro.service import (
    EngineWorker,
    InstanceRegistry,
    RoutingService,
    WorkerOverloadedError,
    WorkerStoppedError,
)
from repro.service.contracts import ContractError
from repro.service.metrics import LatencyReservoir, percentile
from repro.service.registry import ServiceInstance
from repro.simulation.metrics import MetricsCollector


@pytest.fixture(scope="module")
def inst():
    sc = perturbed_grid_scenario(
        width=9, height=9, hole_count=1, hole_scale=2.0, seed=3
    )
    graph = build_ldel(sc.points)
    return sc, graph, build_abstraction(graph)


def _registry(inst, **kw):
    sc, graph, abst = inst
    reg = InstanceRegistry(**kw)
    return reg, reg.register(abst, udg=graph.udg)


def _slowed(worker, seconds):
    """Make each engine batch take at least ``seconds`` (worker thread)."""
    original = worker._serve_route

    def slow(pairs, mode):
        time.sleep(seconds)
        return original(pairs, mode)

    worker._serve_route = slow


class TestBacklogCoalescing:
    def test_full_budget_splits_the_backlog(self, inst):
        """A backlog larger than ``max_batch`` drains in budget-sized calls."""

        async def run():
            reg, instance = _registry(inst, max_batch=2)
            try:
                await asyncio.gather(
                    *[instance.worker.route([(i, 40 + i)]) for i in range(6)]
                )
                return instance.worker.stats
            finally:
                await reg.close()

        stats = asyncio.run(run())
        assert stats.route_requests == 6
        assert stats.route_batches == 3
        assert stats.max_batch_pairs == 2

    def test_backlog_coalesces_below_budget(self, inst):
        async def run():
            reg, instance = _registry(inst, max_batch=64)
            try:
                results = await asyncio.gather(
                    instance.worker.route([(0, 40)]),
                    instance.worker.route([(1, 50)]),
                    instance.worker.route([(2, 60)]),
                )
                stats = instance.worker.stats
                assert stats.route_requests == 3
                # All three queued before the worker ran → one batch.
                assert stats.route_batches == 1
                return results
            finally:
                await reg.close()

        results = asyncio.run(run())
        assert all(len(r) == 1 for r in results)


class TestShutdownDrain:
    def test_stop_resolves_every_future(self, inst):
        """A loaded worker that stops must leave no future pending."""

        async def run():
            reg, instance = _registry(inst)
            _slowed(instance.worker, 0.05)
            tasks = [
                asyncio.ensure_future(instance.worker.route([(i, 40 + i)]))
                for i in range(6)
            ]
            await asyncio.sleep(0)  # let the worker pick up the first
            await instance.worker.stop()
            settled = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(t.done() for t in tasks), "a future was left pending"
            served = [r for r in settled if isinstance(r, list)]
            stopped = [
                r for r in settled if isinstance(r, WorkerStoppedError)
            ]
            # Work queued ahead of the stop sentinel drains; nothing is
            # dropped silently and nothing fails with a foreign error.
            assert len(served) + len(stopped) == len(tasks)
            assert len(served) >= 1
            with pytest.raises(WorkerStoppedError):
                await instance.worker.route([(0, 40)])

        asyncio.run(run())

    def test_killed_worker_task_resolves_queued_futures(self, inst):
        """Even a cancelled (crashed) worker loop fails its queue cleanly."""

        async def run():
            reg, instance = _registry(inst)
            worker = instance.worker
            _slowed(worker, 0.1)
            tasks = [
                asyncio.ensure_future(worker.route([(i, 30 + i)]))
                for i in range(4)
            ]
            await asyncio.sleep(0.02)  # first request is mid-engine-call
            assert worker._task is not None
            worker._task.cancel()  # kill the loaded worker
            await worker.stop()
            settled = await asyncio.gather(*tasks, return_exceptions=True)
            assert all(t.done() for t in tasks)
            for outcome in settled:
                assert isinstance(
                    outcome, (list, WorkerStoppedError, asyncio.CancelledError)
                )
            # The queued (never-started) requests specifically got the
            # clean stop error, not silence.
            assert any(
                isinstance(o, WorkerStoppedError) for o in settled
            )

        asyncio.run(run())

    def test_stopped_worker_maps_to_503_envelope(self, inst):
        async def run():
            reg, _ = _registry(inst)
            service = RoutingService(reg)
            await reg.close()
            status, body = await service.handle(
                "POST", "/v1/route", {"source": 0, "target": 40}
            )
            assert status == 503
            assert body["error"]["code"] == "shutting_down"

        asyncio.run(run())


class TestPercentile:
    def test_empty_and_singleton(self):
        assert percentile([], 99.0) == 0.0
        assert percentile([7.0], 50.0) == 7.0
        assert percentile([7.0], 99.0) == 7.0

    def test_small_window_p99_is_not_the_max(self):
        values = [1.0, 2.0, 3.0]
        assert percentile(values, 100.0) == 3.0
        p99 = percentile(values, 99.0)
        assert p99 < 3.0  # nearest-rank collapsed this onto the max
        assert p99 == pytest.approx(2.98)

    def test_interpolation_between_ranks(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == pytest.approx(2.5)
        assert percentile(values, 25.0) == pytest.approx(1.75)
        assert percentile(values, 0.0) == 1.0

    def test_reservoir_reports_samples(self):
        reservoir = LatencyReservoir(maxlen=4)
        summary = reservoir.summary()
        assert summary["samples"] == 0.0 and summary["p99_ms"] == 0.0
        for v in (0.001, 0.002, 0.003, 0.004, 0.005, 0.006):
            reservoir.record(v)
        summary = reservoir.summary()
        assert summary["count"] == 6.0
        assert summary["samples"] == 4.0  # bounded window, honest size


class TestPrefixLookup:
    @staticmethod
    def _registry_with(digests):
        reg = InstanceRegistry()
        for digest in digests:
            instance = ServiceInstance(
                digest=digest,
                n=1,
                holes=0,
                mode="hull",
                params={},
                worker=None,
                metrics=None,
            )
            reg._instances[digest] = instance
            reg._order.append(digest)
        return reg

    def test_ambiguous_prefix_is_deterministic_409(self):
        shared = "abcdef1234"
        reg = self._registry_with([shared + "x" * 54, shared + "y" * 54])
        with pytest.raises(ContractError) as excinfo:
            reg.get(shared[:8])
        assert excinfo.value.status == 409
        assert excinfo.value.code == "ambiguous_instance"
        # Registration order must not matter: same outcome reversed.
        rev = self._registry_with([shared + "y" * 54, shared + "x" * 54])
        with pytest.raises(ContractError) as excinfo2:
            rev.get(shared[:8])
        assert excinfo2.value.status == 409

    def test_exact_digest_wins_even_when_prefixed(self):
        exact = "a" * 64
        longer = "a" * 64  # a full digest IS a 64-char prefix of itself
        reg = self._registry_with([exact])
        assert reg.get(exact).digest == exact
        assert reg.get(longer).digest == exact

    def test_unique_prefix_resolves(self):
        d1, d2 = "1" * 64, "2" * 64
        reg = self._registry_with([d1, d2])
        assert reg.get("1" * 8).digest == d1
        assert reg.get("2" * 12).digest == d2

    def test_unknown_and_short_prefixes_are_404(self):
        reg = self._registry_with(["3" * 64])
        for bad in ("f" * 8, "3" * 7):  # unknown, and below min length
            with pytest.raises(ContractError) as excinfo:
                reg.get(bad)
            assert excinfo.value.status == 404
            assert excinfo.value.code == "unknown_instance"


class TestAdmissionControl:
    def test_overflow_sheds_with_retry_after(self, inst):
        async def run():
            reg, instance = _registry(inst, queue_limit=1)
            worker = instance.worker
            _slowed(worker, 0.2)
            try:
                first = asyncio.ensure_future(worker.route([(0, 40)]))
                await asyncio.sleep(0.05)  # worker is mid-call now
                second = asyncio.ensure_future(worker.route([(1, 50)]))
                await asyncio.sleep(0)  # second occupies the queue slot
                with pytest.raises(WorkerOverloadedError) as excinfo:
                    await worker.route([(2, 60)])
                assert excinfo.value.retry_after >= 1
                assert worker.stats.shed == 1
                await asyncio.gather(first, second)
            finally:
                await reg.close()

        asyncio.run(run())

    def test_service_maps_shed_to_429_and_counts_it(self, inst):
        async def run():
            reg, instance = _registry(inst, queue_limit=1)
            service = RoutingService(reg)
            _slowed(instance.worker, 0.2)
            try:
                tasks = [
                    asyncio.ensure_future(
                        service.handle(
                            "POST",
                            "/v1/route",
                            {"source": i, "target": 40 + i},
                        )
                    )
                    for i in range(5)
                ]
                results = await asyncio.gather(*tasks)
                statuses = sorted(status for status, _ in results)
                assert 200 in statuses and 429 in statuses
                shed = [body for status, body in results if status == 429]
                for body in shed:
                    assert body["error"]["code"] == "overloaded"
                    assert body["error"]["retry_after"] >= 1
                snap = service.metrics.snapshot()
                assert snap["shed_total"] == len(shed) > 0
                assert snap["shed_by_endpoint"]["POST /v1/route"] == len(shed)
            finally:
                await reg.close()

        asyncio.run(run())


class TestResponseFastPath:
    def test_repeat_pair_served_from_cache_identically(self, inst):
        async def run():
            reg, instance = _registry(inst)
            worker = instance.worker
            try:
                first = await worker.route([(0, 40)])
                assert worker.stats.fast_path == 0
                second = await worker.route([(0, 40)])
                assert worker.stats.fast_path == 1
                assert first == second  # byte-for-byte same payload dicts
                # The engine ran once: the repeat never reached it.
                assert worker.stats.route_batches == 1
            finally:
                await reg.close()

        asyncio.run(run())

    def test_batch_routes_only_uncached_pairs(self, inst):
        """A batch with one cached and one new pair costs one engine route,
        and its bytes equal a fresh worker's answer to the whole batch."""
        batch = [(0, 40), (1, 41)]

        async def run(warm):
            reg, instance = _registry(inst)
            worker = instance.worker
            try:
                if warm:
                    await worker.route(batch[:1])
                queries = worker.engine.stats.queries
                payloads = await worker.route(batch)
                routed = worker.engine.stats.queries - queries
                assert worker.stats.fast_path == 0  # not answered entirely
                return json.dumps(payloads, sort_keys=True), routed
            finally:
                await reg.close()

        warm_bytes, warm_routed = asyncio.run(run(warm=True))
        cold_bytes, cold_routed = asyncio.run(run(warm=False))
        assert (warm_routed, cold_routed) == (1, 2)
        assert warm_bytes == cold_bytes

    def test_cacheless_engine_disables_fast_path(self, inst):
        async def run():
            reg, instance = _registry(inst, caching=False)
            worker = instance.worker
            try:
                await worker.route([(0, 40)])
                await worker.route([(0, 40)])
                assert worker.stats.fast_path == 0
                assert worker.stats.route_batches == 2
            finally:
                await reg.close()

        asyncio.run(run())

    def test_rebind_clears_cache_and_reanswers_on_new_topology(self, inst):
        sc, graph, abst = inst
        step = next(ChurnRebinder(sc, steps=1, seed=5).steps())

        async def run():
            reg, instance = _registry(inst)
            worker = instance.worker
            try:
                before = await worker.route([(0, 40)])
                record = await reg.rebind(None, step.abstraction, step.udg)
                assert record["rebind_ms"] > 0.0
                assert reg.get(None).digest == record["digest"]
                after = await worker.route([(0, 40)])
                # Same pair, new topology: not a stale cache readback.
                assert worker.stats.fast_path == 0
                assert (
                    before[0]["optimal"] != after[0]["optimal"]
                    or before[0]["path"] != after[0]["path"]
                    or before == after  # topologically unlucky but honest
                )
                assert worker.stats.route_batches == 2
            finally:
                await reg.close()

        asyncio.run(run())

    def test_queued_request_behind_rebind_sees_new_topology(self, inst):
        """The fast path is suspended while a rebind is in the queue."""
        sc, graph, abst = inst
        step = next(ChurnRebinder(sc, steps=1, seed=9).steps())

        async def run():
            reg, instance = _registry(inst)
            worker = instance.worker
            try:
                await worker.route([(0, 40)])  # populate the cache
                rebind_task = asyncio.ensure_future(
                    reg.rebind(None, step.abstraction, step.udg)
                )
                await asyncio.sleep(0)
                # Submitted after the rebind: must NOT be answered from
                # the pre-rebind payload cache.
                follow = asyncio.ensure_future(worker.route([(0, 40)]))
                await asyncio.gather(rebind_task, follow)
                assert worker.stats.fast_path == 0
            finally:
                await reg.close()

        asyncio.run(run())
