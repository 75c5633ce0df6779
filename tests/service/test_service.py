"""End-to-end tests of the routing service.

The container ships no pytest-asyncio, so every test drives its own event
loop with ``asyncio.run``.  Transport-level behaviour (keep-alive, raw
response bytes) goes over real sockets via :class:`ServiceClient`; pure
dispatch behaviour uses :meth:`RoutingService.handle` directly.

The headline test is the differential one: N concurrent clients hitting
the service must get responses **byte-identical** to payloads computed
from a cache-less in-process engine — caches, batching, and coalescing
may only change timing, never answers.
"""

import asyncio
import json

import numpy as np
import pytest

from repro.core.abstraction import build_abstraction
from repro.graphs.ldel import build_ldel
from repro.routing import QueryEngine
from repro.routing.engine import abstraction_digest
from repro.scenarios import perturbed_grid_scenario
from repro.service import (
    ContractError,
    EngineWorker,
    InstanceRegistry,
    RoutingService,
    ServiceClient,
    outcome_payload,
)


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


def _reference_engine(inst):
    """Cache-less engine over the same abstraction — the oracle."""
    _, graph, abst = inst
    return QueryEngine(abst, "hull", udg=graph.udg, caching=False)


def _expected_route_bytes(engine, digest, pairs):
    """Serialize the envelope exactly as the service does."""
    results = [
        outcome_payload(
            out, engine.abstraction.points, engine.optimal(out.source, out.target)
        )
        for out in engine.route_many(pairs)
    ]
    envelope = {"instance": digest, "mode": "hull", "results": results}
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


class TestDifferential:
    def test_concurrent_clients_byte_identical(self, inst):
        sc, graph, abst = inst
        rng = np.random.default_rng(11)
        pairs = [
            (int(s), int(t))
            for s, t in rng.integers(0, sc.n, size=(24, 2))
        ]
        digest = abstraction_digest(abst)
        oracle = _reference_engine(inst)
        expected = {
            pair: _expected_route_bytes(oracle, digest, [pair])
            for pair in pairs
        }

        async def run():
            reg, instance = _registry(inst)
            service = RoutingService(reg)
            await service.start(port=0)
            try:
                chunks = [pairs[i::6] for i in range(6)]

                async def one_client(chunk):
                    mismatches = 0
                    async with ServiceClient("127.0.0.1", service.port) as c:
                        for s, t in chunk:
                            status, _, raw = await c.post(
                                "/v1/route", {"source": s, "target": t}
                            )
                            assert status == 200
                            if raw != expected[(s, t)]:
                                mismatches += 1
                    return mismatches

                totals = await asyncio.gather(*map(one_client, chunks))
                assert instance.worker.stats.route_pairs == len(pairs)
                return sum(totals)
            finally:
                await service.shutdown()

        assert asyncio.run(run()) == 0

    def test_batch_endpoint_matches_route_many(self, inst):
        sc, graph, abst = inst
        rng = np.random.default_rng(17)
        pairs = [
            (int(s), int(t))
            for s, t in rng.integers(0, sc.n, size=(10, 2))
        ]
        digest = abstraction_digest(abst)
        expected = _expected_route_bytes(_reference_engine(inst), digest, pairs)

        async def run():
            reg, _ = _registry(inst)
            service = RoutingService(reg)
            await service.start(port=0)
            try:
                async with ServiceClient("127.0.0.1", service.port) as c:
                    status, _, raw = await c.post(
                        "/v1/route/batch",
                        {"pairs": [list(p) for p in pairs]},
                    )
                assert status == 200
                return raw
            finally:
                await service.shutdown()

        assert asyncio.run(run()) == expected


class TestEndpoints:
    def test_healthz_and_metrics_contract(self, inst):
        async def run():
            reg, instance = _registry(inst)
            service = RoutingService(reg)
            try:
                status, body = await service.handle("GET", "/healthz")
                assert status == 200
                assert body["status"] == "ok" and body["instances"] == 1
                status, _ = await service.handle(
                    "POST", "/v1/route", {"source": 0, "target": 40}
                )
                assert status == 200
                status, body = await service.handle("GET", "/metrics")
                assert status == 200
                svc = body["service"]
                assert svc["requests_total"] >= 2
                assert svc["route_pairs"] == 1
                assert set(svc["latency"]) == {
                    "count", "samples", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
                }
                assert svc["latency"]["samples"] >= 2
                assert svc["shed_total"] == 0
                row = body["instances"][instance.digest]
                assert row["worker"]["route_pairs"] == 1
                assert "engine" in row and "caches" in row
                json.dumps(body, sort_keys=True)  # JSON-ready end to end
            finally:
                await reg.close()

        asyncio.run(run())

    def test_locate_matches_engine(self, inst):
        oracle = _reference_engine(inst)

        async def run():
            reg, instance = _registry(inst)
            try:
                status, body = await service_locate(reg, {"node": 5})
                assert status == 200
                assert body["results"][0]["node"] == 5
                status, body = await service_locate(reg, {"nodes": [0, 5, 7]})
                assert status == 200
                return body["results"]
            finally:
                await reg.close()

        async def service_locate(reg, payload):
            return await RoutingService(reg).handle(
                "POST", "/v1/locate", payload
            )

        results = asyncio.run(run())
        for row in results:
            loc = oracle.locate(row["node"])
            if loc is None:
                assert row["location"] is None
            else:
                assert row["location"] == {
                    "hole_id": loc.hole_id,
                    "bay_index": loc.bay_index,
                }

    def test_mode_override_is_echoed(self, inst):
        async def run():
            reg, _ = _registry(inst)
            service = RoutingService(reg)
            try:
                status, body = await service.handle(
                    "POST",
                    "/v1/route",
                    {"source": 0, "target": 40, "mode": "visibility"},
                )
                assert status == 200 and body["mode"] == "visibility"
            finally:
                await reg.close()

        asyncio.run(run())

    def test_error_contract(self, inst):
        async def run():
            reg, _ = _registry(inst)
            service = RoutingService(reg)
            try:
                status, body = await service.handle(
                    "POST", "/v1/route", {"source": -1, "target": 2}
                )
                assert status == 400
                assert body["error"]["code"] == "invalid_request"
                assert "'source'" in body["error"]["message"]

                status, body = await service.handle("GET", "/nope")
                assert status == 404 and body["error"]["code"] == "not_found"

                status, body = await service.handle(
                    "POST",
                    "/v1/route",
                    {"source": 0, "target": 1, "instance": "feedfacefeedface"},
                )
                assert status == 404
                assert body["error"]["code"] == "unknown_instance"

                status, body = await service.handle("POST", "/healthz")
                assert status == 405
                assert body["error"]["code"] == "method_not_allowed"
            finally:
                await reg.close()

        asyncio.run(run())

    def test_create_instance_roundtrip(self, inst):
        async def run():
            reg = InstanceRegistry()
            service = RoutingService(reg)
            try:
                status, body = await service.handle(
                    "POST",
                    "/v1/instances",
                    {"width": 6, "hole_count": 0, "seed": 1},
                )
                assert status == 200
                digest = body["instance"]["digest"]
                # Idempotent: same parameters, same engine.
                status, body = await service.handle(
                    "POST",
                    "/v1/instances",
                    {"width": 6, "hole_count": 0, "seed": 1},
                )
                assert status == 200
                assert body["instance"]["digest"] == digest
                assert len(reg) == 1
                status, body = await service.handle("GET", "/v1/instances")
                assert status == 200
                assert [row["digest"] for row in body["instances"]] == [digest]
                status, body = await service.handle(
                    "POST", "/v1/instances", {"width": 1000}
                )
                assert status == 400
            finally:
                await reg.close()

        asyncio.run(run())


class TestRegistry:
    def test_lookup_and_prefixes(self, inst):
        async def run():
            reg, instance = _registry(inst)
            try:
                sc, graph, abst = inst
                assert reg.register(abst, udg=graph.udg) is instance
                assert reg.get(None) is instance
                assert reg.get(instance.digest) is instance
                assert reg.get(instance.digest[:12]) is instance
                with pytest.raises(ContractError):
                    reg.get("feedfacefeedface")
                with pytest.raises(ContractError):
                    reg.get(instance.digest[:4])  # too short for a prefix
            finally:
                await reg.close()

        asyncio.run(run())

    def test_empty_registry_404s(self):
        reg = InstanceRegistry()
        with pytest.raises(ContractError) as exc_info:
            reg.get(None)
        assert exc_info.value.status == 404


class TestWorker:
    def test_backlog_coalesces_concurrent_requests(self, inst):
        """Requests that queue before the worker runs drain as one call."""

        async def run():
            worker = EngineWorker(_reference_engine(inst))
            try:
                results = await asyncio.gather(
                    *[worker.route([(0, 40 + i)]) for i in range(6)]
                )
            finally:
                await worker.stop()
            return worker.stats, results

        stats, results = asyncio.run(run())
        assert stats.route_pairs == 6
        assert stats.route_requests == 6
        # Coalesced from the backlog, not one call per request.
        assert stats.route_batches < stats.route_requests
        for i, payloads in enumerate(results):
            assert len(payloads) == 1
            assert payloads[0]["source"] == 0
            assert payloads[0]["target"] == 40 + i

    def test_mixed_modes_split_groups(self, inst):
        async def run():
            worker = EngineWorker(_reference_engine(inst))
            try:
                a, b = await asyncio.gather(
                    worker.route([(0, 40)], mode="hull"),
                    worker.route([(0, 40)], mode="visibility"),
                )
            finally:
                await worker.stop()
            return worker.stats, a, b

        stats, a, b = asyncio.run(run())
        # Different modes must not be merged into one route_many call.
        assert stats.route_batches == 2
        assert a[0]["delivered"] and b[0]["delivered"]

    def test_stop_rejects_new_and_drains_pending(self, inst):
        async def run():
            worker = EngineWorker(_reference_engine(inst))
            first = await worker.route([(0, 40)])
            await worker.stop()
            assert first[0]["delivered"]
            with pytest.raises(RuntimeError):
                await worker.route([(0, 41)])

        asyncio.run(run())

    def test_error_propagates_to_caller(self, inst):
        async def run():
            worker = EngineWorker(_reference_engine(inst))
            try:
                with pytest.raises(Exception):
                    # Out-of-range node: the engine call raises in the
                    # worker thread and the future must carry it back.
                    await worker.route([(0, 10**9)])
                # The worker survives a failed call.
                ok = await worker.route([(0, 40)])
                assert ok[0]["delivered"]
            finally:
                await worker.stop()

        asyncio.run(run())
