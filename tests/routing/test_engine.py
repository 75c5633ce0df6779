"""Tests for the batched multi-query routing engine.

The engine's contract is strict: caches may only skip recomputation, never
change a route.  Every test here compares engine output against a cold
:class:`HybridRouter` (or a caching-disabled engine) built over the same
abstraction state.
"""

import numpy as np
import pytest

from repro.core.abstraction import build_abstraction
from repro.graphs.ldel import build_ldel
from repro.graphs.shortest_paths import dijkstra
from repro.routing import HybridRouter, QueryEngine, sample_pairs
from repro.routing.engine import abstraction_digest
from repro.scenarios import perturbed_grid_scenario
from repro.scenarios.mobility import MobilityModel
from repro.simulation.metrics import MetricsCollector
from repro.simulation.tracing import TraceRecorder


def _mk(seed=3, width=9.0, holes=1):
    sc = perturbed_grid_scenario(
        width=width, height=width, hole_count=holes, hole_scale=2.0, seed=seed
    )
    graph = build_ldel(sc.points)
    return sc, graph, build_abstraction(graph)


@pytest.fixture(scope="module")
def inst():
    return _mk()


@pytest.fixture(scope="module")
def pairs(inst):
    sc, _, _ = inst
    rng = np.random.default_rng(5)
    return sample_pairs(sc.n, 25, rng)


def _same_outcome(a, b):
    return (
        a.path == b.path
        and a.case == b.case
        and a.reached == b.reached
        and a.used_fallback == b.used_fallback
    )


class TestConstruction:
    def test_invalid_mode(self, inst):
        _, _, abst = inst
        with pytest.raises(ValueError):
            QueryEngine(abst, "bogus")

    def test_default_udg_is_graph_adjacency(self, inst):
        _, graph, abst = inst
        assert QueryEngine(abst).udg is graph.adjacency


class TestParity:
    @pytest.mark.parametrize("mode", ["hull", "visibility", "delaunay"])
    def test_matches_plain_router(self, inst, pairs, mode):
        _, graph, abst = inst
        router = HybridRouter(abst, mode)
        warm = QueryEngine(abst, mode, udg=graph.udg)
        cold = QueryEngine(abst, mode, udg=graph.udg, caching=False)
        for s, t in pairs:
            base = router.route(s, t)
            assert _same_outcome(base, warm.route(s, t))
            assert _same_outcome(base, cold.route(s, t))
            # A cache hit returns the identical result.
            assert _same_outcome(base, warm.route(s, t))

    def test_route_many_preserves_input_order(self, inst, pairs):
        _, graph, abst = inst
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        workload = pairs[:6] + pairs[:3]  # with duplicates
        outs = engine.route_many(workload)
        assert [(o.source, o.target) for o in outs] == [
            (int(s), int(t)) for s, t in workload
        ]

    def test_route_many_uncached_matches_cached(self, inst, pairs):
        _, graph, abst = inst
        warm = QueryEngine(abst, "hull", udg=graph.udg)
        cold = QueryEngine(abst, "hull", udg=graph.udg, caching=False)
        for a, b in zip(warm.route_many(pairs), cold.route_many(pairs)):
            assert _same_outcome(a, b)


class TestCaches:
    def test_dijkstra_cache_and_optimal(self, inst, pairs):
        _, graph, abst = inst
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        s, t = pairs[0]
        dist, _ = dijkstra(graph.points, graph.udg, s)
        assert engine.optimal(s, t) == pytest.approx(dist[t])
        engine.optimal(s, pairs[1][1])
        assert engine.stats.cache["dijkstra"] == {"hits": 1, "misses": 1}

    @pytest.mark.parametrize("caching", [True, False])
    def test_oracle_bit_identical_to_reference_dijkstra(self, inst, pairs, caching):
        _, graph, abst = inst
        engine = QueryEngine(abst, "hull", udg=graph.udg, caching=caching)
        for s in sorted({s for s, _ in pairs}):
            want, _ = dijkstra(graph.points, graph.udg, s)
            got = engine.distances(s)
            assert {v: d.hex() for v, d in got.items()} == {
                v: d.hex() for v, d in want.items()
            }

    def test_oracle_weights_built_after_rebind_not_in_it(self, inst, pairs):
        # The UDG's edge weights are computed by the first distances()
        # call of a bind, so rebind (update_ms) does not pay for them, and
        # a rebind onto moved coordinates is seen by the next call.
        _, graph, abst = inst
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        s, t = pairs[0]
        engine.optimal(s, t)
        moved = build_abstraction(build_ldel(abst.points * 1.01))
        engine.rebind(moved)
        assert engine._udg_weights is None
        want, _ = dijkstra(moved.points, moved.graph.adjacency, s)
        assert engine.optimal(s, t) == want.get(t, float("inf"))
        assert engine._udg_weights is not None

    def test_metrics_collector_receives_cache_events(self, inst, pairs):
        _, graph, abst = inst
        metrics = MetricsCollector()
        engine = QueryEngine(abst, "hull", udg=graph.udg, metrics=metrics)
        s, t = pairs[0]
        engine.route(s, t)
        engine.route(s, t)
        summary = metrics.cache_summary()
        # The repeat re-runs the same classifications, all from the memo.
        assert summary["locate"]["hits"] == summary["locate"]["misses"] > 0
        assert summary["locate"]["hit_rate"] == pytest.approx(0.5)

    def test_metrics_merge_folds_cache_stats(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.record_cache_event("x", True)
        b.record_cache_event("x", False)
        b.record_cache_event("y", True)
        a.merge(b)
        assert a.cache_stats["x"] == {"hits": 1, "misses": 1}
        assert a.cache_stats["y"] == {"hits": 1, "misses": 0}

    def test_trace_events_only_when_caching(self, inst, pairs):
        _, graph, abst = inst
        s, t = pairs[0]
        on_trace, off_trace = TraceRecorder(), TraceRecorder()
        QueryEngine(abst, "hull", udg=graph.udg, trace=on_trace).route(s, t)
        QueryEngine(
            abst, "hull", udg=graph.udg, trace=off_trace, caching=False
        ).route(s, t)
        assert [e.etype for e in on_trace.events()] == ["engine_query"]
        assert len(off_trace) == 0  # determinism contract: silent

    def test_stats_summary_shape(self, inst, pairs):
        _, graph, abst = inst
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        engine.route_many(pairs[:4])
        s = engine.stats.summary()
        assert s["queries"] == 4
        assert s["batch_queries"] == 4
        assert s["invalidations"] == 0
        assert "locate_hit_rate" in s
        assert "route_result_hit_rate" not in s


class TestInvalidation:
    def test_digest_changes_with_points(self):
        _, _, abst = _mk()
        before = abstraction_digest(abst)
        abst.graph.points[0, 0] += 1e-6
        assert abstraction_digest(abst) != before

    def test_inplace_mutation_flushes(self, pairs):
        """Mutate in place, rebind onto the same object: every warm answer
        equals a fresh router's on the moved coordinates."""
        _, graph, abst = _mk()
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        warm_pairs = pairs[:8]
        engine.route_many(warm_pairs)
        abst.graph.points[:, 0] += 0.01
        engine.rebind(abst, udg=graph.udg)
        assert engine.digest == abstraction_digest(abst)
        fresh = HybridRouter(abst, "hull")
        mismatches = sum(
            not _same_outcome(fresh.route(s, t), engine.route(s, t))
            for s, t in warm_pairs
        )
        assert mismatches == 0
        assert engine.stats.invalidations == 1

    def test_mobility_stale_cache_never_differs(self):
        """A mobility step followed by a rebind never serves stale routes."""
        sc, graph, abst = _mk(seed=7, width=8.0)
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        rng = np.random.default_rng(9)
        check_pairs = sample_pairs(sc.n, 10, rng)
        engine.route_many(check_pairs)  # warm every cache
        model = MobilityModel(sc, speed=0.05, seed=1)
        mismatches = 0
        for _ in range(3):
            abst.graph.points[:] = model.step()
            engine.rebind(abst, udg=graph.udg)
            cold = QueryEngine(
                abst, "hull", udg=graph.udg, caching=False
            )
            mismatches += sum(
                not _same_outcome(cold.route(s, t), engine.route(s, t))
                for s, t in check_pairs
            )
        assert mismatches == 0
        assert engine.stats.invalidations == 3

    def test_rebind_swaps_abstraction(self, pairs):
        _, graph_a, abst_a = _mk(seed=3)
        _, graph_b, abst_b = _mk(seed=13)
        engine = QueryEngine(abst_a, "hull", udg=graph_a.udg)
        engine.route(*pairs[0])
        engine.rebind(abst_b)
        assert engine.abstraction is abst_b
        assert engine.udg is graph_b.adjacency
        n_b = len(abst_b.points)
        rng = np.random.default_rng(2)
        for s, t in sample_pairs(n_b, 5, rng):
            base = HybridRouter(abst_b, "hull").route(s, t)
            assert _same_outcome(base, engine.route(s, t))

    def test_invalidate_trace_event(self, inst, pairs):
        _, graph, abst = _mk()
        trace = TraceRecorder()
        engine = QueryEngine(abst, "hull", udg=graph.udg, trace=trace)
        engine.route(*pairs[0])
        abst.graph.points[0, 1] += 0.005
        engine.rebind(abst, udg=graph.udg)
        engine.route(*pairs[0])
        etypes = [e.etype for e in trace.events()]
        assert "engine_invalidate" in etypes


class TestScopedInvalidation:
    """Rebinds after local perturbations: every rebind is one full flush,
    and the warm engine then answers exactly like a from-scratch one."""

    def _perturbed_rebuild(self, abst, victim, delta=1e-3):
        """Move one node, rebuild the abstraction from scratch."""
        pts = abst.points.copy()
        pts[victim] += delta
        return build_abstraction(build_ldel(pts))

    def _warm_multi_hole(self, seed=3, width=14.0, holes=3, queries=40):
        sc, graph, abst = _mk(seed=seed, width=width, holes=holes)
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        rng = np.random.default_rng(11)
        pairs = sample_pairs(sc.n, queries, rng)
        engine.route_many(pairs)
        return sc, graph, abst, engine, pairs

    def test_single_hole_perturbation_matches_cold(self):
        """Perturb one hole of a multi-hole instance: the rebind flushes
        every cache and the served routes match a from-scratch engine."""
        sc, graph, abst, engine, pairs = self._warm_multi_hole()
        inner = [h for h in abst.holes if not h.is_outer]
        assert len(inner) >= 2, "needs a multi-hole instance"
        victim = inner[0].boundary[0]
        assert engine._locate_memo, "warmup must have populated the memo"

        new_abst = self._perturbed_rebuild(abst, victim)
        engine.rebind(new_abst)
        flush = engine.stats.last_flush
        assert set(flush) == {"caches"}
        assert all(row["survived"] == 0 for row in flush["caches"].values())
        assert flush["caches"]["locate"]["evicted"] > 0
        assert not engine._locate_memo and not engine._routers

        # Zero route mismatches versus a from-scratch engine.
        cold = QueryEngine(new_abst, "hull", caching=False)
        for s, t in pairs:
            assert _same_outcome(cold.route(s, t), engine.route(s, t))

    def test_flush_counters_reconcile(self):
        """Every flush evicts exactly the pre-flush entries of each cache."""
        sc, graph, abst, engine, pairs = self._warm_multi_hole()
        engine.optimal(*pairs[0])
        pre_sizes = {
            "locate": len(engine._locate_memo),
            "dijkstra": len(engine._dijkstra_lru),
        }
        victim = [h for h in abst.holes if not h.is_outer][0].boundary[0]
        engine.rebind(self._perturbed_rebuild(abst, victim))
        caches = engine.stats.last_flush["caches"]
        assert set(caches) == set(pre_sizes)
        for name, size in pre_sizes.items():
            assert caches[name] == {"survived": 0, "evicted": size}, name
        assert engine.stats.snapshot()["flush"] == caches

    def test_node_count_change_forces_full_flush(self):
        sc, graph, abst, engine, pairs = self._warm_multi_hole()
        pts = np.vstack([abst.points, abst.points[:1] + 0.3])
        new_abst = build_abstraction(build_ldel(pts))
        engine.rebind(new_abst)
        assert engine.stats.invalidations == 1
        assert not engine._locate_memo
        cold = QueryEngine(new_abst, "hull", caching=False)
        rng = np.random.default_rng(12)
        for s, t in sample_pairs(len(pts), 10, rng):
            assert _same_outcome(cold.route(s, t), engine.route(s, t))

    def test_inplace_mutation_matches_cold(self):
        """An in-place move of one hole node, then a rebind onto the same
        object: one full flush, and warm answers equal cold ones."""
        sc, graph, abst = _mk(seed=3, width=14.0, holes=3)
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        rng = np.random.default_rng(11)
        pairs = sample_pairs(sc.n, 20, rng)
        engine.route_many(pairs)
        victim = [h for h in abst.holes if not h.is_outer][0].boundary[0]
        abst.graph.points[victim] += 1e-4
        engine.rebind(abst, udg=graph.udg)
        cold = HybridRouter(abst, "hull")
        mismatches = sum(
            not _same_outcome(cold.route(s, t), engine.route(s, t))
            for s, t in pairs[:8]
        )
        assert mismatches == 0
        assert engine.stats.invalidations == 1
        assert engine.stats.last_flush["caches"]["locate"]["evicted"] > 0

    def test_invalidate_trace_event_payload(self):
        _, graph, abst = _mk(seed=3, width=14.0, holes=3)
        trace = TraceRecorder()
        engine = QueryEngine(abst, "hull", udg=graph.udg, trace=trace)
        rng = np.random.default_rng(11)
        engine.route_many(sample_pairs(len(abst.points), 10, rng))
        victim = [h for h in abst.holes if not h.is_outer][0].boundary[0]
        pts = abst.points.copy()
        pts[victim] += 1e-3
        engine.rebind(build_abstraction(build_ldel(pts)))
        ev = [e for e in trace.events() if e.etype == "engine_invalidate"][-1]
        data = dict(ev.data)
        assert set(data) == {"old_digest", "new_digest", "evicted"}
        assert data["evicted"] > 0
        assert data["old_digest"] != data["new_digest"]

    def test_rebind_incremental_bridge(self):
        """A §7 incremental update's abstraction rebinds a warm engine."""
        from repro.protocols.incremental import run_incremental_update
        from repro.protocols.setup import run_distributed_setup

        sc, graph, abst = _mk(seed=7, width=8.0)
        setup = run_distributed_setup(sc.points, seed=7)
        engine = QueryEngine(setup.abstraction, "hull")
        rng = np.random.default_rng(9)
        pairs = sample_pairs(sc.n, 10, rng)
        engine.route_many(pairs)
        model = MobilityModel(sc, speed=0.03, seed=1)
        pts = model.step(0.2).copy()
        inc = run_incremental_update(setup, pts, tolerance=0.2, seed=7)
        before = engine.digest
        engine.rebind(inc.abstraction)
        assert engine.digest == abstraction_digest(inc.abstraction) != before
        assert engine.abstraction is inc.abstraction
        cold = QueryEngine(inc.abstraction, "hull", caching=False)
        for s, t in pairs:
            assert _same_outcome(cold.route(s, t), engine.route(s, t))


class TestEvaluateIntegration:
    def test_evaluate_routing_with_engine_matches(self, inst, pairs):
        from repro.routing.competitiveness import evaluate_routing

        _, graph, abst = inst
        router = HybridRouter(abst, "hull")

        def fn(s, t):
            o = router.route(s, t)
            return o.path, o.reached, o.case, o.used_fallback

        engine = QueryEngine(abst, "hull", udg=graph.udg)
        rep_a = evaluate_routing(graph.points, graph.udg, fn, pairs)
        rep_b = evaluate_routing(
            graph.points, graph.udg, None, pairs, engine=engine
        )
        assert len(rep_a.records) == len(rep_b.records)
        for ra, rb in zip(rep_a.records, rep_b.records):
            assert (ra.source, ra.target) == (rb.source, rb.target)
            assert ra.delivered == rb.delivered
            assert ra.path_length == pytest.approx(rb.path_length)
            assert ra.optimal == pytest.approx(rb.optimal)
        # The engine's Dijkstra LRU served the optima.
        assert engine.stats.cache["dijkstra"]["misses"] > 0

    def test_evaluate_strategy_engine_parity(self, inst):
        from repro.analysis.experiments import Instance, evaluate_strategy

        sc, graph, abst = inst
        wrapped = Instance(scenario=sc, graph=graph, abstraction=abst)
        engine = QueryEngine(abst, "hull", udg=graph.udg)
        rep_plain = evaluate_strategy(wrapped, "hull", pair_count=15, seed=4)
        rep_engine = evaluate_strategy(
            wrapped, "hull", pair_count=15, seed=4, engine=engine
        )
        assert rep_plain.summary() == rep_engine.summary()

    def test_run_query_workload(self, inst, pairs):
        from repro.protocols import run_query_workload

        _, graph, abst = inst
        outs, engine = run_query_workload(
            abst, pairs[:6], udg=graph.udg
        )
        assert len(outs) == 6
        assert engine.stats.queries == 6
        first = dict(engine.stats.cache["locate"])
        # A warm engine can be handed to the next workload.
        outs2, engine2 = run_query_workload(abst, pairs[:6], engine=engine)
        assert engine2 is engine
        # The repeat workload classifies every node from the memo.
        row = engine.stats.cache["locate"]
        assert row["misses"] == first["misses"] > 0
        assert row["hits"] == 2 * first["hits"] + first["misses"]


class TestStatsConcurrency:
    """The cross-thread read contract of `EngineStats` and cache metrics.

    The engine itself is single-owner, but the service layer reads
    `stats.snapshot()` / `summary()` / `MetricsCollector.cache_summary()`
    while a worker thread is mid-query.  Iterating the live counter dicts
    from another thread raises `RuntimeError: dictionary changed size`;
    the snapshot methods must materialize item lists first.
    """

    def test_snapshot_during_concurrent_queries(self, inst):
        import threading

        sc, graph, abst = inst
        metrics = MetricsCollector()
        engine = QueryEngine(abst, "hull", udg=graph.udg, metrics=metrics)
        rng = np.random.default_rng(9)
        qpairs = [
            (int(s), int(t)) for s, t in rng.integers(0, sc.n, size=(400, 2))
        ]
        errors = []

        def hammer():
            try:
                for s, t in qpairs:
                    engine.route(s, t)
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            while thread.is_alive():
                snap = engine.stats.snapshot()
                assert {"queries", "cache", "flush"} <= set(snap)
                engine.stats.summary()
                metrics.cache_summary()
        finally:
            thread.join()
        assert not errors
        assert engine.stats.snapshot()["queries"] == len(qpairs)
