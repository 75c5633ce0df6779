"""Differential equivalence: incremental reuse and warm serving vs scratch.

Surviving a movement step has two sides: the §7 incremental protocol
(reuses clean rings' artifacts) and a warm query engine rebound onto the
new abstraction (flushes every cache).  Both promise the same thing —
*the result equals a from-scratch one* — and this suite pins that promise
differentially:

* across seeds × mobility steps, an incremental update with zero drift
  tolerance produces exactly the holes (rings, hulls, bays, dominating
  sets) a from-scratch distributed setup derives on the same coordinates,
  and routes planned over the two abstractions are identical;
* a warm engine rebound after every step answers every query exactly like
  a cold, cache-less engine on the final topology (0 mismatches);
* (hypothesis) across random churn sequences — localized moves, joins,
  leaves, interleaved with query batches — the engine never serves a
  stale route, and its flush accounting reconciles exactly: per cache,
  ``evicted`` equals the pre-flush entry count.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.abstraction import build_abstraction
from repro.graphs.ldel import build_ldel
from repro.protocols.incremental import ring_signature, run_incremental_update
from repro.protocols.setup import run_distributed_setup
from repro.routing import QueryEngine, hull_router, sample_pairs
from repro.scenarios import perturbed_grid_scenario
from repro.scenarios.mobility import ChurnEvent, MobilityModel


def _canon_cycle(seq):
    """Rotation-invariant canonical form of a cyclic node sequence."""
    seq = list(seq)
    if not seq:
        return ()
    i = seq.index(min(seq))
    return tuple(seq[i:] + seq[:i])


def _hole_fingerprint(h):
    return (
        _canon_cycle(h.boundary),
        _canon_cycle(h.hull),
        h.is_outer,
        h.closing_edge,
        tuple(
            sorted(
                (
                    b.corner_a,
                    b.corner_b,
                    tuple(b.arc),
                    tuple(sorted(b.dominating_set)),
                )
                for b in h.bays
            )
        ),
    )


def _hole_map(abst):
    return {ring_signature(h.boundary): _hole_fingerprint(h) for h in abst.holes}


def _same_outcome(a, b):
    return (
        a.path == b.path
        and a.case == b.case
        and a.reached == b.reached
        and a.used_fallback == b.used_fallback
    )


@pytest.mark.parametrize("seed", [55, 21])
def test_incremental_equals_scratch_rebuild(seed):
    """Zero-tolerance incremental reuse is byte-equivalent to a rebuild.

    With ``tolerance=0.0`` a ring is reused only when none of its members
    moved at all, so the reused artifacts must match a from-scratch setup
    on the new coordinates exactly — structure for structure, and route
    for route.
    """
    sc = perturbed_grid_scenario(
        width=10, height=10, hole_count=1, hole_scale=2.2, seed=seed
    )
    setup = run_distributed_setup(sc.points, seed=seed)
    mob = MobilityModel(sc, speed=0.03, seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    for _ in range(3):
        pts = mob.step(0.2).copy()
        inc = run_incremental_update(setup, pts, tolerance=0.0, seed=seed)
        fresh = run_distributed_setup(pts, seed=seed, skip_tree=True)

        assert _hole_map(inc.abstraction) == _hole_map(fresh.abstraction)
        # Genuine reuse must be happening (localized movement keeps some
        # rings untouched), or the test proves nothing.
        assert inc.rings_reused + inc.rings_recomputed > 0
        assert inc.reused_signatures | inc.recomputed_signatures

        ra = hull_router(inc.abstraction)
        rb = hull_router(fresh.abstraction)
        for s, t in sample_pairs(sc.n, 8, rng):
            assert _same_outcome(ra.route(s, t), rb.route(s, t))


def test_warm_rebind_equals_cold_on_final_topology():
    """Warm engine rebound after every move vs a cold engine: 0 mismatches."""
    sc = perturbed_grid_scenario(
        width=10, height=10, hole_count=2, hole_scale=2.0, seed=31
    )
    abst = build_abstraction(build_ldel(sc.points))
    engine = QueryEngine(abst, "hull")
    rng = np.random.default_rng(32)
    engine.route_many(sample_pairs(sc.n, 20, rng))
    mob = MobilityModel(sc, speed=0.04, seed=33)
    mismatches = 0
    for _ in range(4):
        pts = mob.step(0.2).copy()
        new_abst = build_abstraction(build_ldel(pts))
        engine.rebind(new_abst)
        cold = QueryEngine(new_abst, "hull", caching=False)
        for s, t in sample_pairs(sc.n, 12, rng):
            if not _same_outcome(cold.route(s, t), engine.route(s, t)):
                mismatches += 1
    assert mismatches == 0
    assert engine.stats.invalidations == 4


# -- hypothesis: random churn sequences ---------------------------------------

_churn_events = st.lists(
    st.one_of(
        st.builds(
            lambda f: ("move", f),
            st.floats(min_value=0.05, max_value=0.3),
        ),
        st.just(("join", 1)),
        st.just(("leave", 1)),
    ),
    min_size=1,
    max_size=3,
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(events=_churn_events, seed=st.integers(min_value=0, max_value=50))
def test_churn_never_serves_stale_routes(events, seed):
    """Any churn sequence: answers stay exact, flush accounting reconciles."""
    sc = perturbed_grid_scenario(
        width=9, height=9, hole_count=1, hole_scale=2.0, seed=17
    )
    abst = build_abstraction(build_ldel(sc.points))
    engine = QueryEngine(abst, "hull")
    rng = np.random.default_rng(seed)
    engine.route_many(sample_pairs(len(abst.points), 8, rng))
    model = MobilityModel(sc, speed=0.04, seed=seed)

    for kind, arg in events:
        event = (
            ChurnEvent("move", fraction=arg)
            if kind == "move"
            else ChurnEvent(kind, count=arg)
        )
        pts = model.apply(event).copy()

        engine.distances(0)
        pre_sizes = {"dijkstra": len(engine._dijkstra_lru)}

        new_abst = build_abstraction(build_ldel(pts))
        engine.rebind(new_abst)
        flush = engine.stats.last_flush

        # The flush evicts exactly the pre-flush cache contents.
        for name, size in pre_sizes.items():
            assert flush["caches"][name]["evicted"] == size, name

        # Never a stale answer: every query matches a cache-less engine.
        cold = QueryEngine(new_abst, "hull", caching=False)
        for s, t in sample_pairs(len(pts), 6, rng):
            assert _same_outcome(cold.route(s, t), engine.route(s, t))
