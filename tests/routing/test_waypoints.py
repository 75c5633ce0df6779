"""Unit tests for the waypoint planner (Visibility Graph / ODG machinery)."""

import numpy as np
import pytest

import repro.routing.waypoints as waypoints
from repro.analysis import make_instance
from repro.geometry.visibility import visible_mask_reference
from repro.routing import hull_router, sample_pairs
from repro.routing.bay_routing import bay_waypoint_structures
from repro.routing.waypoints import WaypointPlanner

# An unguarded divide in the array visibility kernel fails the suite.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture(scope="module")
def hull_planner(multi_hole_instance):
    sc, graph, abst = multi_hole_instance
    groups, arcs = bay_waypoint_structures(abst)
    return abst, WaypointPlanner(
        abst,
        vertices=abst.hull_nodes(),
        structure="delaunay",
        bay_groups=groups,
        bay_arc_edges=arcs,
    )


@pytest.fixture(scope="module")
def vis_planner(multi_hole_instance):
    sc, graph, abst = multi_hole_instance
    return abst, WaypointPlanner(
        abst, vertices=abst.boundary_nodes(), structure="visibility"
    )


class TestStaticStructure:
    def test_base_vertices(self, hull_planner):
        abst, planner = hull_planner
        assert set(planner.base_vertices) == abst.hull_nodes()

    def test_edges_symmetric(self, hull_planner):
        abst, planner = hull_planner
        for u, nbrs in planner.base_edges.items():
            for v, leg in nbrs.items():
                assert planner.base_edges[v][u].weight == pytest.approx(leg.weight)

    def test_chew_edges_are_visible(self, hull_planner):
        abst, planner = hull_planner
        for u, nbrs in planner.base_edges.items():
            for v, leg in nbrs.items():
                if leg.kind == "chew":
                    assert planner.visible(u, v)

    def test_arc_edges_have_paths(self, hull_planner):
        abst, planner = hull_planner
        for u, nbrs in planner.base_edges.items():
            for v, leg in nbrs.items():
                if leg.kind == "arc":
                    assert leg.path is not None
                    assert leg.path[0] == u and leg.path[-1] == v

    def test_arc_paths_follow_graph_edges(self, hull_planner):
        abst, planner = hull_planner
        g = abst.graph
        for u, nbrs in planner.base_edges.items():
            for v, leg in nbrs.items():
                if leg.kind == "arc" and leg.path:
                    for a, b in zip(leg.path, leg.path[1:]):
                        assert g.has_edge(a, b)

    def test_hull_perimeter_connected(self, hull_planner):
        """Every hole can be circumnavigated via planner edges."""
        abst, planner = hull_planner
        for hole in abst.holes:
            hull = hole.hull
            for a, b in zip(hull, hull[1:] + hull[:1]):
                if a == b:
                    continue
                assert b in planner.base_edges.get(a, {}), (
                    f"hull edge {a}-{b} of hole {hole.hole_id} missing"
                )

    def test_visibility_mode_denser(self, vis_planner, hull_planner):
        abst, vplanner = vis_planner
        _, hplanner = hull_planner
        v_edges = sum(len(n) for n in vplanner.base_edges.values())
        h_edges = sum(len(n) for n in hplanner.base_edges.values())
        assert v_edges > h_edges  # Θ(h²) vs O(h): the §4.1 space reduction


class TestPlanning:
    def test_plan_between_hull_nodes(self, hull_planner):
        abst, planner = hull_planner
        ids = planner.base_vertices
        plan = planner.plan(ids[0], ids[-1])
        assert plan is not None
        assert plan.nodes[0] == ids[0] and plan.nodes[-1] == ids[-1]

    def test_plan_with_terminals(self, hull_planner):
        abst, planner = hull_planner
        # Any two non-hull nodes as terminals.
        hull = abst.hull_nodes()
        others = [i for i in range(len(abst.points)) if i not in hull]
        plan = planner.plan(others[0], others[-1])
        assert plan is not None

    def test_weight_is_sum_of_legs(self, hull_planner):
        abst, planner = hull_planner
        ids = planner.base_vertices
        plan = planner.plan(ids[0], ids[-1])
        assert plan.weight == pytest.approx(sum(l.weight for l in plan.legs))

    def test_banned_edges_respected(self, hull_planner):
        abst, planner = hull_planner
        ids = planner.base_vertices
        plan = planner.plan(ids[0], ids[-1])
        chew_legs = [l for l in plan.legs if l.kind == "chew"]
        if not chew_legs:
            pytest.skip("no chew leg to ban")
        banned = {frozenset((chew_legs[0].src, chew_legs[0].dst))}
        plan2 = planner.plan(ids[0], ids[-1], banned=banned)
        assert plan2 is not None
        for leg in plan2.legs:
            if leg.kind == "chew":
                assert frozenset((leg.src, leg.dst)) not in banned

    def test_bay_groups_activate(self, hull_planner):
        abst, planner = hull_planner
        bays = [
            (hole, i, bay)
            for hole in abst.holes
            for i, bay in enumerate(hole.bays)
            if bay.interior
        ]
        if not bays:
            pytest.skip("instance has no bay with interior nodes")
        hole, idx, bay = bays[0]
        inner = bay.interior[0]
        target = planner.base_vertices[0]
        plan = planner.plan(inner, target, active_bays=[(hole.hole_id, idx)])
        assert plan is not None

    def test_same_source_target(self, hull_planner):
        abst, planner = hull_planner
        v = planner.base_vertices[0]
        plan = planner.plan(v, v)
        assert plan is not None and plan.legs == []


class TestLegAndPathDataTypes:
    def test_waypoint_path_nodes_empty(self):
        from repro.routing.waypoints import WaypointPath

        assert WaypointPath(legs=[]).nodes == []
        assert WaypointPath(legs=[]).weight == 0.0

    def test_waypoint_path_nodes_chain(self):
        from repro.routing.waypoints import Leg, WaypointPath

        legs = [Leg(1, 2, "chew", weight=1.0), Leg(2, 5, "arc", (2, 3, 5), 2.5)]
        p = WaypointPath(legs=legs)
        assert p.nodes == [1, 2, 5]
        assert p.weight == pytest.approx(3.5)

    def test_plan_legs_chain_consecutively(self, hull_planner):
        abst, planner = hull_planner
        ids = planner.base_vertices
        plan = planner.plan(ids[0], ids[-1])
        for a, b in zip(plan.legs, plan.legs[1:]):
            assert a.dst == b.src


class TestEdgeStore:
    def test_add_edge_ignores_self_loop(self, hull_planner):
        abst, planner = hull_planner
        store = {}
        planner._add_edge(store, 3, 3, "chew")
        assert store == {}

    def test_add_edge_keeps_lighter_parallel(self, hull_planner):
        abst, planner = hull_planner
        store = {}
        planner._add_edge(store, 1, 2, "chew", weight=5.0)
        planner._add_edge(store, 1, 2, "arc", path=(1, 7, 2), weight=3.0)
        assert store[1][2].kind == "arc" and store[1][2].weight == 3.0
        planner._add_edge(store, 1, 2, "chew", weight=9.0)  # heavier: ignored
        assert store[1][2].weight == 3.0

    def test_add_edge_reverse_is_symmetric(self, hull_planner):
        abst, planner = hull_planner
        store = {}
        planner._add_edge(store, 1, 2, "arc", path=(1, 7, 2), weight=3.0)
        rev = store[2][1]
        assert rev.path == (2, 7, 1)
        assert rev.weight == pytest.approx(store[1][2].weight)

    def test_arc_weight_computed_from_path(self, hull_planner):
        abst, planner = hull_planner
        from repro.geometry.primitives import distance

        b = planner.base_vertices
        u, v = b[0], b[1]
        hop = [w for w in range(len(abst.points)) if w not in (u, v)][0]
        store = {}
        planner._add_edge(store, u, v, "arc", path=(u, hop, v))
        pts = abst.points
        expect = distance(pts[u], pts[hop]) + distance(pts[hop], pts[v])
        assert store[u][v].weight == pytest.approx(expect)


class TestPlanFailureModes:
    def test_all_edges_banned_returns_none(self, hull_planner):
        """Banning every structural edge (chew AND the arc detours would
        still exist) — so ban chews and verify the arc-only plan or None."""
        abst, planner = hull_planner
        ids = planner.base_vertices
        banned = {
            frozenset((u, v))
            for u, nbrs in planner.base_edges.items()
            for v in nbrs
        }
        plan = planner.plan(ids[0], ids[-1], banned=banned)
        # chew edges are all banned; anything that survives is arc-only
        if plan is not None:
            assert all(leg.kind == "arc" for leg in plan.legs)

    def test_banned_only_applies_to_chew_legs(self, hull_planner):
        abst, planner = hull_planner
        arc_edges = [
            (u, v)
            for u, nbrs in planner.base_edges.items()
            for v, leg in nbrs.items()
            if leg.kind == "arc"
        ]
        if not arc_edges:
            pytest.skip("no arc edge in this instance")
        u, v = arc_edges[0]
        plan = planner.plan(u, v, banned={frozenset((u, v))})
        assert plan is not None  # the arc leg itself is not bannable

    def test_isolated_terminal_returns_none(self, multi_hole_instance):
        """A planner with no vertices cannot connect mutually invisible
        terminals; with no obstacles every pair is directly visible."""
        sc, graph, abst = multi_hole_instance
        planner = WaypointPlanner(abst, vertices=[], structure="visibility")
        a, b = 0, len(abst.points) - 1
        plan = planner.plan(a, b)
        if planner.visible(a, b):
            assert plan is not None and len(plan.legs) == 1
        else:
            assert plan is None

    def test_bay_visibility_cache(self, hull_planner):
        abst, planner = hull_planner
        keys = list(planner.bay_groups)
        if not keys:
            pytest.skip("no bays")
        first = planner._bay_visibility(keys[0])
        assert planner._bay_visibility(keys[0]) is first  # cached


def _e1_workload():
    # E1's first instance and its 80-pair sample (benchmarks/bench_competitiveness.py).
    inst = make_instance(
        width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
    )
    return inst, sample_pairs(inst.n, 80, np.random.default_rng(5))


def _e7_workload():
    # E7's concave-hole instance and pairs, in-bay pairs included
    # (benchmarks/bench_case_breakdown.py).
    inst = make_instance(
        width=18.0,
        height=18.0,
        hole_count=2,
        hole_scale=3.0,
        hole_shapes=("l_shape", "crescent"),
        seed=12,
    )
    pairs = sample_pairs(inst.n, 260, np.random.default_rng(0))
    bays = [
        bay
        for h in inst.abstraction.holes
        for bay in h.bays
        if len(bay.interior) >= 2
    ]
    for bay in bays[:6]:
        pairs.append((bay.interior[0], bay.interior[-1]))
        pairs.append((bay.interior[0], 0))
    return inst, pairs


def _recorded_plans(abstraction, pairs):
    """Static edges and every ``plan()`` call (arguments and legs) made
    while a fresh hull router routes ``pairs``, in order."""
    router = hull_router(abstraction)
    planner = router.planner
    plan = planner.plan
    calls = []

    def recording_plan(src, dst, *, active_bays=(), banned=None):
        out = plan(src, dst, active_bays=active_bays, banned=banned)
        calls.append(
            (
                src,
                dst,
                sorted(active_bays),
                sorted(map(sorted, banned or ())),
                None if out is None else out.legs,
            )
        )
        return out

    planner.plan = recording_plan
    for s, t in pairs:
        router.route(s, t)
    static = [(u, list(nbrs.items())) for u, nbrs in planner.base_edges.items()]
    return static, calls


class TestPlannerMatchesReference:
    """The planner's batched, grid-pruned visibility ≡ the full-scan oracle.

    Legs are compared with their weights and in edge-insertion order: the
    waypoint Dijkstra breaks ties by first relaxation, so a reordered
    ``_add_edge`` sequence could change a route without changing a
    visibility answer.
    """

    @pytest.mark.parametrize("workload", [_e1_workload, _e7_workload], ids=["E1", "E7"])
    def test_plan_legs_equal_reference(self, workload, monkeypatch):
        inst, pairs = workload()
        fast = _recorded_plans(inst.abstraction, pairs)

        def reference(pa, qa, obstacles, *, bboxes=None, grid=None):
            return visible_mask_reference(pa, qa, obstacles, bboxes=bboxes)

        monkeypatch.setattr(waypoints, "visible_mask", reference)
        ref = _recorded_plans(inst.abstraction, pairs)
        assert fast[0] == ref[0]
        assert len(fast[1]) >= 20  # the pairs exercise the planner
        assert fast[1] == ref[1]
