"""Unit tests for Chew's algorithm (the corridor routing primitive)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.routing.chew as chew
import repro.routing.router as router_mod
from repro.geometry.predicates import segments_properly_intersect
from repro.geometry.primitives import distance
from repro.geometry.visibility import is_visible
from repro.graphs.ldel import LDelGraph, build_ldel
from repro.routing.chew import (
    TriangleIndex,
    chew_route,
    chew_route_reference,
    crossed_edges,
)
from repro.routing import hull_router, sample_pairs

from .test_waypoints import _e1_workload, _e7_workload


class TestCrossedEdges:
    def test_ordered_by_param(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        rng = np.random.default_rng(0)
        for s, t in sample_pairs(len(graph.points), 10, rng):
            crossings = crossed_edges(graph, s, t)
            params = [p for p, _ in crossings]
            assert params == sorted(params)

    def test_no_incident_edges(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        rng = np.random.default_rng(1)
        for s, t in sample_pairs(len(graph.points), 10, rng):
            for _, (u, v) in crossed_edges(graph, s, t):
                assert s not in (u, v) and t not in (u, v)

    def test_adjacent_pair_no_crossings_needed(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        s = 0
        t = graph.adjacency[0][0]
        res = chew_route(graph, s, t)
        assert res.reached and res.path == [s, t]


class TestChewBasics:
    def test_trivial_same_node(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        res = chew_route(graph, 5, 5)
        assert res.reached and res.path == [5]

    def test_path_uses_graph_edges(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        rng = np.random.default_rng(2)
        for s, t in sample_pairs(len(graph.points), 25, rng):
            res = chew_route(graph, s, t)
            for a, b in zip(res.path, res.path[1:]):
                assert graph.has_edge(a, b)

    def test_path_starts_at_source(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        rng = np.random.default_rng(3)
        for s, t in sample_pairs(len(graph.points), 25, rng):
            res = chew_route(graph, s, t)
            assert res.path[0] == s
            if res.reached:
                assert res.path[-1] == t
            else:
                assert res.path[-1] == res.blocked_at

    def test_path_in_corridor(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        rng = np.random.default_rng(4)
        for s, t in sample_pairs(len(graph.points), 25, rng):
            res = chew_route(graph, s, t)
            assert set(res.path) <= res.corridor | {s, t}


class TestChewCompetitiveness:
    def test_visible_pairs_reach_under_bound(self, multi_hole_instance):
        """Theorem 2.11: visible pairs are delivered within 5.9·‖st‖."""
        sc, graph, abst = multi_hole_instance
        obstacles = [p for p in abst.boundary_polygons() if len(p) >= 3]
        rng = np.random.default_rng(5)
        checked = 0
        for s, t in sample_pairs(len(graph.points), 120, rng):
            if not is_visible(graph.points[s], graph.points[t], obstacles):
                continue
            res = chew_route(graph, s, t)
            assert res.reached, f"visible pair {s}->{t} not delivered"
            stretch = res.length(graph.points) / distance(
                graph.points[s], graph.points[t]
            )
            assert stretch <= 5.9
            checked += 1
        assert checked >= 20

    def test_hole_free_instance_everything_reaches(self, flat_instance):
        sc, graph = flat_instance
        rng = np.random.default_rng(6)
        for s, t in sample_pairs(len(graph.points), 60, rng):
            res = chew_route(graph, s, t)
            assert res.reached


class TestChewBlocking:
    def test_blocked_pairs_cross_a_hole(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        obstacles = [p for p in abst.boundary_polygons() if len(p) >= 3]
        rng = np.random.default_rng(7)
        blocked = 0
        for s, t in sample_pairs(len(graph.points), 100, rng):
            res = chew_route(graph, s, t)
            if res.reached:
                continue
            blocked += 1
            assert not is_visible(
                graph.points[s], graph.points[t], obstacles
            ), f"blocked despite visibility: {s}->{t}"
        assert blocked > 0  # the instance does produce case-2 traffic

    def test_blocked_at_is_boundary_node(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        boundary = abst.boundary_nodes()
        rng = np.random.default_rng(8)
        for s, t in sample_pairs(len(graph.points), 80, rng):
            res = chew_route(graph, s, t)
            if not res.reached and res.blocked_at != s:
                assert res.blocked_at in boundary


class TestCrossedEdgesPrefilterSound:
    def test_matches_bruteforce(self, multi_hole_instance):
        """The bbox prefilter in crossed_edges cannot miss a crossing: LDel
        edges have length ≤ 1, so any properly crossing edge has both
        endpoints within 1 of the segment's bounding box."""
        sc, graph, _ = multi_hole_instance
        pts = graph.points
        rng = np.random.default_rng(11)
        for s, t in sample_pairs(len(pts), 12, rng):
            got = {e for _, e in crossed_edges(graph, s, t)}
            want = set()
            for u, nbrs in graph.adjacency.items():
                for v in nbrs:
                    if v <= u or u in (s, t) or v in (s, t):
                        continue
                    if segments_properly_intersect(
                        pts[s], pts[t], pts[u], pts[v]
                    ):
                        want.add((u, v))
            assert got == want, f"{s}->{t}"


# -- the triangle walk against the chain oracle --------------------------------


def assert_walk_matches(graph, pairs, index=None):
    index = TriangleIndex.build(graph) if index is None else index
    for s, t in pairs:
        got = chew_route(graph, s, t, index=index)
        want = chew_route_reference(graph, s, t, index=index)
        assert vars(got) == vars(want), (s, t)


def _qualifying_starts(graph, index, s, t):
    """Triangles at ``s`` whose opposite edge st properly crosses."""
    pts = graph.points
    out = []
    for tri in index.by_vertex.get(s, ()):
        u, v = (x for x in tri if x != s)
        if t not in (u, v) and segments_properly_intersect(
            pts[s], pts[t], pts[u], pts[v]
        ):
            out.append(tri)
    return out


def _square_lattice(spacing: float, side: int) -> np.ndarray:
    return np.array(
        [[i * spacing, j * spacing] for i in range(side) for j in range(side)]
    )


def _triangular_lattice(spacing: float, side: int) -> np.ndarray:
    h = spacing * math.sqrt(3.0) / 2.0
    return np.array(
        [
            [i * spacing + (j % 2) * spacing / 2.0, j * h]
            for i in range(side)
            for j in range(side)
        ]
    )


def assert_at_most_two_triangles_per_edge(graph):
    index = TriangleIndex.build(graph)
    assert max(len(tris) for tris in index.by_edge.values()) <= 2


class TestWalkMatchesReference:
    """``chew_route`` (triangle walk) ≡ ``chew_route_reference`` (sorted
    crossings of the whole graph), field by field, zero tolerance."""

    @pytest.mark.parametrize(
        "workload", [_e1_workload, _e7_workload], ids=["E1", "E7"]
    )
    def test_router_legs(self, workload, monkeypatch):
        # Every leg a hull router runs on the pair set — first legs and
        # waypoint legs alike — compared against the oracle.
        inst, pairs = workload()
        legs = []

        def checked(graph, s, t, *, index=None):
            got = chew_route(graph, s, t, index=index)
            want = chew_route_reference(graph, s, t, index=index)
            assert vars(got) == vars(want), (s, t)
            legs.append((s, t))
            return got

        monkeypatch.setattr(router_mod, "chew_route", checked)
        router = hull_router(inst.abstraction)
        for s, t in pairs:
            router.route(s, t)
        assert len(legs) > len(pairs)  # waypoint legs were checked too

    @pytest.mark.parametrize(
        "workload", [_e1_workload, _e7_workload], ids=["E1", "E7"]
    )
    def test_planar_ldel_has_at_most_two_triangles_per_edge(self, workload):
        inst, _ = workload()
        assert_at_most_two_triangles_per_edge(inst.abstraction.graph)

    def test_multi_hole_fixture(self, multi_hole_instance):
        _, graph, _ = multi_hole_instance
        assert_at_most_two_triangles_per_edge(graph)
        rng = np.random.default_rng(21)
        assert_walk_matches(graph, sample_pairs(len(graph.points), 400, rng))

    def test_same_node_and_adjacent_pairs(self, multi_hole_instance):
        _, graph, _ = multi_hole_instance
        pairs = [(v, v) for v in range(0, len(graph.points), 7)]
        pairs += [(u, v) for u in range(0, len(graph.points), 5) for v in graph.adjacency[u]]
        assert_walk_matches(graph, pairs)

    def test_source_on_hole_ring_heading_into_the_hole(self, multi_hole_instance):
        _, graph, abst = multi_hole_instance
        pairs = []
        for hole in abst.holes:
            if hole.is_outer:
                continue
            ring = hole.boundary
            half = len(ring) // 2
            pairs += [(ring[i], ring[(i + half) % len(ring)]) for i in range(len(ring))]
        assert_walk_matches(graph, pairs)
        blocked_at_source = sum(
            chew_route(graph, s, t).blocked_at == s for s, t in pairs
        )
        assert blocked_at_source > 0

    def test_triangular_lattice_through_vertices_and_along_edges(self):
        # Unperturbed: st runs exactly through vertices and along edges for
        # every lattice direction, and the triangulation is unique.
        graph = build_ldel(_triangular_lattice(0.6, 10))
        assert_at_most_two_triangles_per_edge(graph)
        n = len(graph.points)
        pairs = [(s, t) for s in range(n) for t in range(0, n, 3) if s != t]
        assert_walk_matches(graph, pairs)

    def test_square_lattice_crossing_diagonals_defer_to_the_reference(self):
        # Every lattice square is cocircular, so LDel keeps both diagonals
        # and all four triangles of a square: every triangle is tangled,
        # and the walk returns the reference's answer.
        graph = build_ldel(_square_lattice(0.5, 9))
        index = TriangleIndex.build(graph)
        assert index.tangled == set(graph.triangles)
        n = len(graph.points)
        assert_walk_matches(graph, [(s, t) for s in range(n) for t in range(0, n, 2)], index)

    def test_cocircular_quad_crossing_edges_defer_to_the_reference(self):
        # 2, 3, 4, 5 are cocircular: LDel keeps triangles (2,3,4) and
        # (2,4,5) on the same side of (2,4), so edge (2,5) crosses st = 1→4
        # inside (2,3,4), where the walk would reach 4.
        graph = build_ldel(0.3 * np.array([[0, 5], [1, 7], [3, 4], [3, 6], [4, 3], [6, 3]], dtype=float))
        index = TriangleIndex.build(graph)
        assert ((2, 5), (3, 4)) in graph.crossing_edge_pairs()
        assert (2, 3, 4) in index.tangled
        n = len(graph.points)
        assert_walk_matches(graph, [(s, t) for s in range(n) for t in range(n)], index)

    def test_duplicate_node_two_triangles_at_s_defer_to_the_reference(self):
        # Node 4 sits on node 0: no edges cross, but for st = 1→2 both
        # (0,1,3) and (1,3,4) qualify at s.
        graph = build_ldel(np.array([[-0.03, 0.7], [0.02, 1.04], [0.37, 0.05], [0.37, 0.69], [-0.03, 0.7]]))
        index = TriangleIndex.build(graph)
        assert not index.tangled
        assert len(_qualifying_starts(graph, index, 1, 2)) == 2
        assert_walk_matches(graph, [(s, t) for s in range(5) for t in range(5)], index)

    def test_duplicate_node_three_triangles_on_an_edge_defer_to_the_reference(self):
        pts = np.random.default_rng(0).uniform(0.0, 3.0, size=(40, 2))
        graph = build_ldel(np.vstack([pts, pts[5:6]]))
        index = TriangleIndex.build(graph)
        assert not index.tangled
        assert max(len(tris) for tris in index.by_edge.values()) > 2
        n = len(graph.points)
        assert_walk_matches(graph, [(s, t) for s in range(n) for t in range(n)], index)

    def test_edge_crossing_the_start_triangle_defers_to_the_reference(self):
        # s, u, v, y are cocircular and (u, y) is a diameter, kept as a
        # Gabriel edge: it crosses st inside the start triangle (s, u, v),
        # before the edge (u, v) that the walk sees, and no triangle lies
        # beyond (u, v).
        s, u, v, y, t = range(5)
        points = np.array([[-0.45, 0.0], [0.0, 0.45], [0.45, 0.0], [0.0, -0.45], [0.5, 0.5]])
        edges = [(s, u), (s, v), (u, v), (u, y), (s, y), (v, y), (u, t), (v, t)]
        adjacency: dict[int, list[int]] = {i: [] for i in range(5)}
        for a, b in edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        graph = LDelGraph(
            points=points,
            udg=adjacency,
            adjacency=adjacency,
            triangles=[(s, u, v)],
            gabriel={(u, y)},
        )
        index = TriangleIndex.build(graph)
        assert index.tangled == {(s, u, v)}
        assert crossed_edges(graph, s, t)[0][1] == (u, y)
        assert chew_route(graph, s, t, index=index).blocked_at == s
        assert_walk_matches(graph, [(a, b) for a in range(5) for b in range(5)], index)

    def test_equal_crossing_params_defer_to_the_reference(self, multi_hole_instance, monkeypatch):
        # With every crossing at the same parameter the reference's order
        # is its scan order, which the walk does not know: it must defer.
        _, graph, _ = multi_hole_instance
        monkeypatch.setattr(chew, "_cross_param", lambda ps, pt, pu, pv: 0.5)
        rng = np.random.default_rng(22)
        assert_walk_matches(graph, sample_pairs(len(graph.points), 60, rng))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)),
        min_size=3,
        max_size=45,
        unique=True,
    )
)
def test_walk_matches_reference_random_point_sets(raw):
    # Points on a 0.3-lattice: collinear runs and cocircular quadruples.
    graph = build_ldel(np.array(raw, dtype=np.float64) * 0.3)
    n = len(graph.points)
    assert_walk_matches(graph, [(s, t) for s in range(n) for t in range(n)])
