"""Unit tests for bay-area structures (§4.3/§4.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ChurnRebinder, make_instance
from repro.core.abstraction import build_abstraction
from repro.geometry.polygon import point_in_polygon
from repro.graphs.ldel import build_ldel
from repro.routing.bay_routing import (
    LocateIndex,
    bay_waypoint_structures,
    extreme_points,
    locate_node,
    locate_node_reference,
    locate_point,
)
from repro.scenarios import perturbed_grid_scenario
from repro.scenarios.holes import crescent_hole


class TestLocate:
    def test_hull_corner_counts_outside(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer)
        for corner in hole.hull:
            assert locate_node(abst, corner) is None

    def test_bay_interior_located(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer and h.bays)
        for idx, bay in enumerate(hole.bays):
            for v in bay.interior:
                loc = locate_node(abst, v)
                assert loc is not None
                assert loc.hole_id == hole.hole_id
                assert loc.bay_index == idx

    def test_far_node_outside(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hulls = abst.hull_polygons()
        for v in range(0, len(abst.points), 37):
            inside_any = any(
                len(hp) >= 3 and point_in_polygon(abst.points[v], hp, include_boundary=False)
                for hp in hulls
            )
            if not inside_any:
                assert locate_node(abst, v) is None

    def test_locate_point_in_bay_region(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer and h.bays)
        bay = max(hole.bays, key=len)
        centroid = abst.points[bay.arc].mean(axis=0)
        # The arc centroid usually sits in the bay polygon; tolerate the
        # nearest-bay fallback when it lands inside the hole itself.
        loc = locate_point(abst, centroid)
        if loc is not None:
            assert loc.hole_id == hole.hole_id


def _e1_abstraction():
    # E1's first instance (n=449), the one servebench serves.
    return make_instance(
        width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
    ).abstraction


def _e7_abstraction():
    # E7's concave-hole instance (an L-shape and a crescent).
    return make_instance(
        width=18.0,
        height=18.0,
        hole_count=2,
        hole_scale=3.0,
        hole_shapes=("l_shape", "crescent"),
        seed=12,
    ).abstraction


def _crescent_abstraction():
    hole = crescent_hole((7.0, 7.0), radius=3.2, depth=0.55)
    sc = perturbed_grid_scenario(width=14, height=14, holes=[hole], seed=61)
    return build_abstraction(build_ldel(sc.points))


def _churn_abstractions():
    sc = perturbed_grid_scenario(
        width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
    )
    return [step.abstraction for step in ChurnRebinder(sc, steps=3, seed=7).steps()]


_INSTANCES = {
    "E1": lambda: [_e1_abstraction()],
    "E7": lambda: [_e7_abstraction()],
    "crescent": lambda: [_crescent_abstraction()],
    "churn": _churn_abstractions,
}


def _hull_probe_points(abst) -> np.ndarray:
    """Points on every padded hull box's border and just either side of
    it, and points on and beside every hull edge."""
    out = []
    pad = 1e-9
    for hole in abst.holes:
        hull = abst.points[hole.hull]
        if len(hull) < 3:
            continue
        lo = hull.min(axis=0)
        hi = hull.max(axis=0)
        xs = [lo[0] - pad, hi[0] + pad, lo[0], hi[0], (lo[0] + hi[0]) / 2.0]
        ys = [lo[1] - pad, hi[1] + pad, lo[1], hi[1], (lo[1] + hi[1]) / 2.0]
        xs += [np.nextafter(x, s) for x in xs[:2] for s in (-np.inf, np.inf)]
        ys += [np.nextafter(y, s) for y in ys[:2] for s in (-np.inf, np.inf)]
        out.extend((x, y) for x in xs for y in ys)
        for a, b in zip(hull, np.roll(hull, -1, axis=0)):
            d = b - a
            normal = np.array([-d[1], d[0]]) / max(np.hypot(*d), 1e-300)
            for t in (0.0, 0.25, 0.5, 1.0):
                p = a + t * d
                out.append(tuple(p))
                for off in (1e-12, 1e-10, 1e-8):
                    out.append(tuple(p + off * normal))
                    out.append(tuple(p - off * normal))
    return np.asarray(out, dtype=np.float64)


class TestLocateIndexEquivalence:
    """``LocateIndex`` ≡ the scan oracles, with no tolerance: the node map
    and the padded-box prefilter change which holes are tested, never an
    answer (``docs/performance.md``)."""

    @pytest.mark.parametrize("name", list(_INSTANCES))
    def test_every_node_matches_reference(self, name):
        for abst in _INSTANCES[name]():
            index = LocateIndex(abst)
            got = [index.node(v) for v in range(len(abst.points))]
            want = [locate_node_reference(abst, v) for v in range(len(abst.points))]
            assert got == want
            assert any(loc is not None for loc in want)
            assert locate_node(abst, len(abst.points) - 1) == want[-1]

    def test_every_node_of_concave_fixture(self, concave_hole_instance):
        _, _, abst = concave_hole_instance
        index = LocateIndex(abst)
        for v in range(len(abst.points)):
            assert index.node(v) == locate_node_reference(abst, v), v

    @pytest.mark.parametrize("name", ["E1", "E7", "crescent"])
    def test_box_borders_and_hull_edges_match_reference(self, name):
        (abst,) = _INSTANCES[name]()
        index = LocateIndex(abst)
        pts = _hull_probe_points(abst)
        got = [index.point(p) for p in pts]
        want = [locate_point(abst, p) for p in pts]
        assert got == want
        assert any(loc is not None for loc in want)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_points_match_reference(self, concave_hole_instance, data):
        _, _, abst = concave_hole_instance
        lo = abst.points.min(axis=0)
        hi = abst.points.max(axis=0)
        x = data.draw(st.floats(float(lo[0]) - 1.0, float(hi[0]) + 1.0))
        y = data.draw(st.floats(float(lo[1]) - 1.0, float(hi[1]) + 1.0))
        index = LocateIndex(abst)
        assert index.point((x, y)) == locate_point(abst, (x, y))


class TestBayStructures:
    def test_groups_subset_of_arcs(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        groups, arcs = bay_waypoint_structures(abst)
        for hole in abst.holes:
            for idx, bay in enumerate(hole.bays):
                key = (hole.hole_id, idx)
                assert set(groups[key]) <= set(bay.arc)

    def test_corners_in_groups(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        groups, _ = bay_waypoint_structures(abst)
        for hole in abst.holes:
            for idx, bay in enumerate(hole.bays):
                group = groups[(hole.hole_id, idx)]
                assert bay.corner_a in group
                assert bay.corner_b in group

    def test_dominating_set_in_groups(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        groups, _ = bay_waypoint_structures(abst)
        for hole in abst.holes:
            for idx, bay in enumerate(hole.bays):
                assert set(bay.dominating_set) <= set(groups[(hole.hole_id, idx)])

    def test_arc_edges_chain_the_group(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        groups, arcs = bay_waypoint_structures(abst)
        for key, group in groups.items():
            edges = arcs[key]
            if len(group) < 2:
                continue
            # consecutive group members are linked and paths stay on the arc
            assert len(edges) == len(group) - 1
            for u, v, path in edges:
                assert path[0] == u and path[-1] == v

    def test_arc_edge_paths_are_graph_paths(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        _, arcs = bay_waypoint_structures(abst)
        for edges in arcs.values():
            for u, v, path in edges:
                for a, b in zip(path, path[1:]):
                    assert graph.has_edge(a, b)


class TestExtremePoints:
    def test_whole_arc_default(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer and h.bays)
        bay = max(hole.bays, key=len)
        ep = extreme_points(abst, bay)
        assert ep[0] == bay.arc[0]
        assert ep[-1] == bay.arc[-1]
        assert set(ep) <= set(bay.arc)

    def test_sub_arc(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer and h.bays)
        bay = max(hole.bays, key=len)
        if len(bay.arc) < 4:
            pytest.skip("bay too small")
        start, end = bay.arc[1], bay.arc[-2]
        ep = extreme_points(abst, bay, start, end)
        assert ep[0] == start and ep[-1] == end

    def test_arc_order_preserved(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer and h.bays)
        bay = max(hole.bays, key=len)
        ep = extreme_points(abst, bay)
        positions = [bay.arc.index(v) for v in ep]
        assert positions == sorted(positions)

    def test_two_node_subarc(self, concave_hole_instance):
        sc, graph, abst = concave_hole_instance
        hole = next(h for h in abst.holes if not h.is_outer and h.bays)
        bay = max(hole.bays, key=len)
        ep = extreme_points(abst, bay, bay.arc[0], bay.arc[1])
        assert ep == bay.arc[:2]
