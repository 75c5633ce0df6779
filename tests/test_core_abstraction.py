"""Direct unit tests for the core Abstraction artifact."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.abstraction import (
    Abstraction,
    Bay,
    build_abstraction,
    reference_dominating_set,
)


class TestReferenceDominatingSet:
    def test_empty(self):
        assert reference_dominating_set([]) == []

    def test_single(self):
        assert reference_dominating_set([7]) == [7]

    def test_members_from_arc(self):
        arc = [3, 1, 4, 1, 5, 9, 2, 6]
        ds = reference_dominating_set(arc)
        assert set(ds) <= set(arc)

    @given(k=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_dominates_any_path(self, k):
        arc = list(range(1000, 1000 + k))
        ds = set(reference_dominating_set(arc))
        for i, v in enumerate(arc):
            nbrs = [arc[j] for j in (i - 1, i + 1) if 0 <= j < k]
            assert v in ds or any(u in ds for u in nbrs)

    @given(k=st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_size_near_optimal(self, k):
        arc = list(range(k))
        ds = reference_dominating_set(arc)
        assert len(ds) <= math.ceil(k / 3) + 1


class TestBay:
    def test_interior(self):
        bay = Bay(hole_id=0, corner_a=1, corner_b=4, arc=[1, 2, 3, 4])
        assert bay.interior == [2, 3]
        assert len(bay) == 4

    def test_tiny_bay_no_interior(self):
        bay = Bay(hole_id=0, corner_a=1, corner_b=2, arc=[1, 2])
        assert bay.interior == []


class TestHoleAbstraction:
    @pytest.fixture(scope="class")
    def hole(self, one_hole_instance):
        sc, graph, abst = one_hole_instance
        return abst, next(h for h in abst.holes if not h.is_outer)

    def test_hull_subset_of_boundary(self, hole):
        abst, h = hole
        assert set(h.hull) <= set(h.boundary)

    def test_perimeter_vs_hull_bound(self, hole):
        abst, h = hole
        # Perimeter of the boundary >= perimeter of its hull; hull
        # circumference bound L is within a constant of the hull size.
        assert h.perimeter(abst.points) > 0
        assert h.hull_circumference_bound(abst.points) > 0

    def test_bay_of(self, hole):
        abst, h = hole
        for bay in h.bays:
            for v in bay.interior:
                assert h.bay_of(v) is bay
        assert h.bay_of(-1) is None

    def test_polygons_shapes(self, hole):
        abst, h = hole
        assert h.hull_polygon(abst.points).shape == (len(h.hull), 2)
        assert h.boundary_polygon(abst.points).shape == (len(h.boundary), 2)


class TestAbstraction:
    def test_node_role_sets(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        assert abst.hull_nodes() <= abst.boundary_nodes()

    def test_outer_boundary_recorded(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        assert abst.outer_boundary
        # Outer boundary nodes sit near the region rim.
        for v in abst.outer_boundary[:20]:
            x, y = graph.points[v]
            assert (
                x < 2.0 or y < 2.0 or x > sc.width - 2.0 or y > sc.height - 2.0
            )

    def test_overlay_delaunay_plain(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        ids, coords, edges = abst.overlay_delaunay()
        assert len(ids) == len(coords) == len(abst.hull_nodes())
        for i, j in edges:
            assert 0 <= i < len(coords) and 0 <= j < len(coords)

    def test_overlay_delaunay_with_terminals(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        ids, coords, edges = abst.overlay_delaunay(
            extra_points=[(1.0, 1.0), (9.0, 9.0)]
        )
        assert ids[-2:] == [-1, -2]
        assert len(coords) == len(abst.hull_nodes()) + 2

    def test_storage_profile_keys(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        profile = abst.storage_profile()
        assert profile["n"] == sc.n
        assert profile["hull_node_words"] > 0
        assert profile["sum_L"] > 0

    def test_hulls_disjoint_on_valid_instance(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        assert abst.hulls_disjoint()

    def test_build_without_dominating_sets(self, multi_hole_instance):
        sc, graph, _ = multi_hole_instance
        abst = build_abstraction(graph, dominating_sets=False)
        for h in abst.holes:
            for bay in h.bays:
                assert bay.dominating_set == []

    def test_bays_are_consistent(self, multi_hole_instance):
        sc, graph, abst = multi_hole_instance
        for h in abst.holes:
            bset = set(h.boundary)
            for bay in h.bays:
                assert set(bay.arc) <= bset
                assert bay.arc[0] == bay.corner_a
                assert bay.arc[-1] == bay.corner_b
                assert bay.corner_a in h.hull and bay.corner_b in h.hull
