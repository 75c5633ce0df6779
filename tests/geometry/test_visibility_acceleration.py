"""Equivalence tests for the accelerated visibility paths.

The slab prefilter, the precomputed flat rings, and the deferred boundary
check are performance devices only — these tests pin them to a naive
reference implementation on random inputs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.polygon import (
    point_in_polygon,
    segment_polygon_intersections,
)
from repro.geometry.predicates import segments_properly_intersect
from repro.geometry.visibility import (
    FlatRings,
    _strictly_inside,
    is_visible,
    obstacle_bboxes,
)


def naive_is_visible(p, q, obstacles):
    """Reference implementation: no prefilters, tolerant containment."""
    for poly in obstacles:
        n = len(poly)
        for i in range(n):
            if segments_properly_intersect(p, q, poly[i], poly[(i + 1) % n]):
                return False
    for poly in obstacles:
        if len(poly) < 3:
            continue
        cuts = [0.0, 1.0] + [t for t, _ in segment_polygon_intersections(p, q, poly)]
        cuts.sort()
        for t0, t1 in zip(cuts, cuts[1:]):
            if t1 - t0 < 1e-9:
                continue
            tm = (t0 + t1) / 2.0
            sample = (p[0] + tm * (q[0] - p[0]), p[1] + tm * (q[1] - p[1]))
            if point_in_polygon(sample, poly, include_boundary=False):
                return False
    return True


OBSTACLES = [
    np.array([[2.0, 2.0], [4.0, 2.0], [4.0, 4.0], [2.0, 4.0]]),
    np.array([[6.0, 1.0], [7.5, 2.0], [7.0, 4.0], [5.5, 3.0]]),
    np.array([[1.0, 6.0], [3.0, 6.0], [3.0, 6.8], [2.2, 6.8], [2.2, 8.0], [1.0, 8.0]]),
]


class TestAcceleratedEquivalence:
    def test_random_segments_match_naive(self):
        rng = np.random.default_rng(0)
        rings = FlatRings(OBSTACLES, obstacle_bboxes(OBSTACLES))
        for _ in range(300):
            p = tuple(rng.uniform(0, 9, 2))
            q = tuple(rng.uniform(0, 9, 2))
            fast = is_visible(p, q, OBSTACLES, rings=rings)
            slow = naive_is_visible(p, q, OBSTACLES)
            assert fast == slow, f"{p} -> {q}"

    def test_vertex_to_vertex_segments(self):
        rings = FlatRings(OBSTACLES, obstacle_bboxes(OBSTACLES))
        corners = [tuple(v) for poly in OBSTACLES for v in poly]
        for i, p in enumerate(corners):
            for q in corners[i + 1 :: 3]:
                fast = is_visible(p, q, OBSTACLES, rings=rings)
                slow = naive_is_visible(p, q, OBSTACLES)
                assert fast == slow, f"{p} -> {q}"

    def test_without_precomputed_caches(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p = tuple(rng.uniform(0, 9, 2))
            q = tuple(rng.uniform(0, 9, 2))
            assert is_visible(p, q, OBSTACLES) == naive_is_visible(p, q, OBSTACLES)


class TestStrictlyInside:
    SQUARE = np.array([[0.0, 0.0], [2.0, 0.0], [2.0, 2.0], [0.0, 2.0]])

    def test_interior(self):
        assert _strictly_inside((1.0, 1.0), self.SQUARE)

    def test_exterior(self):
        assert not _strictly_inside((3.0, 1.0), self.SQUARE)

    def test_on_edge_not_inside(self):
        assert not _strictly_inside((1.0, 0.0), self.SQUARE)

    def test_on_vertex_not_inside(self):
        assert not _strictly_inside((0.0, 0.0), self.SQUARE)

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for poly in OBSTACLES:
            for _ in range(100):
                p = tuple(rng.uniform(0, 9, 2))
                ref = point_in_polygon(p, poly, include_boundary=False)
                assert _strictly_inside(p, poly) == ref


class TestObstacleBboxes:
    def test_shapes_and_values(self):
        boxes = obstacle_bboxes(OBSTACLES)
        assert boxes.shape == (3, 4)
        assert tuple(boxes[0]) == (2.0, 2.0, 4.0, 4.0)

    def test_empty(self):
        assert obstacle_bboxes([]).shape == (0, 4)
