"""Differential suite: every fast construction path ≡ its ``*_reference`` oracle.

The vectorized/grid-accelerated builders (``unit_disk_graph``, ``build_ldel``,
``delaunay_triangulation``, the pruned visibility tests, walking point
location, the array face walk and hole extraction) are required to agree with their kept-verbatim brute-force oracles
*exactly* — zero-tolerance set equality, not approximate agreement.  The
fast paths use term-identical floating-point arithmetic and the same EPS
bands as the oracles, so any mismatch is a bug, including on adversarial
degenerate inputs (collinear grids, cocircular quadruples, points exactly at
the unit-radius boundary).

See ``docs/performance.md`` for the pruning-correctness arguments each fast
path relies on.
"""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.delaunay import (
    PointLocator,
    delaunay_triangulation,
    delaunay_triangulation_reference,
    empty_circumcircle_violations,
    locate_point_reference,
)
from repro.geometry import visibility
from repro.geometry.predicates import (
    segments_intersect_batch,
    segments_properly_intersect,
)
from repro.geometry.visibility import (
    FlatRings,
    _entering_pairs,
    _pairs_inside,
    _piece_inside,
    _runs_inside,
    _runs_inside_bulk,
    _strictly_inside,
    _strictly_inside_rings,
    is_visible,
    is_visible_reference,
    obstacle_bboxes,
    obstacle_segments,
    visible_mask,
    visible_mask_reference,
)
from repro.geometry.convex_hull import convex_hull_indices
from repro.graphs.faces import (
    angular_embedding,
    angular_embedding_reference,
    enumerate_faces,
    enumerate_faces_reference,
    find_holes,
    find_holes_reference,
    walk_signed_area,
)
from repro.graphs.ldel import (
    build_ldel,
    build_ldel_reference,
    gabriel_edges,
    gabriel_edges_reference,
    udg_triangles,
    udg_triangles_reference,
)
from repro.graphs.udg import (
    unit_disk_graph,
    unit_disk_graph_reference,
)
from repro.scenarios import perturbed_grid_scenario

# The array kernels guard every divide; an unguarded one fails the suite.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def _uniform(seed: int, n: int, scale: float) -> np.ndarray:
    return np.random.default_rng(seed).uniform(0.0, scale, size=(n, 2))


def _clustered(seed: int, blobs: int, per_blob: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, scale, size=(blobs, 2))
    return np.concatenate(
        [c + rng.normal(0.0, 0.45, size=(per_blob, 2)) for c in centers]
    )


def _collinear_grid() -> np.ndarray:
    # Exact integer lattice scaled so rows/columns sit exactly at the unit
    # communication radius: maximally collinear AND maximally cocircular
    # (every lattice square is a cocircular quadruple), with every
    # horizontal/vertical neighbor pair exactly at distance 1.0.
    return np.array(
        [[i * 1.0, j * 1.0] for i in range(9) for j in range(9)]
    )


def _cocircular() -> np.ndarray:
    # Cocircular quadruples: 12 points on one circle plus interior points.
    theta = np.linspace(0.0, 2.0 * np.pi, 13)[:-1]
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1) * 0.9
    inner = np.array([[0.0, 0.0], [0.3, 0.1], [-0.2, 0.35]])
    return np.concatenate([ring, inner])


def _duplicate_radius() -> np.ndarray:
    # Many pairs exactly at the unit-radius boundary (distance exactly 1.0)
    # plus pairs a hair inside/outside — exercises the d² ≤ r² + EPS band.
    base = np.array(
        [
            [0.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [1.0, 1.0],
            [2.0, 0.0],
            [2.0, 1.0],
            [0.0, 2.0 + 1e-9],
            [1.0, 2.0 - 1e-9],
            [0.5, 0.5],
            [1.5, 0.5],
        ]
    )
    return base


FIXTURES = [
    pytest.param(lambda: _uniform(0, 250, 9.0), id="uniform-250"),
    pytest.param(lambda: _uniform(1, 600, 14.0), id="uniform-600"),
    pytest.param(lambda: _clustered(2, 5, 60, 10.0), id="clustered"),
    pytest.param(_collinear_grid, id="collinear-grid"),
    pytest.param(_cocircular, id="cocircular"),
    pytest.param(_duplicate_radius, id="duplicate-radius"),
]


@pytest.mark.parametrize("fixture", FIXTURES)
class TestUdgEquivalence:
    def test_adjacency_identical(self, fixture):
        pts = fixture()
        assert unit_disk_graph(pts) == unit_disk_graph_reference(pts)


@pytest.mark.parametrize("fixture", FIXTURES)
class TestLdelEquivalence:
    def test_triangles_identical(self, fixture):
        pts = fixture()
        adj = unit_disk_graph(pts)
        assert udg_triangles(adj) == udg_triangles_reference(adj)

    def test_gabriel_identical(self, fixture):
        pts = fixture()
        adj = unit_disk_graph(pts)
        assert gabriel_edges(pts, adj) == gabriel_edges_reference(pts, adj)

    def test_ldel2_graph_identical(self, fixture):
        pts = fixture()
        fast = build_ldel(pts, k=2)
        ref = build_ldel_reference(pts, k=2)
        assert fast.adjacency == ref.adjacency
        assert fast.triangles == ref.triangles
        assert fast.gabriel == ref.gabriel
        assert fast.udg == ref.udg

    def test_crossing_pairs_identical(self, fixture):
        pts = fixture()
        g = build_ldel(pts, k=2)
        assert sorted(g.crossing_edge_pairs()) == sorted(
            g.crossing_edge_pairs_reference()
        )


@pytest.mark.parametrize("fixture", FIXTURES)
class TestDelaunayEquivalence:
    def test_triangles_identical(self, fixture):
        pts = fixture()
        fast = delaunay_triangulation(pts)
        ref = delaunay_triangulation_reference(pts)
        assert fast.triangles == ref.triangles

    def test_edges_identical(self, fixture):
        pts = fixture()
        assert (
            delaunay_triangulation(pts).edges()
            == delaunay_triangulation_reference(pts).edges()
        )

    def test_no_empty_circle_violations_batch(self, fixture):
        # The batched in_circle audit agrees with Delaunayhood.
        pts = fixture()
        tri = delaunay_triangulation(pts)
        assert empty_circumcircle_violations(tri) == 0


@pytest.mark.parametrize("fixture", FIXTURES)
class TestPointLocationEquivalence:
    def test_locate_matches_linear_scan(self, fixture):
        pts = fixture()
        tri = delaunay_triangulation(pts)
        locator = PointLocator(tri)
        rng = np.random.default_rng(99)
        lo = pts.min(axis=0) - 0.5
        hi = pts.max(axis=0) + 0.5
        queries = rng.uniform(lo, hi, size=(150, 2))
        for q in queries:
            got = locator.locate(q)
            want = locate_point_reference(tri, q)
            if got is None:
                assert want == []
            else:
                assert got in want

    def test_locate_vertices_and_midpoints(self, fixture):
        # Degenerate queries: exact triangulation vertices and edge midpoints
        # lie on shared boundaries; the walk must return one of the incident
        # triangles the oracle reports.
        pts = fixture()
        tri = delaunay_triangulation(pts)
        if not tri.triangles:
            pytest.skip("no triangles (collinear fixture)")
        locator = PointLocator(tri)
        for a, b, c in tri.triangles[:40]:
            for q in (pts[a], (pts[a] + pts[b]) / 2.0, (pts[a] + pts[b] + pts[c]) / 3.0):
                got = locator.locate(q)
                want = locate_point_reference(tri, q)
                assert got is not None and got in want


def _obstacle_battery(seed: int, n_obs: int, scale: float) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    obstacles = []
    for _ in range(n_obs):
        center = rng.uniform(1.0, scale - 1.0, 2)
        k = int(rng.integers(3, 8))
        theta = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        radius = rng.uniform(0.2, 0.8, k)
        obstacles.append(
            center + np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
        )
    return obstacles


class TestVisibilityEquivalence:
    @pytest.fixture(scope="class")
    def world(self):
        obstacles = _obstacle_battery(seed=21, n_obs=12, scale=16.0)
        corners = np.vstack(obstacles)
        return obstacles, corners

    def test_visible_mask_identical_random_lines(self, world):
        obstacles, _ = world
        rng = np.random.default_rng(3)
        pa = rng.uniform(0.0, 16.0, size=(500, 2))
        qa = rng.uniform(0.0, 16.0, size=(500, 2))
        fast = visible_mask(pa, qa, obstacles)
        ref = visible_mask_reference(pa, qa, obstacles)
        assert (fast == ref).all()

    def test_visible_mask_identical_corner_adjacency(self, world):
        # The visibility-graph workload: all corner pairs, including sight
        # lines grazing the corners they are incident to.
        obstacles, corners = world
        ii, jj = np.triu_indices(len(corners), k=1)
        fast = visible_mask(corners[ii], corners[jj], obstacles)
        ref = visible_mask_reference(corners[ii], corners[jj], obstacles)
        assert (fast == ref).all()

    def test_is_visible_scalar_agreement(self, world):
        obstacles, corners = world
        rings = FlatRings(obstacles)
        rng = np.random.default_rng(4)
        for _ in range(200):
            p = rng.uniform(0.0, 16.0, 2)
            q = rng.uniform(0.0, 16.0, 2)
            assert is_visible(p, q, obstacles, rings=rings) == is_visible_reference(
                p, q, obstacles
            )

    def test_axis_aligned_degenerate_lines(self, world):
        # Axis-parallel sight lines exercise the zero-delta branches of the
        # slab rejection.
        obstacles, corners = world
        ys = np.linspace(0.0, 16.0, 60)
        pa = np.stack([np.zeros_like(ys), ys], axis=1)
        qa = np.stack([np.full_like(ys, 16.0), ys], axis=1)
        assert (
            visible_mask(pa, qa, obstacles)
            == visible_mask_reference(pa, qa, obstacles)
        ).all()
        xs = np.linspace(0.0, 16.0, 60)
        pa = np.stack([xs, np.zeros_like(xs)], axis=1)
        qa = np.stack([xs, np.full_like(xs, 16.0)], axis=1)
        assert (
            visible_mask(pa, qa, obstacles)
            == visible_mask_reference(pa, qa, obstacles)
        ).all()

    def test_slab_prefilter_complete(self, world):
        # Every segment that properly crosses a sight line belongs to a ring
        # whose padded box the slab test says the line enters (the
        # completeness half of the prefilter; the precision half is the
        # exact predicate on each ring edge).
        obstacles, _ = world
        rings = FlatRings(obstacles)
        rng = np.random.default_rng(5)
        pa = rng.uniform(0.0, 16.0, size=(120, 2))
        qa = rng.uniform(0.0, 16.0, size=(120, 2))
        dx = qa[:, 0] - pa[:, 0]
        dy = qa[:, 1] - pa[:, 1]
        entered = set()
        for line, ring in _entering_pairs(pa, dx, dy, rings, 65536):
            entered.update(zip(line.tolist(), ring.tolist()))
        crossings = 0
        for j, (p, q) in enumerate(zip(pa, qa)):
            for r, poly in enumerate(obstacles):
                for a, b in zip(poly, np.roll(poly, -1, axis=0)):
                    if segments_properly_intersect(p, q, a, b):
                        crossings += 1
                        assert (j, r) in entered
        assert crossings > 0


# -- the array interior kernel -------------------------------------------------

_SQUARE = np.array([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0]])
_L_SHAPE = np.array(
    [[0.0, 0.0], [4.0, 0.0], [4.0, 2.0], [2.0, 2.0], [2.0, 4.0], [0.0, 4.0]]
)
# A repeated vertex and a sub-EPS edge: the ``seg_len_sq < EPS`` branch of
# the boundary check, and ``|denom| < EPS`` for every sight line.
_ZERO_EDGES = np.array(
    [[0.0, 0.0], [4.0, 0.0], [4.0, 0.0], [4.0, 4.0], [4.0 - 1e-7, 4.0], [0.0, 4.0]]
)
# A spike 2e-8 wide: a long sight line across it cuts its two edges less
# than 1e-9 apart in t (a piece the walk skips), a short one does not.
_SPIKE = np.array([[0.0, 0.0], [10.0, 1e-8], [10.0, -1e-8]])
_KERNEL_POLYS = (_SQUARE, _L_SHAPE, _ZERO_EDGES, _SPIKE)


def _all_pairs(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ii, jj = np.meshgrid(np.arange(len(points)), np.arange(len(points)))
    return points[ii.ravel()], points[jj.ravel()]


def _through_vertices() -> tuple[np.ndarray, np.ndarray]:
    # Corner to corner (diagonals through the interior, grazing edges),
    # and lines through one or two vertices from outside.
    pts = np.vstack([_L_SHAPE, [[-1.0, -1.0], [5.0, 5.0], [6.0, 2.0], [-2.0, 2.0]]])
    return _all_pairs(pts)


def _collinear_with_edges() -> tuple[np.ndarray, np.ndarray]:
    # Along, inside and beyond polygon edges (``denom == 0`` on the edge
    # itself, contacts at its end vertices from the adjacent edges).
    pa = np.array(
        [[-1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [2.0, 1.0], [2.0, 3.0], [4.0, -1.0],
         [3.0, 2.0], [-1.0, 4.0], [0.0, 4.0 - 1e-7]]
    )
    qa = np.array(
        [[5.0, 0.0], [3.0, 0.0], [4.0, 0.0], [2.0, 5.0], [2.0, 2.0], [4.0, 5.0],
         [1.0, 2.0], [5.0, 4.0], [4.0, 4.0]]
    )
    return pa, qa


def _midpoints_on_boundary() -> tuple[np.ndarray, np.ndarray]:
    # Pieces whose midpoint lies exactly on an edge or a vertex: the ray
    # cast alone calls some of them inside, the boundary check must not.
    pa = np.array(
        [[0.0, 0.0], [1.0, 0.0], [4.0, 1.0], [2.0, 2.0], [0.0, 2.0], [3.0, 2.0],
         [2.0, 4.0], [-1.0, 2.0]]
    )
    qa = np.array(
        [[4.0, 0.0], [3.0, 0.0], [4.0, 3.0], [4.0, 2.0], [0.0, 4.0], [2.0, 2.0],
         [2.0, 2.0], [1.0, 2.0]]
    )
    return pa, qa


def _near_parallel() -> tuple[np.ndarray, np.ndarray]:
    # Sight lines tilted off an edge by a few ulps up to well past EPS, so
    # ``denom`` straddles the ``|denom| < EPS`` cut-off.
    tilts = np.array([0.0, 1e-16, 1e-14, 2.5e-13, 3e-13, 1e-12, 1e-11, 1e-9])
    pa = np.stack([np.full_like(tilts, -1.0), -tilts], axis=1)
    qa = np.stack([np.full_like(tilts, 5.0), tilts], axis=1)
    pb = np.stack([2.0 - tilts, np.full_like(tilts, 1.0)], axis=1)
    qb = np.stack([2.0 + tilts, np.full_like(tilts, 5.0)], axis=1)
    return np.vstack([pa, pb]), np.vstack([qa, qb])


def _across_spike() -> tuple[np.ndarray, np.ndarray]:
    xs = np.array([5.0, 9.0, 9.999])
    pa = np.concatenate([np.stack([xs, np.full(3, -50.0)], 1), np.stack([xs, np.full(3, -1.0)], 1)])
    qa = np.concatenate([np.stack([xs, np.full(3, 50.0)], 1), np.stack([xs, np.full(3, 1.0)], 1)])
    return pa, qa


def _degenerate_points() -> tuple[np.ndarray, np.ndarray]:
    # ``p == q``: inside, outside, on an edge, on a vertex, on the zero edge.
    pts = np.array(
        [[1.0, 1.0], [3.0, 3.0], [5.0, 5.0], [2.0, 0.0], [4.0, 0.0], [2.0, 3.0],
         [4.0 - 5e-8, 4.0]]
    )
    return pts, pts.copy()


def _battery_lines() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(6)
    corners = np.vstack(_obstacle_battery(seed=21, n_obs=12, scale=16.0))
    ii, jj = np.triu_indices(len(corners), k=1)
    pa = np.vstack([corners[ii], rng.uniform(0.0, 16.0, size=(400, 2))])
    qa = np.vstack([corners[jj], rng.uniform(0.0, 16.0, size=(400, 2))])
    return pa, qa


_KERNEL_LINES = {
    "through_vertices": _through_vertices,
    "collinear_with_edges": _collinear_with_edges,
    "midpoints_on_boundary": _midpoints_on_boundary,
    "near_parallel": _near_parallel,
    "across_spike": _across_spike,
    "p_equals_q": _degenerate_points,
}


def _all_line_ring_pairs(pa, qa, polys, budget):
    """``_pairs_inside`` over every (line, ring) pair, no slab filter."""
    rings = FlatRings(polys)
    line = np.repeat(np.arange(len(pa)), len(polys))
    ring = np.tile(np.arange(len(polys)), len(pa))
    dx = qa[:, 0] - pa[:, 0]
    dy = qa[:, 1] - pa[:, 1]
    got = _pairs_inside(pa, dx, dy, line, ring, rings, budget)
    return got.reshape(len(pa), len(polys))


def _assert_runs_inside(pa, qa, obstacles):
    bboxes = obstacle_bboxes(obstacles)
    got = _runs_inside_bulk(pa, qa, FlatRings(obstacles, bboxes))
    want = [_runs_inside(p, q, obstacles, bboxes) for p, q in zip(pa, qa)]
    assert got.tolist() == want
    return got


_BUDGETS = (1, 5, 65536)

# Two polygons whose boxes overlap: a square sits in the L's notch.
_NOTCHED = [_L_SHAPE, _SQUARE * 0.4 + 2.5]
# Three squares in a row: a sight line along y = 2 or through their
# corners enters every box.
_ROW = [_SQUARE, _SQUARE + [6.0, 0.0], _SQUARE + [12.0, 0.0]]


def _row_lines() -> tuple[np.ndarray, np.ndarray]:
    pts = np.vstack(_ROW + [np.array([[-1.0, 2.0], [17.0, 2.0], [-1.0, -1.0]])])
    return _all_pairs(pts)


class TestInteriorKernelEquivalence:
    """The one-pass interior test (``_runs_inside_bulk`` over
    :class:`FlatRings`) ≡ the scalar polygon walk, pair by pair, with no
    tolerance (``docs/performance.md``).  Each test runs at element budgets
    of 1, 5 and 65,536."""

    @pytest.fixture(params=_BUDGETS)
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(visibility, "INTERIOR_BUDGET", request.param)
        return request.param

    @pytest.mark.parametrize("lines", list(_KERNEL_LINES), ids=list(_KERNEL_LINES))
    def test_pieces_inside_matches_piece_inside(self, lines, budget):
        # Every (line, ring) pair of all kernel polygons in one pass, the
        # pairs the slab test would reject included.
        pa, qa = _KERNEL_LINES[lines]()
        got = _all_line_ring_pairs(pa, qa, list(_KERNEL_POLYS), budget)
        want = [
            [_piece_inside(p, q, poly) for poly in _KERNEL_POLYS]
            for p, q in zip(pa, qa)
        ]
        assert got.tolist() == want

    def test_battery_matches_runs_inside(self, budget):
        got = _assert_runs_inside(
            *_battery_lines(), _obstacle_battery(seed=21, n_obs=12, scale=16.0)
        )
        assert 0 < got.sum() < len(got)

    def test_fixtures_match_runs_inside(self, budget):
        obstacles = [_L_SHAPE, _ZERO_EDGES + 6.0, _SQUARE - 6.0]
        for make in _KERNEL_LINES.values():
            pa, qa = make()
            for shift in (0.0, 6.0, -6.0):
                _assert_runs_inside(pa + shift, qa + shift, obstacles)

    def test_overlapping_boxes(self, budget):
        pts = np.vstack(_NOTCHED + [np.array([[1.0, 3.0], [3.0, 1.0], [5.0, 5.0]])])
        got = _assert_runs_inside(*_all_pairs(pts), _NOTCHED)
        assert got.any()

    def test_line_entering_several_obstacles(self, budget):
        pa, qa = _row_lines()
        got = _assert_runs_inside(pa, qa, _ROW)
        entered = [
            sum(_piece_inside(p, q, poly) for poly in _ROW) for p, q in zip(pa, qa)
        ]
        assert max(entered) == len(_ROW)
        assert got.tolist() == [n > 0 for n in entered]

    def test_short_rings_keep_their_box_index(self, budget):
        # Rings of 0, 1 and 2 vertices between real ones: the walk skips
        # them, the 2-vertex one stays for the crossing half only, and each
        # kept ring keeps its own row of the boxes.
        obstacles = [
            np.array([[7.0, 7.0], [9.0, 9.0]]),
            _L_SHAPE,
            np.zeros((0, 2)),
            _SQUARE + 6.0,
            np.array([[20.0, 20.0]]),
            _ZERO_EDGES - 6.0,
        ]
        rings = FlatRings(obstacles)
        assert rings.boxes.tolist() == obstacle_bboxes(obstacles)[[0, 1, 3, 5]].tolist()
        assert rings.solid.tolist() == [False, True, True, True]
        pts = np.vstack([_L_SHAPE, _SQUARE + 6.0, _ZERO_EDGES - 6.0, [[8.0, 8.0]]])
        got = _assert_runs_inside(*_all_pairs(pts), obstacles)
        assert got.any()

    def test_no_obstacles(self, budget):
        pa, qa = _through_vertices()
        assert not _runs_inside_bulk(pa, qa, FlatRings([])).any()
        assert visible_mask(pa, qa, []).all()
        assert visible_mask_reference(pa, qa, []).all()

    def test_zero_lines(self, budget):
        empty = np.zeros((0, 2))
        assert _runs_inside_bulk(empty, empty, FlatRings(_NOTCHED)).shape == (0,)
        assert visible_mask(empty, empty, _NOTCHED).shape == (0,)

    def test_strictly_inside_mask_on_lattice(self):
        # Every vertex, edge point and cell centre of a half-unit lattice,
        # each point against every kernel polygon as its own ring.
        xs, ys = np.meshgrid(np.arange(-1.0, 5.5, 0.5), np.arange(-1.0, 5.5, 0.5))
        x, y = xs.ravel(), ys.ravel()
        rings = FlatRings(list(_KERNEL_POLYS))
        n = len(_KERNEL_POLYS)
        ring = np.tile(np.arange(n), len(x))
        want = [
            _strictly_inside((a, b), poly) for a, b in zip(x, y) for poly in _KERNEL_POLYS
        ]
        for budget in _BUDGETS:
            got = _strictly_inside_rings(
                np.repeat(x, n), np.repeat(y, n), ring, rings, budget
            )
            assert got.tolist() == want

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=7
        ),
        st.lists(
            st.tuples(st.integers(-1, 7), st.integers(-1, 7)), min_size=2, max_size=24
        ),
    )
    def test_integer_lattice_property(self, ring, ends):
        # Small-integer coordinates make collinear runs, shared vertices and
        # self-touching rings common — the degenerate cases of the kernel.
        poly = np.asarray(ring, dtype=np.float64)
        pts = np.asarray(ends, dtype=np.float64)
        pa, qa = pts[::2][: len(pts) // 2], pts[1::2]
        want = [
            [_piece_inside(p, q, poly), _piece_inside(p, q, _SQUARE)]
            for p, q in zip(pa, qa)
        ]
        for budget in _BUDGETS:
            got = _all_line_ring_pairs(pa, qa, [poly, _SQUARE], budget)
            assert got.tolist() == want


# -- the one pass: crossings and interiors ----------------------------------

# Short segments in the first row and column and one far away, as 2-vertex
# obstacles: they block by crossing only, never by interior.
_UNIT_SEGMENTS = [
    np.array(seg, dtype=np.float64).reshape(2, 2)
    for seg in (
        [0.0, 0.0, 0.9, 0.0],
        [0.0, 0.2, 0.0, 2.5],
        [0.5, 0.5, 1.0, 1.0],
        [3.0, 1.0, 3.0, 2.0],
        [6.5, 6.5, 8.0, 7.25],
    )
]


def _unit_lines() -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(31)
    pa = rng.uniform(-2.0, 9.0, size=(300, 2))
    qa = rng.uniform(-2.0, 9.0, size=(300, 2))
    # Axis-parallel lines through segment ends and along the segments.
    ys = [-1.0, 0.0, 1.0, 2.0, 3.0]
    apa = [[-0.5, y] for y in ys] + [[y, -0.5] for y in ys] + [[-0.5, -0.5]]
    aqa = [[3.5, y] for y in ys] + [[y, 3.5] for y in ys] + [[3.5, 3.5]]
    # Zero-length sight lines: on a segment, on an end point, off the set.
    pts = np.array([[0.5, 0.0], [1.0, 1.0], [0.0, 0.0], [-3.0, -3.0], [20.0, 2.0]])
    return np.vstack([pa, apa, pts]), np.vstack([qa, aqa, pts])


def _pad_lines() -> tuple[np.ndarray, np.ndarray]:
    # Lines that meet the square [0, 4]² only inside the 1e-9 box pad:
    # parallel to an edge just outside it, and past a corner just outside.
    off = 5e-10
    pa = np.array(
        [[-1.0, 4.0 + off], [4.0 + off, -1.0], [-1.0, -off], [-off, 5.0],
         [-1.0, 1.0 - off], [3.0, 5.0 + off]]
    )
    qa = np.array(
        [[5.0, 4.0 + off], [4.0 + off, 5.0], [5.0, -off], [-off, -1.0],
         [1.0 - off, -1.0], [5.0 + off, 3.0]]
    )
    return pa, qa


def _assert_one_pass(pa, qa, obstacles):
    rings = FlatRings(obstacles)
    got = visible_mask(pa, qa, obstacles, rings=rings)
    want = visible_mask_reference(pa, qa, obstacles)
    assert got.tolist() == want.tolist()
    assert is_visible(pa[0], qa[0], obstacles, rings=rings) == bool(want[0])
    return got


class TestOnePassEquivalence:
    """``visible_mask`` (slab block, crossing and interior tests in one pass
    over :class:`FlatRings`) ≡ ``visible_mask_reference`` (every obstacle
    segment, then the scalar walk), line by line, at element budgets of 1,
    5 and 65,536 (``docs/performance.md``)."""

    @pytest.fixture(params=_BUDGETS)
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(visibility, "INTERIOR_BUDGET", request.param)
        return request.param

    def test_unit_segments(self, budget):
        pa, qa = _unit_lines()
        got = _assert_one_pass(pa, qa, _UNIT_SEGMENTS)
        segs = obstacle_segments(_UNIT_SEGMENTS)
        assert got.tolist() == (~segments_intersect_batch(pa, qa, segs)).tolist()
        assert 0 < got.sum() < len(got)

    def test_obstacle_battery(self, budget):
        got = _assert_one_pass(
            *_battery_lines(), _obstacle_battery(seed=21, n_obs=12, scale=16.0)
        )
        assert 0 < got.sum() < len(got)

    @pytest.mark.parametrize("lines", list(_KERNEL_LINES), ids=list(_KERNEL_LINES))
    def test_kernel_lines(self, lines, budget):
        # Lines grazing corners, collinear with edges, with midpoints on
        # the boundary, near-parallel, across a spike, and p == q.
        pa, qa = _KERNEL_LINES[lines]()
        for shift in (0.0, 6.0):
            _assert_one_pass(pa + shift, qa + shift, list(_KERNEL_POLYS))

    def test_two_vertex_obstacles(self, budget):
        # 2-vertex obstacles beside, across and inside solid rings: they
        # block by crossing, and never by interior.
        obstacles = [
            _SQUARE,
            np.array([[1.0, 1.0], [3.0, 3.0]]),
            _L_SHAPE + 6.0,
            np.array([[-1.0, 2.0], [5.0, 2.0]]),
            np.array([[9.0, 6.5], [9.0, 9.5]]),
        ]
        pts = np.vstack(obstacles + [np.array([[2.0, 0.5], [-2.0, -2.0], [12.0, 12.0]])])
        got = _assert_one_pass(*_all_pairs(pts), obstacles)
        assert 0 < got.sum() < len(got)

    def test_lines_inside_the_box_pad(self, budget):
        pa, qa = _pad_lines()
        rings = FlatRings([_SQUARE])
        dx = qa[:, 0] - pa[:, 0]
        dy = qa[:, 1] - pa[:, 1]
        entered = set()
        for line, _ in _entering_pairs(pa, dx, dy, rings, budget):
            entered.update(line.tolist())
        assert entered == set(range(len(pa)))
        assert _assert_one_pass(pa, qa, [_SQUARE]).all()
        # The same lines against a 2-vertex obstacle on the square's top
        # edge, whose box has zero height.
        _assert_one_pass(pa, qa, [_SQUARE[2:4]])

    def test_no_segments(self):
        pa, qa = _unit_lines()
        for obstacles in ([], [np.zeros((0, 2))], [np.array([[1.0, 1.0]])]):
            rings = FlatRings(obstacles)
            assert len(rings.counts) == 0
            assert visible_mask(pa, qa, obstacles, rings=rings).all()
            assert visible_mask_reference(pa, qa, obstacles).all()


# -- faces and holes ----------------------------------------------------------


def _e1() -> np.ndarray:
    # The E1 instance (n=449, two holes) the served-routing benchmark uses.
    return perturbed_grid_scenario(
        width=12.0, height=12.0, hole_count=2, hole_scale=2.0, seed=1
    ).points


def _hexagon() -> np.ndarray:
    # Every convex-hull edge is an ad hoc edge: no outer hole is closed.
    theta = np.linspace(0.0, 2.0 * np.pi, 7)[:-1]
    ring = np.stack([np.cos(theta), np.sin(theta)], axis=1) * 0.9
    return np.concatenate([[[0.0, 0.0]], ring])


def _twin_components(offset: tuple[float, float]) -> np.ndarray:
    # Two congruent, disconnected components: their outer walks tie on
    # area — exactly for a dyadic offset, to within rounding otherwise.
    base = np.random.default_rng(8).integers(0, 24, size=(30, 2)) / 8.0
    base = np.unique(base, axis=0)
    return np.concatenate([base, base + np.asarray(offset)])


def _collinear_line() -> np.ndarray:
    # A two-point hull whose one edge is added twice: the repeated-dart case.
    return np.array([[0.5 * i, 0.0] for i in range(6)])


FACE_FIXTURES = FIXTURES + [
    pytest.param(_e1, id="e1-449"),
    pytest.param(_hexagon, id="no-added-hull-edge"),
    pytest.param(lambda: _twin_components((8.0, 0.0)), id="twins-exact"),
    # An offset at which the one-pass sums and np.dot (numpy 2.4, x86-64)
    # order the two outer walks differently, so only re-scoring agrees.
    pytest.param(lambda: _twin_components((7.393, -19.339)), id="twins-rounded"),
    pytest.param(_collinear_line, id="collinear-line"),
    pytest.param(lambda: np.empty((0, 2)), id="empty"),
    pytest.param(lambda: np.array([[0.5, 0.5]]), id="one-node"),
]


def assert_same_holes(fast, ref) -> None:
    """Zero-tolerance HoleSet equality: ids, walks (start vertex included),
    outer flags, closing edges and the outer face walk."""
    assert fast.outer_face == ref.outer_face
    assert [
        (h.hole_id, h.boundary, h.is_outer, h.closing_edge) for h in fast.holes
    ] == [(h.hole_id, h.boundary, h.is_outer, h.closing_edge) for h in ref.holes]


@pytest.mark.parametrize("fixture", FACE_FIXTURES)
class TestFaceEquivalence:
    def test_embedding_identical(self, fixture):
        graph = build_ldel(fixture())
        assert angular_embedding(graph.points, graph.adjacency) == (
            angular_embedding_reference(graph.points, graph.adjacency)
        )

    def test_faces_identical(self, fixture):
        graph = build_ldel(fixture())
        assert enumerate_faces(graph.points, graph.adjacency) == (
            enumerate_faces_reference(graph.points, graph.adjacency)
        )

    def test_holes_identical(self, fixture):
        graph = build_ldel(fixture())
        assert_same_holes(find_holes(graph), find_holes_reference(graph))


def test_hexagon_adds_no_hull_edge():
    # The precondition the "no-added-hull-edge" fixture stands for.
    graph = build_ldel(_hexagon())
    hull = convex_hull_indices(graph.points)
    assert all(graph.has_edge(a, b) for a, b in zip(hull, hull[1:] + hull[:1]))
    assert not any(h.is_outer for h in find_holes(graph).holes)


def test_twin_outer_walks_tie():
    # The exact twins really tie: the reference's argmin takes the first.
    graph = build_ldel(_twin_components((8.0, 0.0)))
    areas = sorted(
        walk_signed_area(graph.points, w)
        for w in enumerate_faces_reference(graph.points, graph.adjacency)
    )
    assert areas[0] == areas[1] < 0.0


def _collinear_fan(seed: int, k: int = 60) -> tuple[np.ndarray, dict]:
    # A star whose leaves come in same-ray pairs: their angles tie or differ
    # by an ulp, where vectorized arctan2 and math.atan2 can disagree.
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi, np.pi, k)
    radii = rng.uniform(0.3, 1.0, (2, k))
    rays = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pts = np.concatenate([[[0.0, 0.0]], radii[0][:, None] * rays, radii[1][:, None] * rays])
    adj = {0: list(range(1, 2 * k + 1))}
    adj.update({v: [0] for v in range(1, 2 * k + 1)})
    return pts, adj


@pytest.mark.parametrize("seed", range(8))
def test_embedding_near_tied_angles(seed):
    pts, adj = _collinear_fan(seed)
    assert angular_embedding(pts, adj) == angular_embedding_reference(pts, adj)
    assert enumerate_faces(pts, adj) == enumerate_faces_reference(pts, adj)


_coord = st.one_of(
    st.integers(0, 16).map(lambda k: k * 0.25),
    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_coord, _coord), min_size=0, max_size=40, unique=True))
def test_holes_identical_random_point_sets(raw):
    graph = build_ldel(np.array(raw, dtype=float).reshape(-1, 2))
    assert enumerate_faces(graph.points, graph.adjacency) == (
        enumerate_faces_reference(graph.points, graph.adjacency)
    )
    assert_same_holes(find_holes(graph), find_holes_reference(graph))
