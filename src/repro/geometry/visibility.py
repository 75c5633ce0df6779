"""Visibility graphs among polygonal obstacles.

Section 3's general routing protocol assumes every hole node stores a
visibility graph of *all* hole nodes; Lemma 2.12 (De Berg et al.) says
shortest paths among disjoint polygonal obstacles bend only at obstacle
corners, so a shortest path in this graph is the geometric optimum.  The
hull-abstraction protocol of Section 4 replaces the full visibility graph
with a much smaller structure; benchmark E8 measures exactly that trade-off,
so both structures are first-class here.

Visibility semantics follow the paper: two nodes are visible iff their open
line segment does not cross any hole.  Grazing a corner (sharing an endpoint
with an obstacle edge) does not block visibility, but passing *through* an
obstacle's interior does.

Both halves of the test run in :func:`visible_mask` as one array pass
over the obstacle rings, flattened once per obstacle set into
:class:`FlatRings`: a slab test picks the (sight line, ring) pairs whose
line enters the ring's padded bounding box, those pairs are expanded
into ring edges for the proper-crossing predicate, and the lines nothing
crosses go on to the interior test — does some piece of the sight line
run strictly inside an obstacle?  :func:`is_visible_reference` and
:func:`visible_mask_reference` keep the full scans (every sight line
against every obstacle segment, then the scalar :func:`_piece_inside`
walk) as the differential oracles (``tests/test_fastpath_equivalence.py``).
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from .primitives import EPS, as_array, distance
from .predicates import segment_intersects_any, segments_intersect_batch
from .polygon import (
    point_on_polygon_boundary,
    polygon_edges,
    segment_polygon_intersections,
)

__all__ = [
    "obstacle_segments",
    "obstacle_bboxes",
    "FlatRings",
    "is_visible",
    "is_visible_reference",
    "visible_mask",
    "visible_mask_reference",
    "visibility_graph",
    "shortest_path_through_visibility",
    "VisibilityGraph",
]

#: Element budget of one block of the pass — (sight line × ring box) in
#: the slab test, (pair × ring edge) in the crossing, cut and midpoint
#: tests: bounds peak memory on long hole rings without changing a result.
INTERIOR_BUDGET = 65536


def obstacle_segments(obstacles: Iterable[Sequence[Sequence[float]]]) -> np.ndarray:
    """Stack all obstacle boundary edges into one ``(m, 4)`` segment array."""
    chunks = [polygon_edges(poly) for poly in obstacles if len(poly) >= 2]
    if not chunks:
        return np.zeros((0, 4))
    return np.vstack(chunks)


def obstacle_bboxes(
    obstacles: Sequence[Sequence[Sequence[float]]],
) -> np.ndarray:
    """Per-obstacle axis-aligned bounding boxes as an ``(m, 4)`` array."""
    out = np.zeros((len(obstacles), 4))
    for i, poly in enumerate(obstacles):
        arr = as_array(poly)
        if len(arr) == 0:
            continue
        out[i] = (
            arr[:, 0].min(),
            arr[:, 1].min(),
            arr[:, 0].max(),
            arr[:, 1].max(),
        )
    return out


def _strictly_inside(sample, poly) -> bool:
    """Strict interior test with the expensive boundary check deferred.

    A plain ray cast decides most samples; only apparent hits pay for the
    point-on-boundary verification (needed so a sample lying exactly on an
    edge — a sight line grazing the polygon — does not count as inside).
    """
    n = len(poly)
    x, y = float(sample[0]), float(sample[1])
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = poly[i]
        xj, yj = poly[j]
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
            if x < x_cross:
                inside = not inside
        j = i
    if not inside:
        return False
    return not point_on_polygon_boundary(sample, poly)


def is_visible(
    p: Sequence[float],
    q: Sequence[float],
    obstacles: Sequence[Sequence[Sequence[float]]],
    *,
    rings: FlatRings | None = None,
) -> bool:
    """Is ``q`` visible from ``p`` given polygonal ``obstacles``?

    Visibility fails when the segment properly crosses an obstacle edge or
    when some piece of it runs strictly inside an obstacle (e.g. a sight
    line entering corner-to-corner through the interior).  A one-line
    :func:`visible_mask`; pass the obstacles' :class:`FlatRings` to amortize
    repeated queries against one obstacle set.
    """
    p_arr = np.asarray(p, dtype=np.float64).reshape(1, 2)
    q_arr = np.asarray(q, dtype=np.float64).reshape(1, 2)
    return bool(visible_mask(p_arr, q_arr, obstacles, rings=rings)[0])


def is_visible_reference(
    p: Sequence[float],
    q: Sequence[float],
    obstacles: Sequence[Sequence[Sequence[float]]],
    *,
    segments: np.ndarray | None = None,
    bboxes: np.ndarray | None = None,
) -> bool:
    """Full-scan oracle for :func:`is_visible`.

    Tests the sight line against *every* obstacle segment, then walks every
    obstacle whose bounding box it touches.  The differential suite pins
    the one-pass test to this answer on every pair it checks.
    """
    segs = obstacle_segments(obstacles) if segments is None else segments
    if segment_intersects_any(p, q, segs):
        return False
    if bboxes is None:
        bboxes = obstacle_bboxes(obstacles)
    return not _runs_inside(p, q, obstacles, bboxes)


def _piece_inside(
    p: Sequence[float], q: Sequence[float], poly: np.ndarray
) -> bool:
    """Does some piece of segment ``pq`` run strictly inside polygon ``poly``?

    With proper edge crossings already ruled out, the segment can still run
    through a polygon's interior corner-to-corner (e.g. along a diagonal),
    so split it at every boundary contact and test the midpoint of each
    piece for containment.
    """
    cuts = [0.0, 1.0]
    cuts.extend(t for t, _ in segment_polygon_intersections(p, q, poly))
    cuts.sort()
    for t0, t1 in zip(cuts, cuts[1:]):
        if t1 - t0 < 1e-9:
            continue
        tm = (t0 + t1) / 2.0
        sample = (
            p[0] + tm * (q[0] - p[0]),
            p[1] + tm * (q[1] - p[1]),
        )
        if _strictly_inside(sample, poly):
            return True
    return False


def _runs_inside(
    p: Sequence[float],
    q: Sequence[float],
    obstacles: Sequence[Sequence[Sequence[float]]],
    bboxes: np.ndarray,
) -> bool:
    """Does some piece of segment ``pq`` run strictly inside an obstacle?

    The second half of the visibility test, applied after proper edge
    crossings have been ruled out (scalar or batched).  Only obstacles whose
    bounding box the segment touches pay for the :func:`_piece_inside` walk.
    """
    sxmin, sxmax = min(p[0], q[0]), max(p[0], q[0])
    symin, symax = min(p[1], q[1]), max(p[1], q[1])
    for idx, poly in enumerate(obstacles):
        if len(poly) < 3:
            continue
        bxmin, bymin, bxmax, bymax = bboxes[idx]
        if sxmax < bxmin or bxmax < sxmin or symax < bymin or bymax < symin:
            continue
        if _piece_inside(p, q, poly):
            return True
    return False


class FlatRings:
    """The rings of one obstacle set as flat edge arrays, built once.

    The visibility pass reads every obstacle from here instead of looping
    over polygons.  Rings with fewer than 2 vertices are dropped (they have
    no edge that can be crossed); the others keep their row of ``bboxes``
    (their index into the obstacle list), so ``boxes[r]`` is ring ``r``'s
    box.  ``solid[r]`` marks rings of at least 3 vertices, the only ones
    the interior test walks, as the scalar walk skips the rest.  Ring
    ``r``'s edges are the flat indices ``starts[r] : starts[r] + counts[r]``
    in ring order.  Edge ``f`` runs from vertex ``(ax, ay)`` to the next
    vertex ``(bx, by)`` — the rows :func:`polygon_edges` yields, so the
    crossing test reads the same end points as the reference, not
    ``a + e``, which can round differently — by ``(ex, ey)``, and
    ``(jx, jy)`` is the previous vertex, the ``j`` end of the ray cast's
    edge ``(j, i)``.
    """

    def __init__(
        self,
        obstacles: Sequence[Sequence[Sequence[float]]],
        bboxes: np.ndarray | None = None,
    ) -> None:
        if bboxes is None:
            bboxes = obstacle_bboxes(obstacles)
        ids = [i for i, poly in enumerate(obstacles) if len(poly) >= 2]
        polys = [as_array(obstacles[i]) for i in ids]
        self.boxes = np.asarray(bboxes, dtype=np.float64).reshape(-1, 4)[ids]
        self.counts = np.array([len(p) for p in polys], dtype=np.int64)
        self.starts = np.cumsum(self.counts) - self.counts
        self.solid = self.counts >= 3
        if polys:
            a = np.vstack(polys)
            nxt = np.vstack([np.concatenate((p[1:], p[:1])) for p in polys])
            prv = np.vstack([np.concatenate((p[-1:], p[:-1])) for p in polys])
        else:
            a = nxt = prv = np.zeros((0, 2))
        self.ax = a[:, 0]
        self.ay = a[:, 1]
        self.bx = nxt[:, 0]
        self.by = nxt[:, 1]
        self.ex = self.bx - self.ax
        self.ey = self.by - self.ay
        self.jx = prv[:, 0]
        self.jy = prv[:, 1]
        self.len_sq = self.ex * self.ex + self.ey * self.ey


def _ring_edges(
    ring: np.ndarray, rings: FlatRings, budget: int
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Every edge of each item's ring, as ``(item, flat edge)`` pairs.

    ``ring[i]`` is item ``i``'s ring.  Yields ``(lo, hi, item, edge)`` for
    consecutive item ranges ``[lo, hi)`` holding at most ``budget`` pairs
    (at least one item), items ascending and each item's edges in ring
    order.
    """
    cnt = rings.counts[ring]
    ends = np.cumsum(cnt)
    lo = 0
    while lo < len(cnt):
        top = int(ends[lo] - cnt[lo]) + budget
        hi = max(lo + 1, int(np.searchsorted(ends, top, side="right")))
        c = cnt[lo:hi]
        offs = np.cumsum(c) - c
        item = np.repeat(np.arange(lo, hi), c)
        edge = np.repeat(rings.starts[ring[lo:hi]] - offs, c) + np.arange(len(item))
        yield lo, hi, item, edge
        lo = hi


def _entering_pairs(
    pa: np.ndarray, dx: np.ndarray, dy: np.ndarray, rings: FlatRings, budget: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The (segment, ring) pairs whose segment enters the ring's box.

    Segment ``j`` runs from ``pa[j]`` by ``(dx[j], dy[j])``.  Yields
    ``(line, ring)`` per block of consecutive segments; a block holds every
    pair of its segments, and its (segment × ring box) slab block at most
    ``budget`` elements (at least one segment).

    The Liang–Barsky slab test asks whether the segment actually enters the
    ring's bounding box, padded by 1e-9.  Anything the later tests look
    for lies in the unpadded box: a proper crossing point lies on a ring
    edge, and a piece strictly inside a polygon lies inside it.  The pad
    absorbs the rounding of the slab parameters, so the rejection is
    conservative-exact, and stronger than comparing the two bounding
    boxes, which passes every long diagonal sight line whose box merely
    overlaps the obstacle's.
    """
    m = len(pa)
    nr = len(rings.counts)
    if m == 0 or nr == 0:
        return
    pad = 1e-9
    bxmin = rings.boxes[:, 0] - pad
    bymin = rings.boxes[:, 1] - pad
    bxmax = rings.boxes[:, 2] + pad
    bymax = rings.boxes[:, 3] + pad
    per = max(1, budget // nr)
    for lo in range(0, m, per):
        hi = min(m, lo + per)
        t_lo, t_hi = _slab_interval(
            pa[lo:hi, 0:1], pa[lo:hi, 1:2], dx[lo:hi, None], dy[lo:hi, None],
            bxmin, bymin, bxmax, bymax,
        )
        line, ring = np.nonzero(t_lo <= t_hi)
        yield line + lo, ring


def _straddles(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``u`` and ``v`` beyond ``EPS`` on opposite sides of zero: the sign
    test :func:`proper_crossing_mask` applies to each pair of its cross
    products (opposite signs, both magnitudes above ``EPS``)."""
    return ((u > EPS) & (v < -EPS)) | ((u < -EPS) & (v > EPS))


def _pairs_cross(
    pa: np.ndarray,
    qa: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    line: np.ndarray,
    ring: np.ndarray,
    rings: FlatRings,
    budget: int,
) -> np.ndarray:
    """Which segments ``line[i]`` properly cross an edge of ring ``ring[i]``.

    Segment ``j`` runs from ``pa[j]`` to ``qa[j]``, by ``(dx[j], dy[j])``.
    Returns the crossing segments' indices (with repeats).  Each (pair,
    ring edge) element evaluates the four cross products of
    :func:`proper_crossing_mask` term for term, on the edge's stored end
    points (``dx`` is its ``q - p``, ``ex`` its ``b - a``), so it is
    classified exactly as :func:`segments_intersect_batch` classifies that
    segment against that row of :func:`obstacle_segments`.  The edge's end
    points are tested against the segment first; only the edges they
    straddle pay for the other two products.
    """
    parts: list[np.ndarray] = []
    for _, _, pair, f in _ring_edges(ring, rings, budget):
        seg = line[pair]
        px = pa[seg, 0]
        py = pa[seg, 1]
        sdx = dx[seg]
        sdy = dy[seg]
        ax = rings.ax[f]
        ay = rings.ay[f]
        d1 = sdx * (ay - py) - sdy * (ax - px)
        d2 = sdx * (rings.by[f] - py) - sdy * (rings.bx[f] - px)
        keep = _straddles(d1, d2)
        seg = seg[keep]
        f = f[keep]
        ax = ax[keep]
        ay = ay[keep]
        ex = rings.ex[f]
        ey = rings.ey[f]
        d3 = ex * (py[keep] - ay) - ey * (px[keep] - ax)
        d4 = ex * (qa[seg, 1] - ay) - ey * (qa[seg, 0] - ax)
        parts.append(seg[_straddles(d3, d4)])
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.intp)


def _runs_inside_bulk(
    pa: np.ndarray, qa: np.ndarray, rings: FlatRings
) -> np.ndarray:
    """Batched :func:`_runs_inside` over ``m`` segments and every obstacle.

    The interior half of :func:`visible_mask` on its own: every entering
    (segment, solid ring) pair goes through :func:`_pairs_inside`, so the
    result equals a Python loop of :func:`_runs_inside` calls element-wise.
    No block holds more than ``INTERIOR_BUDGET`` elements.
    """
    out = np.zeros(len(pa), dtype=bool)
    budget = INTERIOR_BUDGET
    dx = qa[:, 0] - pa[:, 0]
    dy = qa[:, 1] - pa[:, 1]
    for line, ring in _entering_pairs(pa, dx, dy, rings, budget):
        keep = rings.solid[ring]
        line = line[keep]
        ring = ring[keep]
        if len(line):
            out[line[_pairs_inside(pa, dx, dy, line, ring, rings, budget)]] = True
    return out


def _pairs_inside(
    pa: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    line: np.ndarray,
    ring: np.ndarray,
    rings: FlatRings,
    budget: int,
) -> np.ndarray:
    """:func:`_piece_inside` for each (segment ``line[i]``, ring ``ring[i]``)
    pair, segment ``j`` running from ``pa[j]`` by ``(dx[j], dy[j])``.

    Three array steps replace the scalar walk: the boundary cuts of every
    (pair, ring edge) element, the pieces between each pair's sorted cuts,
    and the strict-interior test of each piece's midpoint against its own
    ring.  Every float expression is the one
    :func:`segment_polygon_intersections`, :func:`_piece_inside`,
    :func:`_strictly_inside` and :func:`point_on_polygon_boundary`
    evaluate, in the same operation order, so each decision is equal to the
    scalar one, not just close.  Divisions are taken only where the scalar
    code divides (elsewhere the divisor is replaced by 1.0).
    """
    npair = len(line)
    pair_parts: list[np.ndarray] = []
    cut_parts: list[np.ndarray] = []
    for _, _, pair, f in _ring_edges(ring, rings, budget):
        seg = line[pair]
        bdx = dx[seg]
        bdy = dy[seg]
        ex = rings.ex[f]
        ey = rings.ey[f]
        denom = bdx * ey - bdy * ex
        live = ~(np.abs(denom) < EPS)
        safe = np.where(live, denom, 1.0)
        rx = rings.ax[f] - pa[seg, 0]
        ry = rings.ay[f] - pa[seg, 1]
        t = (rx * ey - ry * ex) / safe
        s = (rx * bdy - ry * bdx) / safe
        cut = live & (-EPS <= t) & (t <= 1 + EPS) & (-EPS <= s) & (s <= 1 + EPS)
        pair_parts.append(pair[cut])
        cut_parts.append(t[cut])
    # Each pair's cut list is [0, 1] plus its boundary contacts; sorting by
    # (pair, t) lays every list out in order, and consecutive entries of
    # one pair bound its pieces.
    rows = np.concatenate([np.arange(npair), np.arange(npair), *pair_parts])
    cuts = np.concatenate([np.zeros(npair), np.ones(npair), *cut_parts])
    order = np.lexsort((cuts, rows))
    rows = rows[order]
    cuts = cuts[order]
    same = rows[1:] == rows[:-1]
    t0 = cuts[:-1][same]
    t1 = cuts[1:][same]
    piece_pairs = rows[1:][same]
    keep = ~(t1 - t0 < 1e-9)
    piece_pairs = piece_pairs[keep]
    tm = (t0[keep] + t1[keep]) / 2.0
    seg = line[piece_pairs]
    sx = pa[seg, 0] + tm * dx[seg]
    sy = pa[seg, 1] + tm * dy[seg]
    out = np.zeros(npair, dtype=bool)
    inside = _strictly_inside_rings(sx, sy, ring[piece_pairs], rings, budget)
    out[piece_pairs[inside]] = True
    return out


def _strictly_inside_rings(
    x: np.ndarray,
    y: np.ndarray,
    ring: np.ndarray,
    rings: FlatRings,
    budget: int,
) -> np.ndarray:
    """:func:`_strictly_inside` for each point ``(x[i], y[i])`` against its
    own ring ``ring[i]``.

    The ray cast forms ``x_cross`` only for straddling edges (where the
    scalar loop forms it, so there is no zero divisor) and takes its parity
    per point by ``bincount``; the :func:`point_on_polygon_boundary` check
    (default ``tol``) runs only on odd-parity points, as the scalar
    function defers it.
    """
    m = len(x)
    hits = np.zeros(m, dtype=np.int64)
    for lo, hi, item, f in _ring_edges(ring, rings, budget):
        py = y[item]
        yi = rings.ay[f]
        yj = rings.jy[f]
        straddle = (yi > py) != (yj > py)
        item = item[straddle]
        f = f[straddle]
        yi = yi[straddle]
        xi = rings.ax[f]
        x_cross = xi + (py[straddle] - yi) / (rings.jy[f] - yi) * (rings.jx[f] - xi)
        hits[lo:hi] += np.bincount(
            item[x[item] < x_cross] - lo, minlength=hi - lo
        )
    odd = np.flatnonzero(hits % 2 == 1)
    tol = 1e-9
    near = np.zeros(len(odd), dtype=bool)
    for _, _, item, f in _ring_edges(ring[odd], rings, budget):
        wx = x[odd[item]] - rings.ax[f]
        wy = y[odd[item]] - rings.ay[f]
        vx = rings.ex[f]
        vy = rings.ey[f]
        point_edge = rings.len_sq[f] < EPS
        safe_len = np.where(point_edge, 1.0, rings.len_sq[f])
        t = np.maximum(0.0, np.minimum(1.0, (wx * vx + wy * vy) / safe_len))
        ddx = wx - t * vx
        ddy = wy - t * vy
        on_edge = np.where(
            point_edge,
            (np.abs(wx) < tol) & (np.abs(wy) < tol),
            ddx * ddx + ddy * ddy <= tol * tol,
        )
        near[item[on_edge]] = True
    out = np.zeros(m, dtype=bool)
    out[odd[~near]] = True
    return out


def _slab_interval(
    px: np.ndarray,
    py: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    bxmin: np.ndarray,
    bymin: np.ndarray,
    bxmax: np.ndarray,
    bymax: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter interval ``[lo, hi]`` of each segment inside each rectangle.

    Broadcasts segments ``(px, py) + t·(dx, dy)``, ``t ∈ [0, 1]``, against
    rectangles; a segment meets a rectangle iff ``lo <= hi``.
    Axis-parallel segments (zero delta in one axis) contribute
    ``(-inf, inf)`` when inside that slab and an empty interval otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tx1 = (bxmin - px) / dx
        tx2 = (bxmax - px) / dx
        ty1 = (bymin - py) / dy
        ty2 = (bymax - py) / dy
    zero_x = dx == 0.0  # repro: noqa[RPR003] exact sentinel: only a true zero delta divides to ±inf/nan; near-zero deltas produce huge finite t-intervals, which the clamp to [0, 1] handles
    zero_y = dy == 0.0  # repro: noqa[RPR003] exact sentinel: same as zero_x for the y slab
    in_x = (px >= bxmin) & (px <= bxmax)
    in_y = (py >= bymin) & (py <= bymax)
    txmin = np.where(zero_x, np.where(in_x, -np.inf, np.inf), np.minimum(tx1, tx2))
    txmax = np.where(zero_x, np.where(in_x, np.inf, -np.inf), np.maximum(tx1, tx2))
    tymin = np.where(zero_y, np.where(in_y, -np.inf, np.inf), np.minimum(ty1, ty2))
    tymax = np.where(zero_y, np.where(in_y, np.inf, -np.inf), np.maximum(ty1, ty2))
    lo = np.maximum(np.maximum(txmin, tymin), 0.0)
    hi = np.minimum(np.minimum(txmax, tymax), 1.0)
    return lo, hi


def visible_mask(
    pa: np.ndarray,
    qa: np.ndarray,
    obstacles: Sequence[Sequence[Sequence[float]]],
    *,
    rings: FlatRings | None = None,
) -> np.ndarray:
    """Batched :func:`is_visible` over ``m`` candidate sight lines.

    ``pa``/``qa`` have shape ``(m, 2)``; returns a boolean array of shape
    ``(m,)`` equal element-wise to :func:`visible_mask_reference`.  One
    pass over the obstacles' :class:`FlatRings` (built on the fly unless
    passed in): per block of sight lines, the slab test picks the entering
    (line, ring) pairs, their ring edges go through the proper-crossing
    predicate, and the pairs of lines nothing crosses go through the
    interior test, skipping rings of 2 vertices as the reference does.
    This is the hot path of Θ(h²) visibility-graph construction and of the
    waypoint planner.
    """
    pa = as_array(pa)
    qa = as_array(qa)
    if rings is None:
        rings = FlatRings(obstacles)
    budget = INTERIOR_BUDGET
    dx = qa[:, 0] - pa[:, 0]
    dy = qa[:, 1] - pa[:, 1]
    blocked = np.zeros(len(pa), dtype=bool)
    for line, ring in _entering_pairs(pa, dx, dy, rings, budget):
        blocked[_pairs_cross(pa, qa, dx, dy, line, ring, rings, budget)] = True
        keep = ~blocked[line] & rings.solid[ring]
        line = line[keep]
        ring = ring[keep]
        if len(line):
            inside = _pairs_inside(pa, dx, dy, line, ring, rings, budget)
            blocked[line[inside]] = True
    return ~blocked


def visible_mask_reference(
    pa: np.ndarray,
    qa: np.ndarray,
    obstacles: Sequence[Sequence[Sequence[float]]],
    *,
    segments: np.ndarray | None = None,
    bboxes: np.ndarray | None = None,
    chunk: int = 4096,
) -> np.ndarray:
    """Unpruned oracle for :func:`visible_mask`.

    Every sight line is tested against the full obstacle-segment array via
    :func:`segments_intersect_batch` (chunked to bound peak memory), and
    each uncrossed one walks the obstacles with :func:`_runs_inside` — the
    full-scan implementation, kept verbatim for differential testing.
    """
    pa = as_array(pa)
    qa = as_array(qa)
    m = len(pa)
    segs = obstacle_segments(obstacles) if segments is None else segments
    if bboxes is None:
        bboxes = obstacle_bboxes(obstacles)
    crossed = np.zeros(m, dtype=bool)
    for i in range(0, m, chunk):
        crossed[i : i + chunk] = segments_intersect_batch(
            pa[i : i + chunk], qa[i : i + chunk], segs
        )
    out = np.zeros(m, dtype=bool)
    for i in np.flatnonzero(~crossed):
        out[i] = not _runs_inside(pa[i], qa[i], obstacles, bboxes)
    return out


class VisibilityGraph:
    """Visibility graph over a fixed vertex set with polygonal obstacles.

    Parameters
    ----------
    vertices:
        The candidate bend points (hole-boundary nodes in §3, convex-hull
        corners in §4).
    obstacles:
        Polygons (vertex cycles) that block sight lines.

    The graph is built eagerly: O(v²) visibility tests, each vectorized over
    all obstacle edges.  ``insert_terminals`` supports the router's pattern
    of temporarily adding a source and target (the paper's "h₀ inserts t into
    its Visibility Graph") without rebuilding the whole structure.
    """

    def __init__(
        self,
        vertices: Sequence[Sequence[float]],
        obstacles: Sequence[Sequence[Sequence[float]]],
    ) -> None:
        self.vertices = as_array(vertices)
        self.obstacles = [as_array(o) for o in obstacles]
        self._rings = FlatRings(self.obstacles)
        self.adjacency: dict[int, dict[int, float]] = {
            i: {} for i in range(len(self.vertices))
        }
        self._build()

    def _build(self) -> None:
        n = len(self.vertices)
        if n < 2:
            return
        ii, jj = np.triu_indices(n, k=1)
        vis = visible_mask(
            self.vertices[ii], self.vertices[jj], self.obstacles,
            rings=self._rings,
        )
        for i, j in zip(ii[vis], jj[vis]):
            i, j = int(i), int(j)
            w = distance(self.vertices[i], self.vertices[j])
            self.adjacency[i][j] = w
            self.adjacency[j][i] = w

    @property
    def edge_count(self) -> int:
        """Number of undirected visibility edges (the Θ(h²) of §3)."""
        return sum(len(nbrs) for nbrs in self.adjacency.values()) // 2

    def insert_terminals(
        self, terminals: Sequence[Sequence[float]]
    ) -> list[int]:
        """Add terminal points (e.g. source/target), connecting them to every
        visible vertex and to each other.  Returns their new indices."""
        new_ids: list[int] = []
        for t in terminals:
            idx = len(self.vertices)
            self.vertices = np.vstack([self.vertices, np.asarray(t, dtype=float)])
            self.adjacency[idx] = {}
            for j in range(idx):
                p, q = self.vertices[idx], self.vertices[j]
                if is_visible(p, q, self.obstacles, rings=self._rings):
                    w = distance(p, q)
                    self.adjacency[idx][j] = w
                    self.adjacency[j][idx] = w
            new_ids.append(idx)
        return new_ids

    def remove_last(self, count: int) -> None:
        """Remove the ``count`` most recently inserted vertices."""
        n = len(self.vertices)
        for idx in range(n - count, n):
            for j in list(self.adjacency.get(idx, {})):
                self.adjacency[j].pop(idx, None)
            self.adjacency.pop(idx, None)
        self.vertices = self.vertices[: n - count]

    def shortest_path(self, src: int, dst: int) -> tuple[list[int], float]:
        """Dijkstra shortest path between two vertex indices.

        Returns ``(index_path, length)``; raises ``ValueError`` when ``dst``
        is unreachable (which, for visibility graphs of disjoint obstacles in
        a connected free space, indicates a modelling error).
        """
        dist: dict[int, float] = {src: 0.0}
        prev: dict[int, int] = {}
        heap: list[tuple[float, int]] = [(0.0, src)]
        seen: set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            if u == dst:
                break
            for v, w in self.adjacency[u].items():
                nd = d + w
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if dst not in dist or dst not in seen:
            raise ValueError(f"no visibility path from {src} to {dst}")
        path = [dst]
        while path[-1] != src:
            path.append(prev[path[-1]])
        path.reverse()
        return path, dist[dst]


def visibility_graph(
    vertices: Sequence[Sequence[float]],
    obstacles: Sequence[Sequence[Sequence[float]]],
) -> VisibilityGraph:
    """Construct a :class:`VisibilityGraph` (functional convenience form)."""
    return VisibilityGraph(vertices, obstacles)


def shortest_path_through_visibility(
    src: Sequence[float],
    dst: Sequence[float],
    obstacles: Sequence[Sequence[Sequence[float]]],
) -> tuple[list[tuple[float, float]], float]:
    """Geometric shortest obstacle-avoiding path from ``src`` to ``dst``.

    Builds the visibility graph over all obstacle corners plus the two
    terminals and runs Dijkstra — the textbook routine of Lemma 2.12.  This
    is the *optimal* geometric comparator used to measure competitiveness in
    the benchmarks.
    """
    corners: list[Sequence[float]] = []
    for poly in obstacles:
        corners.extend(tuple(v) for v in as_array(poly))
    graph = VisibilityGraph(corners, obstacles)
    s_idx, t_idx = graph.insert_terminals([src, dst])
    idx_path, length = graph.shortest_path(s_idx, t_idx)
    coords = [(float(graph.vertices[i][0]), float(graph.vertices[i][1])) for i in idx_path]
    return coords, length
