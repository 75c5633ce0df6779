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

The proper-crossing rejection — the Θ(m·k) bulk of visibility-graph
construction — runs through :class:`SegmentGrid`, a uniform grid over the
obstacle segments that prunes each sight line's candidate set to the
segments sharing a grid neighborhood with it before handing the survivors
to the vectorized crossing predicate.  The pruning is conservative (any
segment properly crossing a sight line shares a cell neighborhood with it,
see :meth:`SegmentGrid.crossing_mask`), so the pruned test classifies every
pair identically to the full scan; :func:`is_visible_reference` and
:func:`visible_mask_reference` keep the full-scan implementations as the
differential oracles (``tests/test_fastpath_equivalence.py``).  The second
half of the test — does some piece of an uncrossed sight line run strictly
inside an obstacle? — runs in :func:`visible_mask` as an array kernel over
(sight line × polygon edge) blocks, with the scalar :func:`_piece_inside`
walk kept as its reference.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Iterable, Sequence

import numpy as np

from .primitives import EPS, as_array, distance
from .predicates import (
    proper_crossing_mask,
    segment_intersects_any,
    segments_intersect_batch,
)
from .polygon import (
    point_on_polygon_boundary,
    polygon_edges,
    segment_polygon_intersections,
)

__all__ = [
    "obstacle_segments",
    "obstacle_bboxes",
    "SegmentGrid",
    "is_visible",
    "is_visible_reference",
    "visible_mask",
    "visible_mask_reference",
    "visibility_graph",
    "shortest_path_through_visibility",
    "VisibilityGraph",
]

#: Element budget of one (sight line × polygon edge) block in the interior
#: kernel: bounds peak memory on long hole rings without changing a result.
INTERIOR_BUDGET = 65536


class SegmentGrid:
    """Uniform grid over obstacle segments for sight-line candidate pruning.

    Each segment is registered in every cell its bounding box overlaps.  A
    sight-line query samples points along the line at spacing at most one
    cell and collects the segments registered in the 3×3 cell neighborhood
    of each sample.  This candidate set is *complete* for proper crossings:
    if obstacle segment ``s`` properly crosses sight line ``pq`` at point
    ``X``, then ``X`` lies on ``s`` (so ``X``'s cell is one of ``s``'s
    registered cells) and ``X`` lies on ``pq`` within half a cell of some
    sample (so ``X``'s cell is within Chebyshev distance 1 of that sample's
    cell).  Extra candidates are harmless — they still go through the exact
    crossing predicate — so the pruned test agrees with the full scan on
    every pair.
    """

    def __init__(self, segments: np.ndarray, cell: float | None = None) -> None:
        self.segments = np.asarray(segments, dtype=np.float64).reshape(-1, 4)
        k = len(self.segments)
        if cell is None:
            if k:
                ext = np.maximum(
                    np.abs(self.segments[:, 2] - self.segments[:, 0]),
                    np.abs(self.segments[:, 3] - self.segments[:, 1]),
                )
                cell = float(max(np.median(ext), 1e-6))
            else:
                cell = 1.0
        self.cell = float(cell)
        self._ukeys = np.zeros(0, dtype=np.int64)
        self._starts = np.zeros(0, dtype=np.int64)
        self._counts = np.zeros(0, dtype=np.int64)
        self._segids = np.zeros(0, dtype=np.int64)
        self._ox = 0
        self._oy = 0
        self._stride = 1
        if k == 0:
            return
        inv = 1.0 / self.cell
        x0 = np.floor(np.minimum(self.segments[:, 0], self.segments[:, 2]) * inv)
        x1 = np.floor(np.maximum(self.segments[:, 0], self.segments[:, 2]) * inv)
        y0 = np.floor(np.minimum(self.segments[:, 1], self.segments[:, 3]) * inv)
        y1 = np.floor(np.maximum(self.segments[:, 1], self.segments[:, 3]) * inv)
        x0 = x0.astype(np.int64)
        x1 = x1.astype(np.int64)
        y0 = y0.astype(np.int64)
        y1 = y1.astype(np.int64)
        self._ox = int(x0.min())
        self._oy = int(y0.min())
        self._stride = int(y1.max()) - self._oy + 1
        nx = x1 - x0 + 1
        ny = y1 - y0 + 1
        ncells = nx * ny
        tot = int(ncells.sum())
        seg_of = np.repeat(np.arange(k, dtype=np.int64), ncells)
        local = np.arange(tot, dtype=np.int64) - np.repeat(
            np.cumsum(ncells) - ncells, ncells
        )
        ny_rep = np.repeat(ny, ncells)
        cx = np.repeat(x0, ncells) + local // ny_rep
        cy = np.repeat(y0, ncells) + local % ny_rep
        key = (cx - self._ox) * self._stride + (cy - self._oy)
        order = np.argsort(key, kind="stable")
        skeys = key[order]
        self._segids = seg_of[order]
        self._ukeys, self._starts = np.unique(skeys, return_index=True)
        self._counts = np.diff(np.append(self._starts, tot))

    def candidates(self, p: Sequence[float], q: Sequence[float]) -> np.ndarray:
        """Indices of segments that could properly cross sight line ``pq``."""
        _, sid = self._candidate_pairs(
            np.asarray([p], dtype=np.float64), np.asarray([q], dtype=np.float64)
        )
        return np.unique(sid)

    def _candidate_pairs(
        self, pa: np.ndarray, qa: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated ``(query_id, segment_id)`` candidate pairs for a batch
        of sight lines — the grid join described in the class docstring,
        built without a Python loop over queries."""
        empty = np.zeros(0, dtype=np.int64)
        m = len(pa)
        if m == 0 or len(self.segments) == 0:
            return empty, empty
        inv = 1.0 / self.cell
        dx = qa[:, 0] - pa[:, 0]
        dy = qa[:, 1] - pa[:, 1]
        length = np.hypot(dx, dy)
        ns = np.maximum(1, np.ceil(length * inv).astype(np.int64))
        tot = int(ns.sum())
        qid = np.repeat(np.arange(m, dtype=np.int64), ns)
        local = np.arange(tot, dtype=np.int64) - np.repeat(np.cumsum(ns) - ns, ns)
        t = (local.astype(np.float64) + 0.5) / np.repeat(ns, ns)
        sx = pa[qid, 0] + t * dx[qid]
        sy = pa[qid, 1] + t * dy[qid]
        cx = np.floor(sx * inv).astype(np.int64) - self._ox
        cy = np.floor(sy * inv).astype(np.int64) - self._oy

        pair_qid: list[np.ndarray] = []
        pair_sid: list[np.ndarray] = []
        nu = len(self._ukeys)
        for ddx in (-1, 0, 1):
            for ddy in (-1, 0, 1):
                ex = cx + ddx
                ey = cy + ddy
                valid = (ey >= 0) & (ey < self._stride) & (ex >= 0)
                key = np.where(valid, ex * self._stride + ey, np.int64(-1))
                idx = np.clip(np.searchsorted(self._ukeys, key), 0, nu - 1)
                hit = (self._ukeys[idx] == key) & valid
                cnt = np.where(hit, self._counts[idx], 0)
                total = int(cnt.sum())
                if total == 0:
                    continue
                pair_qid.append(np.repeat(qid, cnt))
                offs = np.arange(total, dtype=np.int64) - np.repeat(
                    np.cumsum(cnt) - cnt, cnt
                )
                pair_sid.append(self._segids[np.repeat(self._starts[idx], cnt) + offs])
        if not pair_qid:
            return empty, empty
        pq = np.concatenate(pair_qid)
        ps = np.concatenate(pair_sid)
        packed = np.unique(pq * np.int64(len(self.segments)) + ps)
        return packed // len(self.segments), packed % len(self.segments)

    def crossing_mask(
        self, pa: np.ndarray, qa: np.ndarray, chunk: int = 4096
    ) -> np.ndarray:
        """Element-wise: does sight line ``i`` properly cross any segment?

        Equal to ``segments_intersect_batch(pa, qa, self.segments)`` — the
        candidate join is complete for proper crossings and the surviving
        pairs are classified with the identical orientation/EPS expression —
        but touches only the pruned pairs.
        """
        pa = as_array(pa)
        qa = as_array(qa)
        m = len(pa)
        out = np.zeros(m, dtype=bool)
        if m == 0 or len(self.segments) == 0:
            return out
        for lo in range(0, m, chunk):
            hi = min(m, lo + chunk)
            qid, sid = self._candidate_pairs(pa[lo:hi], qa[lo:hi])
            if len(qid) == 0:
                continue
            proper = proper_crossing_mask(
                pa[lo + qid],
                qa[lo + qid],
                self.segments[sid, 0:2],
                self.segments[sid, 2:4],
            )
            out[lo + qid[proper]] = True
        return out


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
    segments: np.ndarray | None = None,
    bboxes: np.ndarray | None = None,
    grid: SegmentGrid | None = None,
) -> bool:
    """Is ``q`` visible from ``p`` given polygonal ``obstacles``?

    Visibility fails when the segment properly crosses an obstacle edge or
    when some piece of it runs strictly inside an obstacle (e.g. a sight
    line entering corner-to-corner through the interior).  ``segments`` and
    ``bboxes`` may be precomputed once per obstacle set (the planners do) to
    amortize repeated queries; passing a :class:`SegmentGrid` additionally
    prunes the crossing test to the segments near the sight line (same
    answer — see the grid's completeness argument).
    """
    if grid is not None:
        p_arr = np.asarray(p, dtype=np.float64)
        q_arr = np.asarray(q, dtype=np.float64)
        crossed = bool(grid.crossing_mask(p_arr[None, :], q_arr[None, :])[0])
    else:
        segs = obstacle_segments(obstacles) if segments is None else segments
        crossed = segment_intersects_any(p, q, segs)
    if crossed:
        return False
    if bboxes is None:
        bboxes = obstacle_bboxes(obstacles)
    return not _runs_inside(p, q, obstacles, bboxes)


def is_visible_reference(
    p: Sequence[float],
    q: Sequence[float],
    obstacles: Sequence[Sequence[Sequence[float]]],
    *,
    segments: np.ndarray | None = None,
    bboxes: np.ndarray | None = None,
) -> bool:
    """Full-scan oracle for :func:`is_visible`.

    Tests the sight line against *every* obstacle segment — no grid pruning
    anywhere in the call tree.  The differential suite pins the pruned path
    to this answer on every pair it checks.
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


def _runs_inside_bulk(
    pa: np.ndarray,
    qa: np.ndarray,
    obstacles: Sequence[Sequence[Sequence[float]]],
    bboxes: np.ndarray,
) -> np.ndarray:
    """Batched :func:`_runs_inside` over ``m`` segments.

    The segment-versus-obstacle-box rejection runs as one numpy mask per
    obstacle; the segments that enter an obstacle's box go through
    :func:`_pieces_inside`, the array form of :func:`_piece_inside`, which
    makes the identical per-pair decision, so the result equals a Python
    loop of :func:`_runs_inside` calls element-wise.
    """
    m = len(pa)
    out = np.zeros(m, dtype=bool)
    if m == 0:
        return out
    dx = qa[:, 0] - pa[:, 0]
    dy = qa[:, 1] - pa[:, 1]
    pad = 1e-9
    for idx, poly in enumerate(obstacles):
        if len(poly) < 3:
            continue
        bxmin, bymin, bxmax, bymax = bboxes[idx]
        # Liang–Barsky slab test: does segment j actually enter the
        # obstacle's (slightly padded) bounding box?  Any piece of the
        # segment strictly inside the polygon lies inside the box, so this
        # rejection is conservative-exact — stronger than comparing the two
        # bounding boxes, which passes every long diagonal sight line whose
        # box merely overlaps the obstacle's.
        lo, hi = _slab_interval(
            pa, dx, dy, bxmin - pad, bymin - pad, bxmax + pad, bymax + pad
        )
        enters = np.flatnonzero((lo <= hi) & ~out)
        if len(enters):
            out[enters] = _pieces_inside(
                pa[enters], qa[enters], as_array(poly), INTERIOR_BUDGET
            )
    return out


def _pieces_inside(
    pa: np.ndarray, qa: np.ndarray, poly: np.ndarray, budget: int
) -> np.ndarray:
    """:func:`_piece_inside` for ``m`` segments against one polygon.

    ``budget`` caps the elements of one (segment × polygon edge) block.
    Three array steps replace the scalar walk: the boundary cuts of every
    (segment, edge) pair, the pieces between each segment's sorted cuts,
    and the strict-interior test of each piece's midpoint.  Every float
    expression is the one :func:`segment_polygon_intersections`,
    :func:`_piece_inside`, :func:`_strictly_inside` and
    :func:`point_on_polygon_boundary` evaluate, in the same operation
    order, so each decision is equal to the scalar one, not just close.
    Divisions are taken only where the scalar code divides (elsewhere
    the divisor is replaced by 1.0 or the entry is never formed).
    """
    k = len(poly)
    m = len(pa)
    ax = poly[:, 0]
    ay = poly[:, 1]
    nxt = np.concatenate((poly[1:], poly[:1]))
    ex = nxt[:, 0] - ax
    ey = nxt[:, 1] - ay
    dx = qa[:, 0] - pa[:, 0]
    dy = qa[:, 1] - pa[:, 1]
    rows_list: list[np.ndarray] = []
    cuts_list: list[np.ndarray] = []
    per = max(1, budget // k)
    for lo in range(0, m, per):
        hi = min(m, lo + per)
        px = pa[lo:hi, 0:1]
        py = pa[lo:hi, 1:2]
        bdx = dx[lo:hi, None]
        bdy = dy[lo:hi, None]
        denom = bdx * ey - bdy * ex
        live = ~(np.abs(denom) < EPS)
        safe = np.where(live, denom, 1.0)
        rx = ax - px
        ry = ay - py
        t = (rx * ey - ry * ex) / safe
        s = (rx * bdy - ry * bdx) / safe
        cut = live & (-EPS <= t) & (t <= 1 + EPS) & (-EPS <= s) & (s <= 1 + EPS)
        r, _ = np.nonzero(cut)
        rows_list.append(lo + r)
        cuts_list.append(t[cut])
    # Each segment's cut list is [0, 1] plus its boundary contacts; sorting
    # by (segment, t) lays every list out in order, and consecutive entries
    # of one segment bound its pieces.
    rows = np.concatenate([np.arange(m), np.arange(m), *rows_list])
    cuts = np.concatenate([np.zeros(m), np.ones(m), *cuts_list])
    order = np.lexsort((cuts, rows))
    rows = rows[order]
    cuts = cuts[order]
    same = rows[1:] == rows[:-1]
    t0 = cuts[:-1][same]
    t1 = cuts[1:][same]
    piece_rows = rows[1:][same]
    keep = ~(t1 - t0 < 1e-9)
    piece_rows = piece_rows[keep]
    tm = (t0[keep] + t1[keep]) / 2.0
    sx = pa[piece_rows, 0] + tm * dx[piece_rows]
    sy = pa[piece_rows, 1] + tm * dy[piece_rows]
    out = np.zeros(m, dtype=bool)
    out[piece_rows[_strictly_inside_mask(sx, sy, poly, budget)]] = True
    return out


def _strictly_inside_mask(
    x: np.ndarray, y: np.ndarray, poly: np.ndarray, budget: int
) -> np.ndarray:
    """:func:`_strictly_inside` for ``m`` sample points against one polygon.

    The ray cast forms ``x_cross`` only for straddling edges (where the
    scalar loop forms it, so there is no zero divisor) and takes its parity
    per point; the boundary check runs only on odd-parity points, as the
    scalar function defers it.
    """
    m = len(x)
    out = np.zeros(m, dtype=bool)
    if m == 0:
        return out
    k = len(poly)
    xi = poly[:, 0]
    yi = poly[:, 1]
    xj = np.concatenate((xi[-1:], xi[:-1]))
    yj = np.concatenate((yi[-1:], yi[:-1]))
    per = max(1, budget // k)
    odd_parts: list[np.ndarray] = []
    for lo in range(0, m, per):
        bx = x[lo : lo + per]
        by = y[lo : lo + per, None]
        r, e = np.nonzero((yi > by) != (yj > by))
        x_cross = xi[e] + (by[r, 0] - yi[e]) / (yj[e] - yi[e]) * (xj[e] - xi[e])
        hits = np.bincount(r[bx[r] < x_cross], minlength=len(bx))
        odd_parts.append(lo + np.flatnonzero(hits % 2 == 1))
    odd = np.concatenate(odd_parts)
    out[odd] = ~_on_boundary_mask(x[odd], y[odd], poly, budget)
    return out


def _on_boundary_mask(
    x: np.ndarray, y: np.ndarray, poly: np.ndarray, budget: int
) -> np.ndarray:
    """:func:`point_on_polygon_boundary` (default ``tol``) for ``m`` points
    against one polygon."""
    tol = 1e-9
    out = np.zeros(len(x), dtype=bool)
    k = len(poly)
    ax = poly[:, 0]
    ay = poly[:, 1]
    nxt = np.concatenate((poly[1:], poly[:1]))
    vx = nxt[:, 0] - ax
    vy = nxt[:, 1] - ay
    seg_len_sq = vx * vx + vy * vy
    point_edge = seg_len_sq < EPS
    safe_len = np.where(point_edge, 1.0, seg_len_sq)
    per = max(1, budget // k)
    for lo in range(0, len(x), per):
        wx = x[lo : lo + per, None] - ax
        wy = y[lo : lo + per, None] - ay
        t = np.maximum(0.0, np.minimum(1.0, (wx * vx + wy * vy) / safe_len))
        ddx = wx - t * vx
        ddy = wy - t * vy
        near = np.where(
            point_edge,
            (np.abs(wx) < tol) & (np.abs(wy) < tol),
            ddx * ddx + ddy * ddy <= tol * tol,
        )
        out[lo : lo + per] = near.any(axis=1)
    return out


def _slab_interval(
    pa: np.ndarray,
    dx: np.ndarray,
    dy: np.ndarray,
    bxmin: float,
    bymin: float,
    bxmax: float,
    bymax: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Parameter interval ``[lo, hi]`` of each segment inside a rectangle.

    Vectorized over segments ``p + t·(dx, dy)``, ``t ∈ [0, 1]``; the segment
    meets the rectangle iff ``lo <= hi``.  Axis-parallel segments (zero
    delta in one axis) contribute ``(-inf, inf)`` when inside that slab and
    an empty interval otherwise.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        tx1 = (bxmin - pa[:, 0]) / dx
        tx2 = (bxmax - pa[:, 0]) / dx
        ty1 = (bymin - pa[:, 1]) / dy
        ty2 = (bymax - pa[:, 1]) / dy
    zero_x = dx == 0.0  # repro: noqa[RPR003] exact sentinel: only a true zero delta divides to ±inf/nan; near-zero deltas produce huge finite t-intervals, which the clamp to [0, 1] handles
    zero_y = dy == 0.0  # repro: noqa[RPR003] exact sentinel: same as zero_x for the y slab
    in_x = (pa[:, 0] >= bxmin) & (pa[:, 0] <= bxmax)
    in_y = (pa[:, 1] >= bymin) & (pa[:, 1] <= bymax)
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
    segments: np.ndarray | None = None,
    bboxes: np.ndarray | None = None,
    grid: SegmentGrid | None = None,
    chunk: int = 4096,
) -> np.ndarray:
    """Batched :func:`is_visible` over ``m`` candidate sight lines.

    ``pa``/``qa`` have shape ``(m, 2)``; returns a boolean array of shape
    ``(m,)`` equal element-wise to calling :func:`is_visible` per pair.  The
    proper-crossing rejection runs through a :class:`SegmentGrid` (built on
    the fly unless one is passed in), so each sight line is tested only
    against the obstacle segments sharing a grid neighborhood with it
    instead of all Θ(k) of them; only the surviving pairs go through the
    array interior test.  This is the hot path of Θ(h²)
    visibility-graph construction; :func:`visible_mask_reference` keeps the
    unpruned scan as the oracle.
    """
    pa = as_array(pa)
    qa = as_array(qa)
    if grid is None:
        segs = obstacle_segments(obstacles) if segments is None else segments
        grid = SegmentGrid(segs)
    if bboxes is None:
        bboxes = obstacle_bboxes(obstacles)
    crossed = grid.crossing_mask(pa, qa, chunk=chunk)
    out = np.zeros(len(pa), dtype=bool)
    free = np.flatnonzero(~crossed)
    inside = _runs_inside_bulk(pa[free], qa[free], obstacles, bboxes)
    out[free] = ~inside
    return out


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
    :func:`segments_intersect_batch` (chunked to bound peak memory) — the
    pre-grid implementation, kept verbatim for differential testing.
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
        self._segments = obstacle_segments(self.obstacles)
        self._bboxes = obstacle_bboxes(self.obstacles)
        self._grid = SegmentGrid(self._segments)
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
            segments=self._segments, bboxes=self._bboxes, grid=self._grid,
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
                if is_visible(
                    p, q, self.obstacles,
                    segments=self._segments, bboxes=self._bboxes,
                    grid=self._grid,
                ):
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
