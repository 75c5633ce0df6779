"""Geometric predicates: orientation, in-circle, segment intersection.

These are the decision procedures everything else in the library rests on —
Delaunay triangulation, convex hulls, visibility graphs and Chew's routing
corridor all reduce to ``orientation`` / ``in_circle`` / ``segments_intersect``
queries.

The predicates use double precision with a small tolerance rather than exact
arithmetic.  The paper assumes non-pathological inputs (no three collinear
nodes, no four cocircular nodes) and all scenario generators in
:mod:`repro.scenarios` add random jitter, so the tolerance regime is safe in
this codebase.  Batch variants operating on numpy arrays are provided for the
hot loops (visibility-graph construction tests Θ(h²) segment pairs).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .primitives import EPS

__all__ = [
    "orientation",
    "orientation_batch",
    "ccw",
    "collinear",
    "in_circle",
    "in_circle_batch",
    "on_segment",
    "segments_intersect",
    "segments_properly_intersect",
    "segment_intersects_any",
    "segments_intersect_batch",
    "proper_crossing_mask",
    "point_in_triangle",
    "segment_crosses_triangle",
    "left_turn_batch",
]


def orientation(
    a: Sequence[float], b: Sequence[float], c: Sequence[float]
) -> int:
    """Orientation of the ordered triple ``(a, b, c)``.

    Returns ``+1`` for counter-clockwise, ``-1`` for clockwise, ``0`` for
    collinear (within tolerance).
    """
    cross = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    if cross > EPS:
        return 1
    if cross < -EPS:
        return -1
    return 0


def orientation_batch(
    a: np.ndarray, b: np.ndarray, c: np.ndarray
) -> np.ndarray:
    """Vectorized :func:`orientation` over stacked triples.

    ``a``, ``b``, ``c`` broadcast against each other with trailing dimension
    2; the result holds ``+1`` / ``-1`` / ``0`` per triple, with exactly the
    same EPS band as the scalar predicate — a triple classifies identically
    whichever code path tests it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    cross = (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
        b[..., 1] - a[..., 1]
    ) * (c[..., 0] - a[..., 0])
    return np.where(cross > EPS, 1, np.where(cross < -EPS, -1, 0)).astype(
        np.int8
    )


def ccw(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> bool:
    """``True`` iff the triple ``(a, b, c)`` is counter-clockwise."""
    return orientation(a, b, c) > 0


def collinear(a: Sequence[float], b: Sequence[float], c: Sequence[float]) -> bool:
    """``True`` iff ``a``, ``b``, ``c`` are collinear within tolerance."""
    return orientation(a, b, c) == 0


def in_circle(
    a: Sequence[float],
    b: Sequence[float],
    c: Sequence[float],
    d: Sequence[float],
) -> bool:
    """``True`` iff ``d`` lies strictly inside the circle through ``a,b,c``.

    ``a, b, c`` may be given in either orientation; the determinant is
    normalized by the triple's orientation so the test is orientation-free.
    This is the empty-circle test of Definition 2.1 (Delaunay) and of the
    k-localized Delaunay property (Definition 2.2).
    """
    adx = a[0] - d[0]
    ady = a[1] - d[1]
    bdx = b[0] - d[0]
    bdy = b[1] - d[1]
    cdx = c[0] - d[0]
    cdy = c[1] - d[1]
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    orient = orientation(a, b, c)
    if orient == 0:
        return False
    return det * orient > EPS


def in_circle_batch(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    d: np.ndarray,
) -> np.ndarray:
    """Vectorized :func:`in_circle` over stacked quadruples.

    ``a``, ``b``, ``c``, ``d`` broadcast against each other with trailing
    dimension 2; returns a boolean array, ``True`` where ``d`` lies strictly
    inside the circle through ``a, b, c``.  The determinant expression, the
    orientation normalization and the EPS band are term-for-term identical
    to the scalar predicate, so a quadruple classifies the same whichever
    code path tests it — the invariant the fast-path equivalence suite
    pins (``tests/test_fastpath_equivalence.py``).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    d = np.asarray(d, dtype=np.float64)
    adx = a[..., 0] - d[..., 0]
    ady = a[..., 1] - d[..., 1]
    bdx = b[..., 0] - d[..., 0]
    bdy = b[..., 1] - d[..., 1]
    cdx = c[..., 0] - d[..., 0]
    cdy = c[..., 1] - d[..., 1]
    det = (
        (adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
        - (bdx * bdx + bdy * bdy) * (adx * cdy - cdx * ady)
        + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)
    )
    orient = orientation_batch(a, b, c).astype(np.float64)
    return det * orient > EPS


def on_segment(
    p: Sequence[float], q: Sequence[float], r: Sequence[float]
) -> bool:
    """``True`` iff collinear point ``r`` lies on the closed segment ``pq``."""
    return (
        min(p[0], q[0]) - EPS <= r[0] <= max(p[0], q[0]) + EPS
        and min(p[1], q[1]) - EPS <= r[1] <= max(p[1], q[1]) + EPS
    )


def segments_intersect(
    p1: Sequence[float],
    q1: Sequence[float],
    p2: Sequence[float],
    q2: Sequence[float],
) -> bool:
    """``True`` iff closed segments ``p1q1`` and ``p2q2`` intersect.

    Endpoint touching counts as intersection (closed-segment semantics).
    """
    o1 = orientation(p1, q1, p2)
    o2 = orientation(p1, q1, q2)
    o3 = orientation(p2, q2, p1)
    o4 = orientation(p2, q2, q1)

    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and on_segment(p1, q1, p2):
        return True
    if o2 == 0 and on_segment(p1, q1, q2):
        return True
    if o3 == 0 and on_segment(p2, q2, p1):
        return True
    if o4 == 0 and on_segment(p2, q2, q1):
        return True
    return False


def segments_properly_intersect(
    p1: Sequence[float],
    q1: Sequence[float],
    p2: Sequence[float],
    q2: Sequence[float],
) -> bool:
    """``True`` iff the segments cross at a single interior point of both.

    Shared endpoints and collinear overlap do *not* count.  Visibility tests
    use this so that a sight line may graze a polygon corner it is incident
    to.
    """
    o1 = orientation(p1, q1, p2)
    o2 = orientation(p1, q1, q2)
    o3 = orientation(p2, q2, p1)
    o4 = orientation(p2, q2, q1)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _cross_batch(o: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Broadcasted signed cross product of ``u - o`` with ``v - o``."""
    return (u[..., 0] - o[..., 0]) * (v[..., 1] - o[..., 1]) - (
        u[..., 1] - o[..., 1]
    ) * (v[..., 0] - o[..., 0])


def segment_intersects_any(
    p: Sequence[float],
    q: Sequence[float],
    segments: np.ndarray,
) -> bool:
    """Vectorized: does segment ``pq`` properly cross any of ``segments``?

    ``segments`` has shape ``(m, 4)`` with rows ``(ax, ay, bx, by)``.  This
    is the inner loop of visibility-graph construction, written with numpy
    broadcasting instead of a Python loop per the HPC guide.
    """
    if len(segments) == 0:
        return False
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return bool(segments_intersect_batch(p[None, :], q[None, :], segments)[0])


def segments_intersect_batch(
    p: np.ndarray,
    q: np.ndarray,
    segments: np.ndarray,
) -> np.ndarray:
    """Vectorized over *many* query segments: proper crossing with any obstacle.

    ``p`` and ``q`` have shape ``(m, 2)`` (query segment ``i`` runs from
    ``p[i]`` to ``q[i]``); ``segments`` has shape ``(k, 4)``.  Returns a
    boolean array of shape ``(m,)``: whether each query segment properly
    crosses at least one obstacle segment.  The classification (strictly
    opposite orientations, every cross product beyond EPS) is identical to
    the scalar :func:`segments_properly_intersect` path, so a batched
    visibility prefilter and the per-pair predicate always agree.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = len(p)
    if m == 0 or len(segments) == 0:
        return np.zeros(m, dtype=bool)
    segs = np.asarray(segments, dtype=np.float64)
    a = segs[None, :, 0:2]  # (1, k, 2)
    b = segs[None, :, 2:4]
    P = p[:, None, :]  # (m, 1, 2)
    Q = q[:, None, :]
    return proper_crossing_mask(P, Q, a, b).any(axis=1)


def proper_crossing_mask(
    p: np.ndarray,
    q: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """Broadcasted proper-crossing test between segments ``pq`` and ``ab``.

    All four arguments broadcast against each other with trailing dimension
    2.  The classification (strictly opposite orientations, every cross
    product beyond EPS) is identical to :func:`segments_properly_intersect`;
    :func:`segments_intersect_batch` is its any-reduction over a full
    obstacle array, and the one-pass visibility test
    (:func:`repro.geometry.visibility.visible_mask`) evaluates its cross
    products term for term on (sight line, ring edge) pairs — both
    therefore classify every pair the same way the scalar predicate does.
    """
    d1 = _cross_batch(p, q, a)
    d2 = _cross_batch(p, q, b)
    d3 = _cross_batch(a, b, p)
    d4 = _cross_batch(a, b, q)
    return (
        (np.sign(d1) * np.sign(d2) < -0.5)
        & (np.sign(d3) * np.sign(d4) < -0.5)
        & (np.abs(d1) > EPS)
        & (np.abs(d2) > EPS)
        & (np.abs(d3) > EPS)
        & (np.abs(d4) > EPS)
    )


def point_in_triangle(
    p: Sequence[float],
    a: Sequence[float],
    b: Sequence[float],
    c: Sequence[float],
    *,
    strict: bool = False,
) -> bool:
    """``True`` iff point ``p`` lies in triangle ``abc``.

    With ``strict=True`` the boundary is excluded — the form needed for the
    "interior disk contains no node" test in Definition 2.2, where the
    triangle corners themselves must not be counted.
    """
    o1 = orientation(a, b, p)
    o2 = orientation(b, c, p)
    o3 = orientation(c, a, p)
    if strict:
        return (o1 > 0 and o2 > 0 and o3 > 0) or (o1 < 0 and o2 < 0 and o3 < 0)
    neg = o1 < 0 or o2 < 0 or o3 < 0
    pos = o1 > 0 or o2 > 0 or o3 > 0
    return not (neg and pos)


def segment_crosses_triangle(
    p: Sequence[float],
    q: Sequence[float],
    a: Sequence[float],
    b: Sequence[float],
    c: Sequence[float],
) -> bool:
    """``True`` iff segment ``pq`` intersects triangle ``abc`` at all.

    Used to collect the corridor of triangles stabbed by the line segment
    from source to destination in Chew's algorithm.
    """
    if point_in_triangle(p, a, b, c) or point_in_triangle(q, a, b, c):
        return True
    return (
        segments_intersect(p, q, a, b)
        or segments_intersect(p, q, b, c)
        or segments_intersect(p, q, c, a)
    )


def left_turn_batch(origin: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Cross products of consecutive hull candidates, vectorized.

    ``origin`` has shape ``(2,)``; ``points`` shape ``(m, 2)``.  Returns the
    signed cross product of ``points[i] - origin`` with ``points[i+1] -
    origin`` — a helper for batched hull filtering.  Magnitudes within the
    EPS tolerance are snapped to exactly ``0.0`` so that ``np.sign`` of the
    result classifies collinear triples identically to the scalar
    :func:`orientation` band (callers branching on the sign never disagree
    with the scalar predicates on near-degenerate inputs).
    """
    rel = np.asarray(points, dtype=np.float64) - np.asarray(origin, dtype=np.float64)
    cross = rel[:-1, 0] * rel[1:, 1] - rel[:-1, 1] * rel[1:, 0]
    cross[np.abs(cross) <= EPS] = 0.0
    return cross
