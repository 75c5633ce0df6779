"""Convex hulls and locally convex hulls.

Three entry points matter for the paper:

* :func:`convex_hull` — the plain planar convex hull (Andrew's monotone
  chain, O(n log n)).  This is the "hole abstraction" of Section 4 and the
  correctness oracle for the distributed hull protocol of §5.3.
* :func:`merge_hulls` — merge of two convex polygons into the hull of their
  union.  This is the combining step the Miller–Stout style hypercube
  protocol performs along each dimension.
* :func:`locally_convex_hull` — Definition 4.1's unit-distance-constrained
  hull of a hole boundary cycle; it witnesses the intermediate space bound of
  Lemma 4.2 (O(area) nodes) between raw perimeter and convex hull.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .primitives import EPS, as_array, distance
from .predicates import orientation

__all__ = [
    "convex_hull",
    "convex_hull_indices",
    "merge_hulls",
    "is_convex_polygon",
    "locally_convex_hull",
]


def convex_hull_indices(points: Sequence[Sequence[float]]) -> list[int]:
    """Indices of the convex hull of ``points`` in counter-clockwise order.

    Andrew's monotone chain.  Collinear points on the hull boundary are
    dropped (strict hull), matching the paper's assumption of no three
    collinear nodes.  Returns indices into the input sequence, starting at
    the lexicographically smallest point.
    """
    pts = as_array(points)
    n = len(pts)
    if n == 0:
        return []
    if n == 1:
        return [0]
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    if n == 2:
        if np.allclose(pts[0], pts[1]):
            return [0]
        return [int(order[0]), int(order[1])]

    # Python floats: the same IEEE double arithmetic as numpy scalars,
    # without the per-element boxing cost.
    xy = pts.tolist()

    def cross(o, a, b) -> float:
        # Exact float cross product: the hull must NOT use the tolerant
        # orientation predicate, which can discard extreme points of
        # nearly-collinear chains whose span exceeds the tolerance.
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def build(indices: list[int]) -> list[int]:
        chain: list[int] = []
        for idx in indices:
            while (
                len(chain) >= 2
                and cross(xy[chain[-2]], xy[chain[-1]], xy[idx]) <= 0.0  # repro: noqa[RPR003] documented exact arithmetic: the tolerant predicate can discard extreme points of nearly-collinear chains
            ):
                chain.pop()
            chain.append(idx)
        return chain

    lower = build(order.tolist())
    upper = build(order[::-1].tolist())
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        # All points collinear: return the two extremes.
        return [int(order[0]), int(order[-1])]
    return hull


def convex_hull(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Convex hull vertices (ccw) of ``points`` as an ``(h, 2)`` array."""
    pts = as_array(points)
    idx = convex_hull_indices(pts)
    return pts[idx]


def is_convex_polygon(vertices: Sequence[Sequence[float]]) -> bool:
    """``True`` iff the ccw vertex cycle bounds a (strictly) convex polygon."""
    pts = as_array(vertices)
    n = len(pts)
    if n < 3:
        return False
    sign = 0
    for i in range(n):
        o = orientation(pts[i], pts[(i + 1) % n], pts[(i + 2) % n])
        if o == 0:
            continue
        if sign == 0:
            sign = o
        elif o != sign:
            return False
    return sign != 0


def merge_hulls(
    hull_a: Sequence[Sequence[float]], hull_b: Sequence[Sequence[float]]
) -> np.ndarray:
    """Convex hull of the union of two convex polygons.

    Implemented by re-hulling the concatenated vertex sets.  Both inputs in
    the distributed protocol are already hulls of disjoint subsets of a hole
    ring, so the combined size is O(L(c)) and the O(m log m) cost here is
    negligible next to the simulated communication it models.
    """
    a = as_array(hull_a)
    b = as_array(hull_b)
    if len(a) == 0:
        return b.copy()
    if len(b) == 0:
        return a.copy()
    return convex_hull(np.vstack([a, b]))


def locally_convex_hull(
    cycle: Sequence[Sequence[float]], *, unit: float = 1.0
) -> list[int]:
    """Locally convex hull of a hole-boundary cycle (Definition 4.1).

    Given the boundary cycle ``(v_1, …, v_k)`` of a hole (in order), returns
    indices ``i_1 < i_2 < …`` of a subsequence forming a locally convex hull:

    1. consecutive selected nodes are within ``unit`` distance of each other
       along the shortcut, **or** are consecutive on the original cycle (a
       boundary edge is always a legal link — boundary edges have length ≤ 1
       in LDel²), and
    2. no three consecutive selected nodes ``u, v, w`` have a reflex angle
       (≥ 180° measured on the hole side) while ``||uw|| ≤ unit`` — i.e.
       every shortcut of length ≤ ``unit`` over a reflex vertex is taken.

    The construction repeatedly removes a vertex ``v`` whose neighbours
    ``u, w`` in the current cycle satisfy ``||uw|| ≤ unit`` and for which the
    turn at ``v`` is non-convex with respect to the hole interior, until no
    such vertex remains.  The result is a fixed point of Definition 4.1's
    condition (2), hence a locally convex hull.
    """
    pts = as_array(cycle)
    k = len(pts)
    if k <= 3:
        return list(range(k))

    # Hole cycles are oriented so that the hole interior is on a fixed side;
    # determine that orientation from the signed area so "reflex towards the
    # hole" is well defined regardless of input orientation.
    x = pts[:, 0]
    y = pts[:, 1]
    signed_area = 0.5 * float(
        np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
    )
    ccw_cycle = signed_area > 0

    alive = list(range(k))
    changed = True
    while changed and len(alive) > 3:
        changed = False
        m = len(alive)
        for pos in range(m):
            u = alive[(pos - 1) % m]
            v = alive[pos]
            w = alive[(pos + 1) % m]
            if distance(pts[u], pts[w]) > unit + EPS:
                continue
            o = orientation(pts[u], pts[v], pts[w])
            # For a ccw cycle a convex corner turns left (o > 0); a straight
            # or right turn means the interior angle on the walk side is
            # >= 180 degrees, which is condition (2)'s trigger.
            reflex = (o <= 0) if ccw_cycle else (o >= 0)
            if reflex:
                del alive[pos]
                changed = True
                break
    return alive
