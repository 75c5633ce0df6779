"""Polygon utilities: containment, area, perimeter, bounding boxes.

Radio holes are polygonal regions (the paper's obstacles).  This module
provides the measurements the storage bounds of Theorem 1.2 are stated in:
``P(h)`` — the perimeter of a hole — and ``L(c)`` — the circumference of the
minimum bounding box of a convex hull.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .primitives import EPS, as_array
from .predicates import segments_properly_intersect

__all__ = [
    "BoundingBox",
    "signed_area",
    "polygon_area",
    "perimeter",
    "bounding_box",
    "point_in_polygon",
    "point_on_polygon_boundary",
    "polygon_contains_any",
    "polygons_intersect",
    "polygon_edges",
    "segment_polygon_intersections",
    "dilate_convex_polygon",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned bounding box."""

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def circumference(self) -> float:
        """The quantity ``L(c)`` of Theorem 1.2."""
        return 2.0 * (self.width + self.height)

    @property
    def center(self) -> tuple[float, float]:
        return ((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains(self, p: Sequence[float]) -> bool:
        """Closed containment test (boundary counts as inside)."""
        return (
            self.xmin - EPS <= p[0] <= self.xmax + EPS
            and self.ymin - EPS <= p[1] <= self.ymax + EPS
        )

    def intersects(self, other: "BoundingBox") -> bool:
        """Do the two boxes overlap (including touching edges)?"""
        return not (
            self.xmax < other.xmin
            or other.xmax < self.xmin
            or self.ymax < other.ymin
            or other.ymax < self.ymin
        )


def signed_area(vertices: Sequence[Sequence[float]]) -> float:
    """Signed area of the polygon (positive iff vertices are ccw).

    The shoelace sum is anchored at the first vertex (coordinates taken
    relative to it): the naive formula catastrophically cancels on thin
    polygons far from the origin — a sliver hull of area ~1e-97 summed as
    ``+1 - 1`` collapses to exactly ``0.0`` and mis-classifies the hull's
    orientation.
    """
    pts = as_array(vertices)
    if len(pts) < 3:
        return 0.0
    rel = pts - pts[0]
    x = rel[:, 0]
    y = rel[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def polygon_area(vertices: Sequence[Sequence[float]]) -> float:
    """Unsigned area of the polygon."""
    return abs(signed_area(vertices))


def perimeter(vertices: Sequence[Sequence[float]]) -> float:
    """Perimeter of the closed polygon — the quantity ``P(h)``."""
    pts = as_array(vertices)
    if len(pts) < 2:
        return 0.0
    seg = pts - np.roll(pts, 1, axis=0)
    return float(np.sqrt((seg * seg).sum(axis=1)).sum())


def bounding_box(points: Sequence[Sequence[float]]) -> BoundingBox:
    """Axis-aligned minimum bounding box of a point set."""
    pts = as_array(points)
    if len(pts) == 0:
        raise ValueError("bounding_box of empty point set")
    return BoundingBox(
        float(pts[:, 0].min()),
        float(pts[:, 1].min()),
        float(pts[:, 0].max()),
        float(pts[:, 1].max()),
    )


def point_in_polygon(
    p: Sequence[float],
    vertices: Sequence[Sequence[float]],
    *,
    include_boundary: bool = True,
) -> bool:
    """Ray-casting point-in-polygon test for simple polygons.

    Decides the case analysis of §4.3 (is a node inside a convex hull?).
    Boundary points count as inside by default; pass
    ``include_boundary=False`` for the strict interior.
    """
    pts = as_array(vertices)
    n = len(pts)
    if n < 3:
        return False
    if point_on_polygon_boundary(p, pts):
        return include_boundary
    x, y = float(p[0]), float(p[1])
    inside = False
    j = n - 1
    for i in range(n):
        xi, yi = pts[i]
        xj, yj = pts[j]
        if (yi > y) != (yj > y):
            x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
            if x < x_cross:
                inside = not inside
        j = i
    return inside


def point_on_polygon_boundary(
    p: Sequence[float], vertices: Sequence[Sequence[float]], *, tol: float = 1e-9
) -> bool:
    """``True`` iff ``p`` lies on the polygon's boundary (within ``tol``)."""
    pts = as_array(vertices)
    n = len(pts)
    px, py = float(p[0]), float(p[1])
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        vx, vy = bx - ax, by - ay
        wx, wy = px - ax, py - ay
        seg_len_sq = vx * vx + vy * vy
        if seg_len_sq < EPS:
            if abs(wx) < tol and abs(wy) < tol:
                return True
            continue
        t = max(0.0, min(1.0, (wx * vx + wy * vy) / seg_len_sq))
        dx = wx - t * vx
        dy = wy - t * vy
        if dx * dx + dy * dy <= tol * tol:
            return True
    return False


def polygon_contains_any(
    vertices: Sequence[Sequence[float]], points: np.ndarray
) -> np.ndarray:
    """Vectorized point-in-polygon for an ``(m, 2)`` batch of points.

    Ray casting with all edge crossings evaluated via broadcasting — this is
    the hot test when carving holes out of a large node cloud, so it avoids
    the per-point Python loop.  Boundary behaviour is approximate (points
    exactly on an edge may land either way); the scenario generators never
    place nodes exactly on hole boundaries.
    """
    pts = as_array(vertices)
    qs = as_array(points)
    if len(pts) < 3 or len(qs) == 0:
        return np.zeros(len(qs), dtype=bool)
    x = qs[:, 0][:, None]  # (m, 1)
    y = qs[:, 1][:, None]
    xi = pts[:, 0][None, :]  # (1, n)
    yi = pts[:, 1][None, :]
    xj = np.roll(pts[:, 0], 1)[None, :]
    yj = np.roll(pts[:, 1], 1)[None, :]
    straddle = (yi > y) != (yj > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_cross = xi + (y - yi) / (yj - yi) * (xj - xi)
    hits = straddle & (x < x_cross)
    return (hits.sum(axis=1) % 2).astype(bool)


def polygon_edges(vertices: Sequence[Sequence[float]]) -> np.ndarray:
    """Edges of the closed polygon as an ``(n, 4)`` array of segments."""
    pts = as_array(vertices)
    nxt = np.roll(pts, -1, axis=0)
    return np.hstack([pts, nxt])


def segment_polygon_intersections(
    p: Sequence[float],
    q: Sequence[float],
    vertices: Sequence[Sequence[float]],
) -> list[tuple[float, tuple[float, float]]]:
    """All proper intersections of segment ``pq`` with the polygon boundary.

    Returns ``(t, point)`` pairs sorted by the parameter ``t`` along ``pq``
    (``t=0`` at ``p``).  Used to find the entry point ``S`` and exit point
    ``T`` of the bay-area routing protocol (§4.4).
    """
    pts = as_array(vertices)
    n = len(pts)
    px, py = float(p[0]), float(p[1])
    dx, dy = float(q[0]) - px, float(q[1]) - py
    out: list[tuple[float, tuple[float, float]]] = []
    for i in range(n):
        ax, ay = pts[i]
        bx, by = pts[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        denom = dx * ey - dy * ex
        if abs(denom) < EPS:
            continue
        t = ((ax - px) * ey - (ay - py) * ex) / denom
        s = ((ax - px) * dy - (ay - py) * dx) / denom
        if -EPS <= t <= 1 + EPS and -EPS <= s <= 1 + EPS:
            out.append((t, (px + t * dx, py + t * dy)))
    out.sort(key=lambda item: item[0])
    return out


def polygons_intersect(
    poly_a: Sequence[Sequence[float]], poly_b: Sequence[Sequence[float]]
) -> bool:
    """Do two simple polygons intersect (boundary crossing or containment)?

    The paper's key structural assumption is that the convex hulls of
    distinct radio holes do **not** intersect; scenario generators use this
    test to enforce that assumption, and the router uses it to validate its
    preconditions.
    """
    a = as_array(poly_a)
    b = as_array(poly_b)
    na, nb = len(a), len(b)
    for i in range(na):
        for j in range(nb):
            if segments_properly_intersect(
                a[i], a[(i + 1) % na], b[j], b[(j + 1) % nb]
            ):
                return True
    if na >= 3 and point_in_polygon(b[0], a):
        return True
    if nb >= 3 and point_in_polygon(a[0], b):
        return True
    return False


def dilate_convex_polygon(
    vertices: Sequence[Sequence[float]], margin: float
) -> np.ndarray:
    """Push each vertex of a convex ccw polygon outward by ``margin``.

    Cheap Minkowski-style dilation (vertices move along the direction away
    from the centroid).  Scenario generators use it to keep hole hulls
    separated by a safety margin so the non-intersecting-hulls assumption
    holds robustly after node jitter.
    """
    pts = as_array(vertices)
    centroid = pts.mean(axis=0)
    rel = pts - centroid
    norms = np.sqrt((rel * rel).sum(axis=1))
    norms[norms < EPS] = 1.0
    return pts + rel / norms[:, None] * margin
