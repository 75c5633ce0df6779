"""Bay-area routing structures (§4.3 cases 2–5, §4.4).

A *bay area* is the pocket between a hole's boundary and one edge of its
convex hull.  Terminals inside a bay defeat the hull-corner abstraction
(they may see no hull corner at all), so the paper equips every bay with a
**dominating set** of its boundary arc (§5.6) and routes via the arc's
**extreme points** — the convex hull of the relevant boundary stretch
(§4.4).

This module derives the per-bay waypoint structures the router activates for
cases 2–5:

* :func:`bay_waypoint_structures` — per bay: the waypoint vertex group
  (corners ∪ dominating set ∪ the bay arc's own convex hull, i.e. the
  extreme points of the *maximal* request) and the boundary-arc edges
  linking consecutive group members (executable by walking the ring, since
  ring neighbors are LDel-adjacent);
* :func:`locate_node` / :func:`locate_point` — the case analysis of §4.3:
  which hull (and which bay) contains a terminal, answered from a
  :class:`LocateIndex` (node map plus padded hull boxes) built once per
  abstraction, with :func:`locate_node_reference` as the scan oracle;
* :func:`extreme_points` — the per-request E₁ … E_k of §4.4 for the
  explicit same-bay routine (exercised directly by tests and benchmark E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from ..core.abstraction import Abstraction, Bay, HoleAbstraction
from ..geometry.convex_hull import convex_hull_indices
from ..geometry.polygon import point_in_polygon
from ..geometry.primitives import distance

__all__ = [
    "BayLocation",
    "bay_key",
    "bay_structures_for_hole",
    "bay_waypoint_structures",
    "LocateIndex",
    "locate_node",
    "locate_node_reference",
    "locate_point",
    "extreme_points",
]


@dataclass(frozen=True)
class BayLocation:
    """A terminal's position relative to the hole abstraction."""

    hole_id: int
    bay_index: int

    @property
    def key(self) -> tuple[int, int]:
        return (self.hole_id, self.bay_index)


def bay_key(hole_id: int, bay_index: int) -> tuple[int, int]:
    """Canonical dictionary key of a bay."""
    return (hole_id, bay_index)


class LocateIndex:
    """§4.3 location over one abstraction, built once for many locates.

    It holds a node → location map for the nodes
    :func:`locate_node_reference` decides by membership (hull corners →
    ``None``, bay-interior ring nodes → their bay; the first hole in order
    wins, and within a hole the hull wins over a bay), and each hull
    polygon with its bounding box padded by ``1e-9``.  A point strictly
    inside a polygon lies inside the polygon's padded box, so
    :meth:`point` skips every hole whose box cannot contain the point; the
    holes left go through the same ``point_in_polygon`` test, bay tests and
    nearest-bay fallback, in hole order.  The tables are built at the first
    locate, so creating an index costs nothing until it is used.  An index
    is valid for the one abstraction it was made for.
    """

    def __init__(self, abstraction: Abstraction) -> None:
        self.abstraction = abstraction
        self._nodes: dict[int, BayLocation | None] | None = None
        self._hulls: list[tuple[HoleAbstraction, np.ndarray]] = []
        self._boxes = np.zeros((0, 4))

    def _build(self) -> dict[int, BayLocation | None]:
        pad = 1e-9
        pts = self.abstraction.points
        nodes: dict[int, BayLocation | None] = {}
        boxes: list[tuple[float, float, float, float]] = []
        for hole in self.abstraction.holes:
            for v in hole.hull:
                nodes.setdefault(v, None)
            for idx, bay in enumerate(hole.bays):
                loc = BayLocation(hole_id=hole.hole_id, bay_index=idx)
                for v in bay.interior:
                    nodes.setdefault(v, loc)
            hull_poly = hole.hull_polygon(pts)
            if len(hull_poly) < 3:
                continue
            self._hulls.append((hole, hull_poly))
            lo = hull_poly.min(axis=0)
            hi = hull_poly.max(axis=0)
            boxes.append((lo[0] - pad, lo[1] - pad, hi[0] + pad, hi[1] + pad))
        self._boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
        self._nodes = nodes
        return nodes

    def node(self, node: int) -> BayLocation | None:
        """:func:`locate_node_reference`'s answer for ``node``."""
        nodes = self._build() if self._nodes is None else self._nodes
        if node in nodes:
            return nodes[node]
        return self.point(self.abstraction.points[node])

    def point(self, point: Sequence[float]) -> BayLocation | None:
        """:func:`locate_point`'s answer for ``point``, skipping the holes
        whose padded hull box cannot contain it."""
        if self._nodes is None:
            self._build()
        x, y = float(point[0]), float(point[1])
        b = self._boxes
        near = np.flatnonzero(
            (b[:, 0] <= x) & (x <= b[:, 2]) & (b[:, 1] <= y) & (y <= b[:, 3])
        )
        return _locate_in_hulls(
            self.abstraction, point, (self._hulls[i] for i in near)
        )


def _locate_in_hulls(
    abstraction: Abstraction,
    point: Sequence[float],
    hulls: Iterable[tuple[HoleAbstraction, np.ndarray]],
) -> BayLocation | None:
    """The §4.3 point case over ``(hole, hull polygon)`` candidates, taken
    in hole order: the first hull strictly containing ``point`` decides."""
    pts = abstraction.points
    for hole, hull_poly in hulls:
        if len(hull_poly) < 3:
            continue
        if not point_in_polygon(point, hull_poly, include_boundary=False):
            continue
        for idx, bay in enumerate(hole.bays):
            bay_poly = pts[bay.arc]
            if len(bay_poly) >= 3 and point_in_polygon(point, bay_poly):
                return BayLocation(hole_id=hole.hole_id, bay_index=idx)
        # Inside the hull but in no bay polygon: the point sits inside the
        # hole region itself (no nodes live there) or exactly on an edge;
        # report the nearest bay so routing still has a structure to use.
        best: BayLocation | None = None
        best_d = float("inf")
        for idx, bay in enumerate(hole.bays):
            for v in bay.arc:
                d = distance(point, pts[v])
                if d < best_d:
                    best_d = d
                    best = BayLocation(hole_id=hole.hole_id, bay_index=idx)
        return best
    return None


def locate_point(
    abstraction: Abstraction, point: Sequence[float]
) -> BayLocation | None:
    """Which bay (if any) contains ``point``?

    A point strictly inside a hole's convex hull but outside the hole
    itself lies in exactly one bay (hulls are disjoint by assumption).  The
    bay is identified by the hull edge — equivalently the boundary arc —
    whose region contains the point; we test containment in the polygon
    ``corner_a → arc → corner_b`` directly.  Every hull is tested in hole
    order: this is the scan oracle for :meth:`LocateIndex.point`.
    """
    pts = abstraction.points
    return _locate_in_hulls(
        abstraction,
        point,
        ((hole, hole.hull_polygon(pts)) for hole in abstraction.holes),
    )


def locate_node(
    abstraction: Abstraction, node: int, *, index: LocateIndex | None = None
) -> BayLocation | None:
    """Bay containing the given *node* (None when outside all hulls).

    Hull corners count as outside (they are part of the abstraction), and a
    boundary node in a bay arc's interior is located by ring membership
    rather than geometry, avoiding boundary-precision issues.  Answers come
    from ``index`` (a :class:`LocateIndex` of ``abstraction``), or from a
    fresh one when none is given; :func:`locate_node_reference` is the
    loop they equal.
    """
    if index is None:
        index = LocateIndex(abstraction)
    return index.node(node)


def locate_node_reference(abstraction: Abstraction, node: int) -> BayLocation | None:
    """Scan oracle for :func:`locate_node`: membership hole by hole, then
    :func:`locate_point` over every hull."""
    for hole in abstraction.holes:
        hull_set = set(hole.hull)
        if node in hull_set:
            return None
        for idx, bay in enumerate(hole.bays):
            if node in bay.interior:
                return BayLocation(hole_id=hole.hole_id, bay_index=idx)
    return locate_point(abstraction, abstraction.points[node])


def bay_structures_for_hole(
    abstraction: Abstraction, hole: HoleAbstraction
) -> tuple[dict[int, list[int]], dict[int, list[tuple[int, int, tuple[int, ...]]]]]:
    """Waypoint vertex groups and arc edges of one hole's bays.

    Returns ``(groups, arc_edges)`` keyed by **bay index only**;
    :func:`bay_waypoint_structures` merges them under ``(hole_id, bay)``.
    Depends only on the hole itself (arc membership and member
    coordinates), never on other holes.
    """
    groups: dict[int, list[int]] = {}
    arc_edges: dict[int, list[tuple[int, int, tuple[int, ...]]]] = {}
    for idx, bay in enumerate(hole.bays):
        arc = bay.arc
        sel: list[int] = sorted(
            set(bay.dominating_set)
            | {bay.corner_a, bay.corner_b}
            | set(extreme_points(abstraction, bay))
        )
        sel_pos = sorted(
            (arc.index(v) for v in sel if v in arc)
        )
        groups[idx] = [arc[i] for i in sel_pos]
        edges: list[tuple[int, int, tuple[int, ...]]] = []
        for a_pos, b_pos in zip(sel_pos, sel_pos[1:]):
            path = tuple(arc[a_pos : b_pos + 1])
            edges.append((arc[a_pos], arc[b_pos], path))
        arc_edges[idx] = edges
    return groups, arc_edges


def bay_waypoint_structures(
    abstraction: Abstraction,
) -> tuple[dict[tuple[int, int], list[int]], dict[tuple[int, int], list[tuple[int, int, tuple[int, ...]]]]]:
    """Waypoint vertex groups and arc edges for every bay.

    Returns ``(groups, arc_edges)`` keyed by ``(hole_id, bay_index)``:

    * group = corners ∪ dominating set ∪ extreme points of the full arc;
    * arc edges link consecutive group members along the boundary, carrying
      the explicit ring sub-path (each hop an LDel edge).
    """
    groups: dict[tuple[int, int], list[int]] = {}
    arc_edges: dict[tuple[int, int], list[tuple[int, int, tuple[int, ...]]]] = {}
    for hole in abstraction.holes:
        g, e = bay_structures_for_hole(abstraction, hole)
        for idx, sel in g.items():
            groups[bay_key(hole.hole_id, idx)] = sel
        for idx, edges in e.items():
            arc_edges[bay_key(hole.hole_id, idx)] = edges
    return groups, arc_edges


def extreme_points(
    abstraction: Abstraction,
    bay: Bay,
    start: int | None = None,
    end: int | None = None,
) -> list[int]:
    """The extreme points E₁ … E_k of §4.4: convex hull of a bay sub-arc.

    ``start`` / ``end`` are arc nodes delimiting H_{s,t} (default: the whole
    bay arc).  Returned in arc order, endpoints included — the waypoints the
    same-bay routing strategy hops along with Chew's algorithm.
    """
    arc = bay.arc
    i0 = arc.index(start) if start is not None else 0
    i1 = arc.index(end) if end is not None else len(arc) - 1
    if i0 > i1:
        i0, i1 = i1, i0
    sub = arc[i0 : i1 + 1]
    if len(sub) <= 2:
        return list(sub)
    coords = abstraction.points[sub]
    hull_local = set(convex_hull_indices(coords))
    out = [v for i, v in enumerate(sub) if i in hull_local]
    # Endpoints always participate (they anchor the Chew legs to P₁ / P_t).
    if sub[0] not in out:
        out.insert(0, sub[0])
    if sub[-1] not in out:
        out.append(sub[-1])
    return out
