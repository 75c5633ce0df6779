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
  which hull (and which bay) contains a terminal;
* :func:`extreme_points` — the per-request E₁ … E_k of §4.4 for the
  explicit same-bay routine (exercised directly by tests and benchmark E7).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from ..core.abstraction import Abstraction, Bay, HoleAbstraction
from ..geometry.convex_hull import convex_hull_indices
from ..geometry.polygon import point_in_polygon, point_on_polygon_boundary
from ..geometry.primitives import distance

__all__ = [
    "BayLocation",
    "bay_key",
    "bay_structures_for_hole",
    "bay_waypoint_structures",
    "locate_node",
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


def locate_point(
    abstraction: Abstraction, point: Sequence[float]
) -> BayLocation | None:
    """Which bay (if any) contains ``point``?

    A point strictly inside a hole's convex hull but outside the hole
    itself lies in exactly one bay (hulls are disjoint by assumption).  The
    bay is identified by the hull edge — equivalently the boundary arc —
    whose region contains the point; we test containment in the polygon
    ``corner_a → arc → corner_b`` directly.
    """
    pts = abstraction.points
    for hole in abstraction.holes:
        hull_poly = hole.hull_polygon(pts)
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


def locate_node(abstraction: Abstraction, node: int) -> BayLocation | None:
    """Bay containing the given *node* (None when outside all hulls).

    Hull corners count as outside (they are part of the abstraction), and a
    boundary node in a bay arc's interior is located by ring membership
    rather than geometry, avoiding boundary-precision issues.
    """
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
