"""The radio-hole abstraction (§4): convex hulls, bays, dominating sets.

This is the artifact the whole paper works toward: a compact representation
of the ad hoc network's radio holes that is sufficient for c-competitive
routing.  It can be produced two ways with identical content:

* :func:`build_abstraction` — centralized, directly from the LDel graph
  (fast; used by the routing benchmarks and as the correctness oracle);
* :func:`repro.protocols.setup.run_distributed_setup` — the paper's
  distributed pipeline, measured in rounds/messages and verified against
  the centralized output in the test suite.

Storage accounting (Theorem 1.2) reads off this structure: hull nodes keep
all hulls — O(Σ L(c)) words; boundary nodes keep their ring — O(max P(h));
everyone else keeps O(1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..geometry.convex_hull import convex_hull_indices
from ..geometry.delaunay import delaunay_edges
from ..geometry.polygon import BoundingBox, bounding_box, perimeter, polygons_intersect
from ..geometry.primitives import as_array, distance
from ..graphs.faces import HoleSet, find_holes
from ..graphs.ldel import LDelGraph

__all__ = [
    "Bay",
    "HoleAbstraction",
    "Abstraction",
    "build_abstraction",
    "reference_dominating_set",
]

Edge = tuple[int, int]


def reference_dominating_set(arc: Sequence[int]) -> list[int]:
    """Minimum dominating set of a path of nodes: every third node.

    Centralized oracle used when the abstraction is built without running
    the distributed MIS protocol; the distributed variant produces a set at
    most 1.5× larger (see :mod:`repro.protocols.dominating_set`).
    """
    k = len(arc)
    if k == 0:
        return []
    return [arc[min(i + 1, k - 1)] for i in range(0, k, 3)]


@dataclass
class Bay:
    """A bay area (§4.3): the stretch of hole boundary between two adjacent
    convex-hull corners, lying inside the hull.

    ``arc`` runs from ``corner_a`` to ``corner_b`` inclusive, in boundary
    walk order; ``dominating_set ⊆ arc`` per §5.6.
    """

    hole_id: int
    corner_a: int
    corner_b: int
    arc: list[int]
    dominating_set: list[int] = field(default_factory=list)

    @property
    def interior(self) -> list[int]:
        """Arc nodes strictly between the two corners."""
        return self.arc[1:-1]

    def __len__(self) -> int:
        return len(self.arc)


@dataclass
class HoleAbstraction:
    """One radio hole with its convex-hull abstraction."""

    hole_id: int
    boundary: list[int]
    hull: list[int]
    is_outer: bool = False
    closing_edge: Edge | None = None
    bays: list[Bay] = field(default_factory=list)

    def hull_polygon(self, points: np.ndarray) -> np.ndarray:
        """Convex-hull corner coordinates, ccw."""
        return as_array(points)[self.hull]

    def boundary_polygon(self, points: np.ndarray) -> np.ndarray:
        """Boundary-ring coordinates in walk order."""
        return as_array(points)[self.boundary]

    def perimeter(self, points: np.ndarray) -> float:
        """P(h) of Theorem 1.2."""
        return perimeter(self.boundary_polygon(points))

    def hull_circumference_bound(self, points: np.ndarray) -> float:
        """L(c) of Theorem 1.2 — bounding-box circumference of the hull."""
        return bounding_box(self.hull_polygon(points)).circumference

    def bay_of(self, node: int) -> Bay | None:
        """The bay whose strict interior contains ``node`` (if any)."""
        for bay in self.bays:
            if node in bay.interior:
                return bay
        return None


@dataclass
class Abstraction:
    """The complete hole abstraction of an LDel² network."""

    graph: LDelGraph
    holes: list[HoleAbstraction]
    #: overlay tree (node -> parent), present when built distributedly
    tree_parent: dict[int, int | None] | None = None
    #: the raw outer boundary walk of LDel² (clockwise outer face); used by
    #: the incremental-update machinery to detect outer-ring changes
    outer_boundary: list[int] = field(default_factory=list)

    @property
    def points(self) -> np.ndarray:
        return self.graph.points

    # -- node roles -------------------------------------------------------------
    def hull_nodes(self) -> set[int]:
        """Node ids on any hole convex hull (the §4 waypoint set)."""
        out: set[int] = set()
        for h in self.holes:
            out.update(h.hull)
        return out

    def boundary_nodes(self) -> set[int]:
        """Node ids on any hole boundary (the §3 waypoint set)."""
        out: set[int] = set()
        for h in self.holes:
            out.update(h.boundary)
        return out

    # -- geometry -----------------------------------------------------------------
    def hull_polygons(self) -> list[np.ndarray]:
        """Convex-hull polygons of all holes."""
        return [h.hull_polygon(self.points) for h in self.holes]

    def boundary_polygons(self) -> list[np.ndarray]:
        """Boundary polygons of all holes (the visibility obstacles)."""
        return [h.boundary_polygon(self.points) for h in self.holes]

    def hulls_disjoint(self) -> bool:
        """Does the instance satisfy the non-intersecting-hulls assumption?

        Interiors must be disjoint; hulls *touching* at a shared boundary
        node (common for adjacent outer holes that share a convex-hull
        corner of V) do not violate the paper's assumption, so boundary
        contact is permitted.
        """
        from ..geometry.predicates import segments_properly_intersect
        from ..geometry.polygon import point_in_polygon

        polys = [p for p in self.hull_polygons() if len(p) >= 3]
        for i in range(len(polys)):
            a = polys[i]
            na = len(a)
            for j in range(i + 1, len(polys)):
                b = polys[j]
                nb = len(b)
                for ii in range(na):
                    for jj in range(nb):
                        if segments_properly_intersect(
                            a[ii], a[(ii + 1) % na], b[jj], b[(jj + 1) % nb]
                        ):
                            return False
                if any(point_in_polygon(q, a, include_boundary=False) for q in b):
                    return False
                if any(point_in_polygon(q, b, include_boundary=False) for q in a):
                    return False
        return True

    # -- the Overlay Delaunay Graph (§4.2) ---------------------------------------------
    def overlay_delaunay(
        self, extra_points: Sequence[Sequence[float]] = ()
    ) -> tuple[list[int], np.ndarray, set[Edge]]:
        """Delaunay graph over all hull nodes (+ optional terminals).

        Returns ``(node_ids, coords, edges)``: ``node_ids[i]`` is the graph
        node id of row *i* of ``coords`` (terminals get ids −1, −2, …), and
        ``edges`` are index pairs into ``coords``.  Every convex-hull node
        stores exactly this structure in the paper.
        """
        ids = sorted(self.hull_nodes())
        coords_list = [self.points[i] for i in ids]
        for j, p in enumerate(extra_points):
            ids.append(-(j + 1))
            coords_list.append(np.asarray(p, dtype=float))
        coords = np.asarray(coords_list, dtype=float)
        edges = delaunay_edges(coords) if len(coords) >= 2 else set()
        return ids, coords, edges

    # -- storage accounting (Theorem 1.2) -------------------------------------------------
    def storage_profile(self) -> dict[str, float]:
        """Measured words per node role vs. the theorem's bounds."""
        pts = self.points
        hull_words = sum(len(h.hull) for h in self.holes)
        bound_l = sum(h.hull_circumference_bound(pts) for h in self.holes)
        max_perimeter = max(
            (h.perimeter(pts) for h in self.holes), default=0.0
        )
        max_ring = max((len(h.boundary) for h in self.holes), default=0)
        return {
            "hull_node_words": 2 * hull_words,  # each hull point: id + coords
            "sum_L": bound_l,
            "boundary_node_words": max_ring,
            "max_P": max_perimeter,
            "other_node_words": 1.0,
            "n": float(len(pts)),
        }


def build_abstraction(
    graph: LDelGraph,
    hole_set: HoleSet | None = None,
    *,
    dominating_sets: bool = True,
) -> Abstraction:
    """Centralized construction of the full abstraction from an LDel graph."""
    hs = find_holes(graph) if hole_set is None else hole_set
    pts = graph.points
    holes: list[HoleAbstraction] = []
    for h in hs.holes:
        hull_ids = h.hull_indices(pts)
        ha = HoleAbstraction(
            hole_id=h.hole_id,
            boundary=list(h.boundary),
            hull=hull_ids,
            is_outer=h.is_outer,
            closing_edge=h.closing_edge,
        )
        ha.bays = _extract_bays(ha, dominating_sets=dominating_sets)
        holes.append(ha)
    return Abstraction(
        graph=graph, holes=holes, outer_boundary=list(hs.outer_face)
    )


def _extract_bays(hole: HoleAbstraction, *, dominating_sets: bool) -> list[Bay]:
    """Cut the boundary ring at its hull corners into bay arcs.

    A bay exists between two hull-adjacent corners whenever boundary nodes
    lie strictly between them on the ring (the boundary dips inside the
    hull there).
    """
    boundary = hole.boundary
    k = len(boundary)
    hull_set = set(hole.hull)
    corner_pos = [i for i, v in enumerate(boundary) if v in hull_set]
    if len(corner_pos) < 2:
        return []
    bays: list[Bay] = []
    for idx, pa in enumerate(corner_pos):
        pb = corner_pos[(idx + 1) % len(corner_pos)]
        arc_len = (pb - pa) % k
        if arc_len <= 1:
            continue  # corners adjacent on the ring: no bay
        arc = [boundary[(pa + j) % k] for j in range(arc_len + 1)]
        bay = Bay(
            hole_id=hole.hole_id,
            corner_a=boundary[pa],
            corner_b=boundary[pb],
            arc=arc,
        )
        if dominating_sets:
            bay.dominating_set = reference_dominating_set(arc)
        bays.append(bay)
    return bays
