"""Waypoint planning over hole abstractions.

Both routing protocols of the paper share one pattern: when Chew's walk hits
a hole, a *waypoint graph* over a small node set is consulted — the
Visibility Graph of all hole nodes in §3, the Overlay Delaunay Graph of the
convex-hull corners in §4 — a shortest waypoint path to the target is
computed, and the message then travels leg by leg with Chew's algorithm.

:class:`WaypointPlanner` implements the machinery once:

* a **static** graph over the abstraction's waypoint vertices (hull corners
  and/or boundary nodes, plus per-bay vertex groups for §4.4) with three
  edge kinds —

  - ``chew`` edges between mutually *visible* vertices (their segment
    crosses no hole), executable by a Chew leg with the 5.9 guarantee;
  - ``arc`` edges that follow a stretch of hole boundary (consecutive ring
    nodes are LDel-adjacent, so the explicit node path is attached);
  - hull-perimeter edges (a special case of ``chew``: adjacent hull corners
    are always visible when hulls don't intersect — Lemma 4.15);

* **query-time** insertion of the two terminals, connected to every visible
  vertex (the paper's "h₀ inserts t into its Visibility Graph").

Bay vertex groups are disabled by default and enabled per query for the
holes that contain a terminal — matching the paper's storage discipline
(case 1 uses hull corners only; cases 2–5 additionally consult the affected
bays' dominating sets and extreme points).  A bay's visibility legs are
computed on its first activation and kept for the planner's lifetime; the
planner is bound to one abstraction, so a rebind builds a new planner and
recomputes them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from collections.abc import Iterable

import numpy as np

from ..core.abstraction import Abstraction
from ..geometry.delaunay import delaunay_edges
from ..geometry.primitives import distance
from ..geometry.visibility import FlatRings, visible_mask

__all__ = ["WaypointPlanner", "WaypointPath", "Leg"]


@dataclass(frozen=True)
class Leg:
    """One leg of a planned route."""

    src: int
    dst: int
    kind: str  # "chew" | "arc"
    path: tuple[int, ...] | None = None  # explicit node path for "arc"
    weight: float = 0.0


@dataclass
class WaypointPath:
    """A planned waypoint route: legs from source to target."""

    legs: list[Leg]

    @property
    def nodes(self) -> list[int]:
        if not self.legs:
            return []
        return [self.legs[0].src] + [leg.dst for leg in self.legs]

    @property
    def weight(self) -> float:
        return sum(leg.weight for leg in self.legs)


class WaypointPlanner:
    """Shortest waypoint paths over an abstraction's structures."""

    def __init__(
        self,
        abstraction: Abstraction,
        *,
        vertices: Iterable[int],
        structure: str = "delaunay",
        bay_groups: dict[int, list[int]] | None = None,
        bay_arc_edges: dict[int, list[tuple[int, int, tuple[int, ...]]]] | None = None,
    ) -> None:
        """
        Parameters
        ----------
        abstraction:
            The hole abstraction providing obstacles and geometry.
        vertices:
            Static waypoint node ids (hull corners in §4 mode, all boundary
            nodes in §3 mode).
        structure:
            ``"delaunay"`` — connect vertices along (visibility-filtered)
            Delaunay edges, the paper's space-efficient choice; or
            ``"visibility"`` — connect every visible pair (Θ(h²) edges, the
            §3 baseline structure).
        bay_groups:
            Optional bay-id → extra vertex ids (dominating set + extreme
            points), activated per query.
        bay_arc_edges:
            Optional bay-id → list of ``(u, v, ring_path)`` boundary-arc
            edges between consecutive bay waypoints.
        """
        self.abstraction = abstraction
        self.points = abstraction.points
        self.structure = structure
        self.obstacles = [
            p for p in abstraction.boundary_polygons() if len(p) >= 3
        ]
        self._rings = FlatRings(self.obstacles)
        self.base_vertices: list[int] = sorted(set(vertices))
        self.bay_groups = bay_groups or {}
        self.bay_arc_edges = bay_arc_edges or {}
        self._bay_vis_cache: dict[int, list[Leg]] = {}
        #: adjacency: node -> {node: Leg}
        self.base_edges: dict[int, dict[int, Leg]] = {
            v: {} for v in self.base_vertices
        }
        self._build_static()

    # -- construction -------------------------------------------------------------
    def visible(self, a: int, b: int) -> bool:
        """Are nodes a and b mutually visible w.r.t. the hole obstacles?"""
        return bool(self._visible_pairs([(a, b)]))

    def _add_edge(self, store: dict[int, dict[int, Leg]], u: int, v: int,
                  kind: str, path: tuple[int, ...] | None = None,
                  weight: float | None = None) -> None:
        if u == v:
            return
        if weight is None:
            if path is not None:
                weight = sum(
                    distance(self.points[a], self.points[b])
                    for a, b in zip(path, path[1:])
                )
            else:
                weight = distance(self.points[u], self.points[v])
        existing = store.setdefault(u, {}).get(v)
        if existing is None or weight < existing.weight:
            store.setdefault(u, {})[v] = Leg(u, v, kind, path, weight)
            rpath = tuple(reversed(path)) if path is not None else None
            store.setdefault(v, {})[u] = Leg(v, u, kind, rpath, weight)

    def _visible_pairs(self, pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
        """Filter node-id pairs down to the mutually visible ones, in order.

        Every visibility question the planner asks goes through here: one
        :func:`visible_mask` call against the planner's one
        :class:`FlatRings`, with the sight line running from ``u`` to
        ``v``.  Callers add edges in the order of the returned list, which
        is the order of ``pairs``.
        """
        if not pairs:
            return []
        arr = np.asarray(pairs, dtype=np.intp)
        vis = visible_mask(
            self.points[arr[:, 0]], self.points[arr[:, 1]], self.obstacles,
            rings=self._rings,
        )
        return [(int(u), int(v)) for (u, v), ok in zip(pairs, vis) if ok]

    def _build_static(self) -> None:
        ids = self.base_vertices
        if len(ids) >= 2:
            if self.structure == "visibility":
                candidates = [
                    (u, v) for i, u in enumerate(ids) for v in ids[i + 1 :]
                ]
                for u, v in self._visible_pairs(candidates):
                    self._add_edge(self.base_edges, u, v, "chew")
            else:
                candidates = [
                    (ids[i], ids[j]) for i, j in delaunay_edges(self.points[ids])
                ]
                for u, v in self._visible_pairs(candidates):
                    self._add_edge(self.base_edges, u, v, "chew")
        # Hull-perimeter edges: adjacent hull corners are visible whenever
        # the instance satisfies the disjoint-hulls assumption (Lemma 4.15);
        # adding them explicitly guarantees every hole can be circumnavigated
        # even when the Delaunay filter dropped a perimeter edge.
        base_set = set(ids)
        perimeter = [
            (a, b)
            for hole in self.abstraction.holes
            if len(hole.hull) >= 2
            for a, b in zip(hole.hull, hole.hull[1:] + hole.hull[:1])
            if a in base_set and b in base_set
        ]
        for a, b in self._visible_pairs(perimeter):
            self._add_edge(self.base_edges, a, b, "chew")
        # Boundary-ring edges between ring-consecutive base vertices (§3
        # mode: boundary nodes are all present, and ring edges are always
        # routable because ring neighbors are LDel-adjacent).
        for hole in self.abstraction.holes:
            b = hole.boundary
            k = len(b)
            for i in range(k):
                u, v = b[i], b[(i + 1) % k]
                if u in base_set and v in base_set:
                    if distance(self.points[u], self.points[v]) <= self.abstraction.graph.radius:
                        self._add_edge(
                            self.base_edges, u, v, "arc", path=(u, v)
                        )
        # Boundary-arc edges between ring-consecutive *hull corners*: the
        # guaranteed way around any hole.  Indispensable for outer holes,
        # whose adjacent hull corners are geometrically visible along the
        # closing edge yet not Chew-routable (the face between them IS the
        # hole); for inner holes the arc is simply an alternative the
        # Dijkstra may prefer when the bay is shallow.
        for hole in self.abstraction.holes:
            b = hole.boundary
            k = len(b)
            hull_set = set(hole.hull) & base_set
            if len(hull_set) < 2:
                continue
            corner_pos = [i for i, v in enumerate(b) if v in hull_set]
            for idx, pa in enumerate(corner_pos):
                pb = corner_pos[(idx + 1) % len(corner_pos)]
                arc_len = (pb - pa) % k
                if arc_len == 0:
                    continue
                path = tuple(b[(pa + j) % k] for j in range(arc_len + 1))
                self._add_edge(self.base_edges, b[pa], b[pb], "arc", path=path)

    # -- queries -----------------------------------------------------------------------
    def plan(
        self,
        src: int,
        dst: int,
        *,
        active_bays: Iterable[int] = (),
        banned: set[frozenset[int]] | None = None,
    ) -> WaypointPath | None:
        """Shortest waypoint path ``src → dst``.

        ``active_bays`` selects which bay vertex groups join the graph for
        this query.  Terminals are connected to every visible active vertex.
        ``banned`` excludes chew edges that failed at execution time (the
        router's replanning feedback).  Returns ``None`` when no waypoint
        path exists (which, for a valid abstraction of a connected network,
        indicates the terminals are sealed inside an unmodelled pocket).
        """
        active: set[int] = set(self.base_vertices)
        extra_edges: dict[int, dict[int, Leg]] = {}
        for bay_id in active_bays:
            group = self.bay_groups.get(bay_id, [])
            active.update(group)
            for u, v, path in self.bay_arc_edges.get(bay_id, []):
                self._add_edge(extra_edges, u, v, "arc", path=tuple(path))
            # Visibility edges among the bay group and to the hull corners
            # are precomputed lazily per bay and cached.
            for leg_map in self._bay_visibility(bay_id):
                extra_edges.setdefault(leg_map.src, {})[leg_map.dst] = leg_map

        # Each terminal joins ``active`` and is tested against every active
        # vertex (the second terminal sees the first).  All sight lines go
        # in one batch; the edges are added terminal by terminal in the
        # iteration order of ``active`` right after that terminal joined.
        # The waypoint Dijkstra breaks weight ties by first relaxation, so
        # this order decides the route.
        terminals = [x for x in (src, dst) if x not in active]
        candidates: list[tuple[int, int]] = []
        for term in terminals:
            active.add(term)
            candidates.extend((term, v) for v in active if v != term)
        for term, v in self._visible_pairs(candidates):
            self._add_edge(extra_edges, term, v, "chew")

        return self._dijkstra(src, dst, active, extra_edges, banned or set())

    def _bay_visibility(self, bay_id: int) -> list[Leg]:
        if bay_id in self._bay_vis_cache:
            return self._bay_vis_cache[bay_id]
        group = self.bay_groups.get(bay_id, [])
        gset = set(group)
        # Unique unordered candidate pairs: group–group plus group–base
        # (a corner may appear in both sets; _add_edge dedups by weight).
        candidates: list[tuple[int, int]] = []
        for i, u in enumerate(group):
            candidates.extend((u, v) for v in group[i + 1 :] if v != u)
            candidates.extend(
                (u, v) for v in self.base_vertices if v != u and v not in gset
            )
        store: dict[int, dict[int, Leg]] = {}
        for u, v in self._visible_pairs(candidates):
            self._add_edge(store, u, v, "chew")
        legs = [leg for m in store.values() for leg in m.values()]
        self._bay_vis_cache[bay_id] = legs
        return legs

    def _dijkstra(
        self,
        src: int,
        dst: int,
        active: set[int],
        extra_edges: dict[int, dict[int, Leg]],
        banned: set[frozenset[int]],
    ) -> WaypointPath | None:
        def allowed(leg: Leg) -> bool:
            return leg.kind != "chew" or frozenset((leg.src, leg.dst)) not in banned

        def edges_of(u: int):
            seen: set[int] = set()
            for v, leg in extra_edges.get(u, {}).items():
                if v in active and allowed(leg):
                    seen.add(v)
                    yield leg
            for v, leg in self.base_edges.get(u, {}).items():
                if v in active and v not in seen and allowed(leg):
                    yield leg

        dist: dict[int, float] = {src: 0.0}
        prev: dict[int, Leg] = {}
        heap: list[tuple[float, int]] = [(0.0, src)]
        settled: set[int] = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in settled:
                continue
            settled.add(u)
            if u == dst:
                break
            for leg in edges_of(u):
                nd = d + leg.weight
                if nd < dist.get(leg.dst, math.inf):
                    dist[leg.dst] = nd
                    prev[leg.dst] = leg
                    heapq.heappush(heap, (nd, leg.dst))
        if dst not in settled:
            return None
        legs: list[Leg] = []
        cur = dst
        while cur != src:
            leg = prev[cur]
            legs.append(leg)
            cur = leg.src
        legs.reverse()
        return WaypointPath(legs=legs)

