"""Chew's algorithm: routing along the triangles stabbed by the s–t segment.

The paper's routing primitive (Theorems 2.10/2.11): between two *visible*
nodes of LDel² — nodes whose connecting segment crosses no hole — the online
strategy of Bonichon et al. [3] finds a path of length at most 5.9·‖st‖ by
only ever visiting vertices of triangles intersected by the segment.

Implementation: we build the **corridor** — the ordered chain of LDel
triangles the segment st stabs, linked by their crossed edges — and route on
the corridor's vertex set: greedily toward *t* first, with a Dijkstra
fallback restricted to the corridor if greedy stalls (both stay within
Chew's vertex set, so the 5.9 guarantee's premises apply; the measured
stretch in benchmark E9 is far below the bound).  When the chain breaks —
the segment leaves the triangulated region and enters a non-triangular face
— the walk stops at a **hole node** ``h₀`` on the last crossed edge, which
is exactly the "message reaches a hole node" event the §3/§4 protocols
dispatch on.

:func:`chew_route` finds the chain by walking from triangle to triangle
along st, so a leg costs O(crossed triangles).  :func:`chew_route_reference`
keeps the original chain logic — sort every crossed edge of the graph
(:func:`crossed_edges`), then follow the sorted list while consecutive
crossings share a triangle — as the differential oracle.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry.predicates import (
    orientation,
    segments_properly_intersect,
)
from ..geometry.primitives import distance
from ..graphs.ldel import LDelGraph

__all__ = [
    "ChewResult",
    "TriangleIndex",
    "chew_route",
    "chew_route_reference",
    "crossed_edges",
]

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


@dataclass
class ChewResult:
    """Outcome of one Chew walk.

    ``path`` always starts at the source; when ``reached`` it ends at the
    target, otherwise at ``blocked_at`` — the hole node where the corridor
    broke (h₀ of §3).
    """

    path: list[int]
    reached: bool
    blocked_at: int | None = None
    corridor: set[int] = field(default_factory=set)
    used_fallback: bool = False

    def length(self, points: np.ndarray) -> float:
        """Euclidean length of the walked path."""
        return sum(
            distance(points[a], points[b])
            for a, b in zip(self.path, self.path[1:])
        )


@dataclass(frozen=True)
class TriangleIndex:
    """The LDel triangles by edge and by vertex, built once per graph.

    ``by_edge`` maps a normalized edge to its triangles (at most two on a
    planar LDel graph), ``by_vertex`` maps a node to the triangles it is a
    corner of; both keep ``graph.triangles`` order.  ``tangled`` holds the
    triangles with an edge that another LDel edge properly crosses — none
    on a planar graph; exactly cocircular input can produce them.
    """

    by_edge: dict[Edge, list[Triangle]]
    by_vertex: dict[int, list[Triangle]]
    tangled: frozenset[Triangle]

    @classmethod
    def build(cls, graph: LDelGraph) -> TriangleIndex:
        """Index ``graph.triangles``; one crossing-pair pass marks the
        tangled triangles."""
        by_edge: dict[Edge, list[Triangle]] = {}
        by_vertex: dict[int, list[Triangle]] = {}
        for tri in graph.triangles:
            a, b, c = tri
            for e in ((a, b), (b, c), (a, c)):
                by_edge.setdefault(e, []).append(tri)
            for v in tri:
                by_vertex.setdefault(v, []).append(tri)
        tangled = frozenset(
            tri
            for pair in graph.crossing_edge_pairs()
            for e in pair
            for tri in by_edge.get(e, ())
        )
        return cls(by_edge, by_vertex, tangled)


def crossed_edges(
    graph: LDelGraph, s: int, t: int
) -> list[tuple[float, Edge]]:
    """LDel edges properly crossed by segment st, ordered along st.

    Returns ``(param, edge)`` pairs where ``param`` ∈ (0,1) locates the
    crossing on st.  Edges incident to s or t never count as crossings.
    """
    pts = graph.points
    ps, pt = pts[s], pts[t]
    out: list[tuple[float, Edge]] = []
    seen: set[Edge] = set()
    # Candidate edges: restrict to edges whose endpoints are near the
    # segment (cheap bounding-box prefilter over the adjacency).
    xmin, xmax = min(ps[0], pt[0]) - 1.0, max(ps[0], pt[0]) + 1.0
    ymin, ymax = min(ps[1], pt[1]) - 1.0, max(ps[1], pt[1]) + 1.0
    for u, nbrs in graph.adjacency.items():
        pu = pts[u]
        if not (xmin <= pu[0] <= xmax and ymin <= pu[1] <= ymax):
            continue
        for v in nbrs:
            if v <= u or u in (s, t) or v in (s, t):
                continue
            e = (u, v)
            if e in seen:
                continue
            seen.add(e)
            pv = pts[v]
            if segments_properly_intersect(ps, pt, pu, pv):
                param = _cross_param(ps, pt, pu, pv)
                out.append((param, e))
    out.sort(key=lambda item: item[0])
    return out


def _cross_param(ps, pt, pu, pv) -> float:
    dx, dy = pt[0] - ps[0], pt[1] - ps[1]
    ex, ey = pv[0] - pu[0], pv[1] - pu[1]
    denom = dx * ey - dy * ex
    if abs(denom) < 1e-15:
        return 0.5
    return ((pu[0] - ps[0]) * ey - (pu[1] - ps[1]) * ex) / denom


def _common_triangle(index: TriangleIndex, e1: Edge, e2: Edge) -> bool:
    t1 = index.by_edge.get(e1, ())
    t2 = index.by_edge.get(e2, ())
    return any(a == b for a in t1 for b in t2)


def _edge_in_triangle_with(index: TriangleIndex, e: Edge, apex: int) -> bool:
    return any(apex in tri for tri in index.by_edge.get(e, ()))


def chew_route(
    graph: LDelGraph,
    s: int,
    t: int,
    *,
    index: TriangleIndex | None = None,
) -> ChewResult:
    """Route from node ``s`` toward node ``t`` along the st corridor.

    Walks the triangles st stabs: it starts in the triangle at ``s`` whose
    opposite edge st properly crosses and crosses into the next triangle
    through the edge st leaves by.  The chain breaks where the crossed edge
    has no triangle beyond it (a hole face), where st runs through the next
    apex, or where no triangle at ``s`` qualifies; a triangle whose apex is
    ``t`` ends the walk.  The result equals :func:`chew_route_reference`.
    Where the walk cannot tell the reference's list of crossings — it
    enters a tangled triangle (another edge may cross st inside it), two
    triangles at ``s`` qualify, an edge has more than two triangles, or
    the crossing parameters do not increase along the walk — it returns
    the reference's answer.

    ``index`` can be built once per graph and shared across calls — the
    router does this.
    """
    if s == t:
        return ChewResult(path=[s], reached=True)
    if graph.has_edge(s, t):
        return ChewResult(path=[s, t], reached=True, corridor={s, t})
    if index is None:
        index = TriangleIndex.build(graph)

    pts = graph.points
    ps, pt = pts[s], pts[t]
    starts: list[tuple[Triangle, Edge]] = []
    for tri in index.by_vertex.get(s, ()):
        u, v = (x for x in tri if x != s)
        if t not in (u, v) and segments_properly_intersect(ps, pt, pts[u], pts[v]):
            starts.append((tri, (u, v)))
    if not starts:
        return ChewResult(path=[s], reached=False, blocked_at=s, corridor={s})
    if len(starts) > 1 or starts[0][0] in index.tangled:
        return chew_route_reference(graph, s, t, index=index)

    tri, edge = starts[0]
    corridor: set[int] = {s, *edge}
    param = _cross_param(ps, pt, pts[edge[0]], pts[edge[1]])
    # Which side of line st the first endpoint of the crossed edge is on;
    # the second is on the other side (the crossing is proper).
    side0 = orientation(ps, pt, pts[edge[0]])
    while True:
        sharing = index.by_edge.get(edge, ())
        if len(sharing) > 2:
            return chew_route_reference(graph, s, t, index=index)
        beyond = [x for x in sharing if x != tri]
        if not beyond:
            break  # a hole face lies beyond the crossed edge
        tri = beyond[0]
        if tri in index.tangled:
            return chew_route_reference(graph, s, t, index=index)
        w = next(x for x in tri if x not in edge)
        if w == t:
            corridor.add(t)
            path, fallback = _route_in_corridor(graph, corridor, s, t)
            if path is not None:
                return ChewResult(
                    path=path, reached=True, corridor=corridor, used_fallback=fallback
                )
            break  # corridor disconnected: treat as blocked
        side_w = orientation(ps, pt, pts[w])
        # Only the edge from w to the endpoint on w's far side can be
        # crossed; the other one has both endpoints on one side of st.
        x = edge[0] if side0 == -side_w else edge[1]
        exit_edge = (x, w) if x < w else (w, x)
        pu, pv = pts[exit_edge[0]], pts[exit_edge[1]]
        if not segments_properly_intersect(ps, pt, pu, pv):
            break  # e.g. st runs through the apex w
        exit_param = _cross_param(ps, pt, pu, pv)
        if not exit_param > param:
            return chew_route_reference(graph, s, t, index=index)
        corridor.add(w)
        edge, param = exit_edge, exit_param
        side0 = -side_w if edge[0] == x else side_w
    return _blocked(graph, corridor, s, t, edge)


def chew_route_reference(
    graph: LDelGraph,
    s: int,
    t: int,
    *,
    index: TriangleIndex | None = None,
) -> ChewResult:
    """Chain oracle for :func:`chew_route`.

    Sorts every LDel edge st properly crosses (:func:`crossed_edges`, a
    scan over the whole adjacency) and follows the list while consecutive
    crossings share a triangle.
    """
    if s == t:
        return ChewResult(path=[s], reached=True)
    if graph.has_edge(s, t):
        return ChewResult(path=[s, t], reached=True, corridor={s, t})

    if index is None:
        index = TriangleIndex.build(graph)

    crossings = crossed_edges(graph, s, t)

    # Walk the crossing chain and find where (if anywhere) it breaks.
    corridor: set[int] = {s}
    chain_ok = True
    last_edge: Edge | None = None
    if not crossings:
        # st crosses no edge: the open segment lies inside a single face.
        # With no direct edge that face cannot be a triangle — we are
        # standing on a hole boundary.
        return ChewResult(path=[s], reached=False, blocked_at=s, corridor={s})
    first_edge = crossings[0][1]
    if not _edge_in_triangle_with(index, first_edge, s):
        return ChewResult(path=[s], reached=False, blocked_at=s, corridor={s})
    corridor.update(first_edge)
    last_edge = first_edge
    break_edge: Edge | None = None
    for _, e in crossings[1:]:
        if not _common_triangle(index, last_edge, e):
            break_edge = last_edge
            chain_ok = False
            break
        corridor.update(e)
        last_edge = e
    if chain_ok:
        if _edge_in_triangle_with(index, last_edge, t):
            corridor.add(t)
            path, fallback = _route_in_corridor(graph, corridor, s, t)
            if path is not None:
                return ChewResult(
                    path=path,
                    reached=True,
                    corridor=corridor,
                    used_fallback=fallback,
                )
            break_edge = last_edge  # corridor disconnected: treat as blocked
        else:
            break_edge = last_edge

    assert break_edge is not None
    return _blocked(graph, corridor, s, t, break_edge)


def _blocked(
    graph: LDelGraph, corridor: set[int], s: int, t: int, break_edge: Edge
) -> ChewResult:
    """Deliver the message to the better endpoint of the last edge before
    the hole (h₀)."""
    pts = graph.points
    h0 = min(break_edge, key=lambda v: distance(pts[v], pts[t]))
    path, fallback = _route_in_corridor(graph, corridor, s, h0)
    if path is None:
        # Degenerate corridor (should not occur on planar LDel): stay put.
        path, fallback = [s], False
        h0 = s
    return ChewResult(
        path=path,
        reached=False,
        blocked_at=h0,
        corridor=corridor,
        used_fallback=fallback,
    )


def _route_in_corridor(
    graph: LDelGraph, corridor: set[int], s: int, goal: int
) -> tuple[list[int] | None, bool]:
    """Greedy walk within the corridor; Dijkstra fallback if it stalls."""
    pts = graph.points
    pgoal = pts[goal]
    path = [s]
    current = s
    visited = {s}
    while current != goal:
        candidates = [
            v
            for v in graph.adjacency[current]
            if v in corridor and v not in visited
        ]
        if not candidates:
            return _dijkstra_in_corridor(graph, corridor, s, goal)
        nxt = min(candidates, key=lambda v: distance(pts[v], pgoal))
        if distance(pts[nxt], pgoal) >= distance(pts[current], pgoal) and nxt != goal:
            return _dijkstra_in_corridor(graph, corridor, s, goal)
        path.append(nxt)
        visited.add(nxt)
        current = nxt
    return path, False


def _dijkstra_in_corridor(
    graph: LDelGraph, corridor: set[int], s: int, goal: int
) -> tuple[list[int] | None, bool]:
    pts = graph.points
    dist: dict[int, float] = {s: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, s)]
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if u == goal:
            break
        for v in graph.adjacency[u]:
            if v not in corridor or v in settled:
                continue
            nd = d + distance(pts[u], pts[v])
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if goal not in dist or goal not in settled:
        return None, True
    path = [goal]
    while path[-1] != s:
        path.append(prev[path[-1]])
    path.reverse()
    return path, True
