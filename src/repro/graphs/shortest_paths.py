"""Shortest paths on adjacency-dict graphs.

The competitiveness measure of the paper compares a routing path's Euclidean
length against ``d(s, t)`` — the length of the *shortest Euclidean-weighted
path in UDG(V)* (§1.2).  These routines provide that comparator plus the hop
metrics used by the protocol analyses.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from collections.abc import Iterable, Sequence

import numpy as np

from ..geometry.primitives import as_array, distance

__all__ = [
    "dijkstra",
    "euclidean_weights",
    "dijkstra_weighted",
    "dijkstra_to_target",
    "euclidean_shortest_path",
    "euclidean_shortest_path_length",
    "hop_distances",
    "k_hop_neighborhood",
    "path_edge_lengths",
]

Adjacency = dict[int, list[int]]
#: Row ``u``: ``(v, |uv|)`` for every neighbour ``v`` of ``u``.
WeightedAdjacency = list[list[tuple[int, float]]]


def dijkstra(
    points: Sequence[Sequence[float]],
    adj: Adjacency,
    source: int,
    target: int | None = None,
) -> tuple[dict[int, float], dict[int, int]]:
    """Euclidean-weighted Dijkstra from ``source``.

    Returns ``(dist, prev)``.  With ``target`` given, stops early once the
    target is settled (the common routing-oracle call pattern).
    """
    pts = as_array(points)
    dist: dict[int, float] = {source: 0.0}
    prev: dict[int, int] = {}
    heap: list[tuple[float, int]] = [(0.0, source)]
    settled: set[int] = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in settled:
            continue
        settled.add(u)
        if target is not None and u == target:
            break
        ux, uy = pts[u]
        for v in adj[u]:
            if v in settled:
                continue
            vx, vy = pts[v]
            nd = d + math.hypot(vx - ux, vy - uy)
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    return dist, prev


def euclidean_weights(
    points: Sequence[Sequence[float]], adj: Adjacency
) -> WeightedAdjacency:
    """``adj`` with each edge's Euclidean length, for :func:`dijkstra_weighted`.

    Row ``u`` lists ``(v, w)`` for ``v`` in ``adj[u]``, in order.  Each
    weight is ``math.hypot(vx - ux, vy - uy)``, the expression
    :func:`dijkstra` relaxes with (``numpy.hypot`` may round differently),
    so both searches add the same floats.  Coincident nodes keep their
    zero-weight edges.
    """
    pts = as_array(points)
    rows = [list(adj.get(u, ())) for u in range(len(pts))]
    dst = np.asarray([v for r in rows for v in r], dtype=np.int64)
    src = np.repeat(np.arange(len(pts)), [len(r) for r in rows])
    dx = (pts[dst, 0] - pts[src, 0]).tolist()
    dy = (pts[dst, 1] - pts[src, 1]).tolist()
    weights = list(map(math.hypot, dx, dy))
    out: WeightedAdjacency = []
    start = 0
    for r in rows:
        out.append(list(zip(r, weights[start : start + len(r)])))
        start += len(r)
    return out


def dijkstra_weighted(nbrs: WeightedAdjacency, source: int) -> dict[int, float]:
    """Distance map of :func:`dijkstra` from ``source``, over precomputed
    edge weights (:func:`euclidean_weights`).

    Returns the reachable nodes only, as :func:`dijkstra`'s ``dist`` does.
    Both searches relax ``d(u) + w(u, v)`` with the same weights.  Float
    addition of a non-negative weight is monotone and never decreases
    ``d``, so any correct settle order ends at the minimum over paths of
    the same left-to-right float sums: the distances are bit-identical to
    the reference's, not just close.  Skipping the per-edge coordinate
    reads and ``hypot`` calls is what makes this the faster search.
    """
    dist: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop, push, get = heapq.heappop, heapq.heappush, dist.get
    inf = math.inf
    while heap:
        d, u = pop(heap)
        if u in settled:
            continue
        settled.add(u)
        for v, w in nbrs[u]:
            nd = d + w
            if nd < get(v, inf):
                dist[v] = nd
                push(heap, (nd, v))
    return dist


#: Slack of the bounded search's pruning test, relative on both sides: it
#: covers the rounding of ``d(v)``, of ``‖v t‖`` and of the bound itself.
_PRUNE_SLACK = 1e-9


def dijkstra_to_target(
    nbrs: WeightedAdjacency,
    source: int,
    target: int,
    *,
    coords: tuple[Sequence[float], Sequence[float]] | None = None,
    bound: float | None = None,
) -> float:
    """``d(source, target)`` of :func:`dijkstra_weighted`, bit for bit,
    returned when ``target`` is popped (``inf`` when it is never reached).

    The first pop of ``target`` carries its final distance: every later
    pop is at least as large, and adding a non-negative weight never
    makes a float smaller.

    With ``bound`` (and ``coords = (xs, ys)``, the node coordinates) the
    search drops every relaxation of a node ``v`` whose candidate distance
    ``d`` has ``d + (1 − 1e-9)·‖v t‖ > bound·(1 + 1e-9)``: such a walk
    cannot reach ``target`` within ``bound``.  When ``bound`` is at least
    ``d(source, target)``, no node of the minimising path is dropped (its
    prefix plus the straight line to ``target`` is at most the path's
    length, up to rounding far inside the slack), so the result is the
    same bits.  A ``bound`` below ``d(source, target)`` can only make the
    result ``inf`` or larger than ``bound``; callers check ``d <= bound``
    and otherwise search again without one.
    """
    prune = bound is not None
    if prune:
        if coords is None:
            raise ValueError("a bounded search needs the node coordinates")
        xs, ys = coords
        tx, ty = xs[target], ys[target]
        limit = bound * (1.0 + _PRUNE_SLACK)
        shrink = 1.0 - _PRUNE_SLACK
    dist: dict[int, float] = {source: 0.0}
    settled: set[int] = set()
    heap: list[tuple[float, int]] = [(0.0, source)]
    pop, push, get, hypot = heapq.heappop, heapq.heappush, dist.get, math.hypot
    inf = math.inf
    while heap:
        d, u = pop(heap)
        if u == target:
            return d
        if u in settled:
            continue
        settled.add(u)
        for v, w in nbrs[u]:
            nd = d + w
            if nd < get(v, inf) and (
                not prune or nd + shrink * hypot(xs[v] - tx, ys[v] - ty) <= limit
            ):
                dist[v] = nd
                push(heap, (nd, v))
    return inf


def euclidean_shortest_path(
    points: Sequence[Sequence[float]],
    adj: Adjacency,
    source: int,
    target: int,
) -> tuple[list[int], float]:
    """Shortest Euclidean-weighted path ``source → target``.

    Raises ``ValueError`` when no path exists (the paper assumes UDG(V) is
    connected, so this signals a broken scenario).
    """
    dist, prev = dijkstra(points, adj, source, target)
    if target not in dist:
        raise ValueError(f"no path from {source} to {target}")
    path = [target]
    while path[-1] != source:
        path.append(prev[path[-1]])
    path.reverse()
    return path, dist[target]


def euclidean_shortest_path_length(
    points: Sequence[Sequence[float]],
    adj: Adjacency,
    source: int,
    target: int,
) -> float:
    """The quantity ``d(s, t)`` of §1.2."""
    return euclidean_shortest_path(points, adj, source, target)[1]


def hop_distances(adj: Adjacency, source: int) -> dict[int, int]:
    """BFS hop counts from ``source`` to every reachable node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def k_hop_neighborhood(adj: Adjacency, source: int, k: int) -> set[int]:
    """All nodes within ``k`` hops of ``source`` (including itself).

    This is the reachability set in the k-localized Delaunay property
    (Definition 2.2): a triangle is invalidated only by nodes its corners can
    see within ``k`` hops.
    """
    seen = {source}
    frontier = [source]
    for _ in range(k):
        nxt: list[int] = []
        for u in frontier:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
        if not frontier:
            break
    return seen


def path_edge_lengths(
    points: Sequence[Sequence[float]], path: Iterable[int]
) -> list[float]:
    """Euclidean lengths of consecutive path edges."""
    pts = as_array(points)
    ids = list(path)
    return [distance(pts[a], pts[b]) for a, b in zip(ids, ids[1:])]
