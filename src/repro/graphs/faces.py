"""Planar face enumeration and radio-hole extraction.

Radio holes are the non-triangular faces of the planar ad hoc topology
(Definition 2.4), plus the "outer holes" carved out of the outer boundary by
long convex-hull edges (Definition 2.5).  This module turns an
:class:`~repro.graphs.ldel.LDelGraph` into an explicit list of
:class:`Hole` objects — the input to both the distributed protocols (§5) and
the routing abstraction (§4).

Face traversal uses the rotation-system convention: the neighbors of every
node are sorted counter-clockwise by angle, and the dart following ``u → v``
is ``v → w`` where ``w`` is the cyclic predecessor of ``u`` around ``v``.
With this convention every bounded face is walked counter-clockwise (its
interior on the left) and the unbounded outer face is walked clockwise, so
the sign of the walk's area identifies it — the same ±360° angle-sum
criterion the distributed hole-detection protocol of §5.4 evaluates.

Two implementations live side by side, as in :mod:`repro.graphs.ldel`:

* :func:`angular_embedding`, :func:`enumerate_faces` and :func:`find_holes`
  — the array path.  The rotation system is one stable sort of all darts by
  ``(source, angle)``; the dart successor is one gather; faces are the
  cycles of that permutation, found by pointer doubling; all face areas are
  one segmented shoelace sum.
* :func:`angular_embedding_reference`, :func:`enumerate_faces_reference`
  and :func:`find_holes_reference` — the per-node sort, per-dart walk and
  per-face :func:`walk_signed_area` loops.  They are the ground truth:
  ``tests/test_fastpath_equivalence.py`` asserts identical output (face
  order, walk start vertices, hole ids, closing edges, outer face).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Sequence
from itertools import chain, islice

import numpy as np

from ..geometry.primitives import as_array, distance
from ..geometry.polygon import BoundingBox, bounding_box, perimeter, signed_area
from ..geometry.convex_hull import convex_hull_indices
from .ldel import LDelGraph
from .udg import Adjacency

__all__ = [
    "Hole",
    "HoleSet",
    "angular_embedding",
    "angular_embedding_reference",
    "enumerate_faces",
    "enumerate_faces_reference",
    "find_holes",
    "find_holes_reference",
    "walk_signed_area",
]

Dart = tuple[int, int]

#: Angle gap (radians) under which two darts of one node are re-scored with
#: ``math.atan2``.  numpy's vectorized ``arctan2`` may differ from libm's by
#: a few ulps (≲1e-15 rad), so only neighbors this close can swap order.
_ANGLE_TIE = 1e-12


def _darts(adj: Adjacency) -> tuple[np.ndarray, np.ndarray]:
    """Darts ``u → v`` as ``(src, dst)`` arrays in enumeration order.

    Nodes ascending, each node's neighbors in ``adj[u]`` order — the order
    in which the reference walk meets them.
    """
    keys = sorted(adj)
    deg = np.fromiter((len(adj[u]) for u in keys), dtype=np.int64, count=len(keys))
    src = np.repeat(np.asarray(keys, dtype=np.int64), deg)
    dst = np.fromiter(
        chain.from_iterable(adj[u] for u in keys), dtype=np.int64, count=len(src)
    )
    return src, dst


def _rotation(pts: np.ndarray, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Dart indices sorted by ``(source, ccw angle)``, ties in dart order.

    ``src`` must be ascending, so each node's darts keep their segment.  The
    order is that of sorting by ``math.atan2`` values: darts whose
    vectorized angle lies within :data:`_ANGLE_TIE` of a neighbor's are
    re-scored with ``math.atan2`` before the final sort.  Any other dart is
    farther than the two functions' disagreement from every dart of its
    node, so its place is the same under either.
    """
    ang = np.arctan2(pts[dst, 1] - pts[src, 1], pts[dst, 0] - pts[src, 0])
    rot = np.lexsort((ang, src))
    close = (np.diff(ang[rot]) <= _ANGLE_TIE) & (src[1:] == src[:-1])
    if close.any():
        near = rot[np.flatnonzero(np.r_[close, False] | np.r_[False, close])]
        ang[near] = [
            math.atan2(pts[v, 1] - pts[u, 1], pts[v, 0] - pts[u, 0])
            for u, v in zip(src[near].tolist(), dst[near].tolist())
        ]
        rot = np.lexsort((ang, src))
    return rot


def _face_walks(
    pts: np.ndarray, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """Faces as dart cycles: ``(order, offsets)``, or ``None`` on repeated darts.

    Face ``i`` is ``order[offsets[i]:offsets[i + 1]]``, its darts in walk
    order.  Faces come out in the order of their lowest dart index and each
    walk starts at that dart — exactly where the reference's scan over the
    darts first meets the face.  A repeated dart (the same ``u → v`` listed
    twice) makes the successor map a non-permutation; callers then defer
    to the reference walk, whose visited-set semantics define that case.
    """
    m = len(src)
    idx = np.arange(m)
    width = int(max(src.max(), dst.max())) + 1
    code = src * width + dst
    by_code = np.argsort(code, kind="stable")
    sorted_code = code[by_code]
    if np.any(sorted_code[1:] == sorted_code[:-1]):
        return None
    # The twins' codes are the same set, so equal ranks pair each dart
    # with its twin.
    twin_code = dst * width + src
    by_twin = np.argsort(twin_code, kind="stable")
    if not np.array_equal(sorted_code, twin_code[by_twin]):
        raise ValueError("adjacency is not symmetric")
    twin = np.empty(m, dtype=np.int64)
    twin[by_twin] = by_code

    # Rotation segments coincide with the dart-order ones: both group darts
    # by their (ascending) source node.
    rot = _rotation(pts, src, dst)
    rpos = np.empty(m, dtype=np.int64)
    rpos[rot] = idx
    first = np.r_[True, src[1:] != src[:-1]]
    seg_start = np.flatnonzero(first)
    seg = np.cumsum(first) - 1
    start = seg_start[seg]
    end = np.r_[seg_start[1:], m][seg]
    # next(u → v) = v → pred_v(u): step back from v → u around v.
    p = rpos[twin]
    nxt = rot[np.where(p > start[p], p - 1, end[p] - 1)]

    # Leader of each face = its lowest dart, by pointer doubling on the
    # running minimum over 1, 2, 4, … successors.  Once a round changes
    # nothing, every window minimum equals its whole cycle's minimum.
    lead, hop = idx, nxt
    while True:
        widened = np.minimum(lead, lead[hop])
        if np.array_equal(widened, lead):
            break
        lead, hop = widened, hop[hop]

    # Rank each dart within its walk: cut every cycle in front of its
    # leader and count the steps to the cut by pointer jumping.
    is_lead = lead == idx
    succ = np.where(is_lead[nxt], idx, nxt)
    to_end = (succ != idx).astype(np.int64)
    while True:
        jumped = succ[succ]
        if np.array_equal(jumped, succ):
            break
        to_end = to_end + to_end[succ]
        succ = jumped
    leaders = np.flatnonzero(is_lead)
    offsets = np.zeros(len(leaders) + 1, dtype=np.int64)
    np.cumsum(to_end[leaders] + 1, out=offsets[1:])
    face = (np.cumsum(is_lead) - 1)[lead]
    order = np.empty(m, dtype=np.int64)
    order[offsets[face + 1] - 1 - to_end] = idx
    return order, offsets


def _outer_face(pts: np.ndarray, verts: np.ndarray, offsets: np.ndarray) -> int:
    """``argmin`` of the face walks' :func:`walk_signed_area`, in one pass.

    All areas are one segmented shoelace sum anchored at each walk's first
    vertex, the same anchoring as :func:`~repro.geometry.polygon.signed_area`.
    Only the summation order differs, so each area is within
    ``err ≈ k·eps·Σ|terms|`` of the reference value.  Faces that could
    still be the reference's minimum under that band are re-scored with
    :func:`walk_signed_area`, so near-ties (congruent components) resolve
    to the same first-minimum face as the reference's ``np.argmin``.
    """
    starts = offsets[:-1]
    lengths = np.diff(offsets)
    face = np.repeat(np.arange(len(lengths)), lengths)
    rel = pts[verts] - pts[verts[starts]][face]
    succ = np.arange(1, len(verts) + 1)
    succ[offsets[1:] - 1] = starts
    x, y = rel[:, 0], rel[:, 1]
    fwd = x * y[succ]
    back = x[succ] * y
    area = 0.5 * (np.add.reduceat(fwd, starts) - np.add.reduceat(back, starts))
    mag = np.add.reduceat(np.abs(fwd) + np.abs(back), starts)
    err = 2.0 * (lengths + 1) * np.finfo(np.float64).eps * (mag + np.abs(area))
    low = int(np.argmin(area))
    tied = np.flatnonzero(area - err <= area[low] + err[low])
    if len(tied) == 1:
        return low
    exact = [
        walk_signed_area(pts, verts[offsets[i] : offsets[i + 1]]) for i in tied
    ]
    return int(tied[int(np.argmin(exact))])


def angular_embedding(
    points: Sequence[Sequence[float]], adj: Adjacency
) -> dict[int, list[int]]:
    """Rotation system: neighbors of each node sorted ccw by angle.

    Equal angles keep their ``adj[u]`` order.  Identical to
    :func:`angular_embedding_reference`.
    """
    src, dst = _darts(adj)
    ccw = iter(dst[_rotation(as_array(points), src, dst)].tolist())
    by_node = {u: list(islice(ccw, len(adj[u]))) for u in sorted(adj)}
    return {u: by_node[u] for u in adj}


def angular_embedding_reference(
    points: Sequence[Sequence[float]], adj: Adjacency
) -> dict[int, list[int]]:
    """Per-node ``math.atan2`` sort; oracle for :func:`angular_embedding`."""
    pts = as_array(points)
    emb: dict[int, list[int]] = {}
    for u, nbrs in adj.items():
        emb[u] = sorted(
            nbrs,
            key=lambda v: math.atan2(pts[v, 1] - pts[u, 1], pts[v, 0] - pts[u, 0]),
        )
    return emb


def enumerate_faces(
    points: Sequence[Sequence[float]], adj: Adjacency
) -> list[list[int]]:
    """All faces of the plane graph as vertex walks.

    Each face is returned as the cyclic list of vertices visited by its dart
    walk (first vertex not repeated at the end).  Bounded faces come out
    counter-clockwise, the outer face clockwise.  Face order and walk start
    vertices are those of :func:`enumerate_faces_reference`.
    """
    src, dst = _darts(adj)
    if len(src) == 0:
        return []
    walks = _face_walks(as_array(points), src, dst)
    if walks is None:
        return enumerate_faces_reference(points, adj)
    order, offsets = walks
    verts = src[order].tolist()
    bounds = offsets.tolist()
    return [verts[a:b] for a, b in zip(bounds, bounds[1:])]


def enumerate_faces_reference(
    points: Sequence[Sequence[float]], adj: Adjacency
) -> list[list[int]]:
    """Dart-by-dart walk with a visited set; oracle for :func:`enumerate_faces`."""
    emb = angular_embedding_reference(points, adj)
    pos_in: dict[int, dict[int, int]] = {
        u: {v: i for i, v in enumerate(nbrs)} for u, nbrs in emb.items()
    }
    visited: set[Dart] = set()
    faces: list[list[int]] = []
    for u in sorted(adj):
        for v in adj[u]:
            if (u, v) in visited:
                continue
            walk: list[int] = []
            a, b = u, v
            while (a, b) not in visited:
                visited.add((a, b))
                walk.append(a)
                nbrs = emb[b]
                idx = pos_in[b][a]
                w = nbrs[(idx - 1) % len(nbrs)]
                a, b = b, w
            faces.append(walk)
    return faces


def walk_signed_area(points: Sequence[Sequence[float]], walk: Sequence[int]) -> float:
    """Signed area of a face walk (positive iff counter-clockwise)."""
    pts = as_array(points)
    return signed_area(pts[walk])


@dataclass
class Hole:
    """A radio hole: a non-triangular face of the ad hoc topology.

    Attributes
    ----------
    hole_id:
        Dense index within the owning :class:`HoleSet`.
    boundary:
        Vertex walk of the face, counter-clockwise (hole interior on the
        left).  For outer holes this includes the two endpoints of the
        closing convex-hull edge.
    is_outer:
        ``True`` for outer holes (Definition 2.5) whose closing edge is a
        convex-hull edge of length > 1 rather than an ad hoc edge.
    closing_edge:
        The ``(u, v)`` hull edge for outer holes, ``None`` for inner holes.
    """

    hole_id: int
    boundary: list[int]
    is_outer: bool = False
    closing_edge: tuple[int, int] | None = None

    def polygon(self, points: np.ndarray) -> np.ndarray:
        """Boundary coordinates as an ``(k, 2)`` polygon."""
        return as_array(points)[self.boundary]

    def perimeter(self, points: np.ndarray) -> float:
        """``P(h)`` of Theorem 1.2."""
        return perimeter(self.polygon(points))

    def bounding_box(self, points: np.ndarray) -> BoundingBox:
        """Axis-aligned bounding box of the boundary (L(c) source)."""
        return bounding_box(self.polygon(points))

    def hull_indices(self, points: np.ndarray) -> list[int]:
        """Node ids of the hole's convex hull corners, ccw."""
        poly = self.polygon(points)
        local = convex_hull_indices(poly)
        return [self.boundary[i] for i in local]

    @property
    def size(self) -> int:
        return len(self.boundary)

    def is_simple(self) -> bool:
        """No repeated vertices in the boundary walk (clean ring)."""
        return len(set(self.boundary)) == len(self.boundary)

    def ring_neighbors(self, node: int) -> tuple[int, int]:
        """Predecessor and successor of ``node`` on the boundary ring."""
        i = self.boundary.index(node)
        k = len(self.boundary)
        return self.boundary[(i - 1) % k], self.boundary[(i + 1) % k]


@dataclass
class HoleSet:
    """All radio holes of an LDel graph plus the outer boundary walk."""

    holes: list[Hole]
    outer_face: list[int]
    points: np.ndarray

    @property
    def inner(self) -> list[Hole]:
        return [h for h in self.holes if not h.is_outer]

    @property
    def outer(self) -> list[Hole]:
        return [h for h in self.holes if h.is_outer]

    def boundary_nodes(self) -> set[int]:
        """Union of all hole-boundary node ids."""
        out: set[int] = set()
        for h in self.holes:
            out.update(h.boundary)
        return out

    def holes_of_node(self) -> dict[int, list[int]]:
        """Map node id → list of hole ids whose boundary contains it."""
        out: dict[int, list[int]] = {}
        for h in self.holes:
            for v in h.boundary:
                out.setdefault(v, []).append(h.hole_id)
        return out

    def obstacles(self) -> list[np.ndarray]:
        """Hole polygons usable as visibility obstacles."""
        return [h.polygon(self.points) for h in self.holes]

    def hull_polygons(self) -> list[np.ndarray]:
        """Convex hulls of all holes (the §4 abstraction), ccw polygons."""
        return [
            self.points[h.hull_indices(self.points)] for h in self.holes
        ]


def _added_hull_edges(graph: LDelGraph) -> list[tuple[int, int]]:
    """Convex-hull edges of the node set that close outer holes (Def. 2.5).

    Hull edges of length > radius that are not ad hoc edges, normalized
    ``(min, max)``, in hull order.
    """
    pts = graph.points
    hull_ids = convex_hull_indices(pts)
    hull_edges: list[tuple[int, int]] = []
    for a, b in zip(hull_ids, hull_ids[1:] + hull_ids[:1]):
        if a == b:
            continue
        e = (a, b) if a < b else (b, a)
        hull_edges.append(e)
    return [
        e
        for e in hull_edges
        if not graph.has_edge(*e) and distance(pts[e[0]], pts[e[1]]) > graph.radius
    ]


def find_holes(
    graph: LDelGraph, *, min_inner_size: int = 4
) -> HoleSet:
    """Extract all radio holes of an LDel graph.

    Inner holes are bounded faces with at least ``min_inner_size`` nodes
    (Definition 2.4).  Outer holes arise from Definition 2.5: the convex hull
    edges of the *entire* node set are added to the graph; any face of the
    augmented graph that contains an added hull edge of length > radius and
    has ≥ 3 nodes is an outer hole.

    Array path: both face sets (plain and hull-augmented) come from
    :func:`_face_walks` and their outer faces from :func:`_outer_face`; only
    the few candidate holes are materialized as Python lists.  The result
    equals :func:`find_holes_reference`, hole ids and walk start vertices
    included.
    """
    pts = graph.points
    arr = as_array(pts)
    src, dst = _darts(graph.adjacency)
    if len(src) == 0:
        return HoleSet(holes=[], outer_face=[], points=pts)
    added = _added_hull_edges(graph)
    walks = _face_walks(arr, src, dst)
    aug = None
    if added:
        ends = np.asarray(added, dtype=np.int64)
        aug_src = np.concatenate([src, ends[:, 0], ends[:, 1]])
        aug_dst = np.concatenate([dst, ends[:, 1], ends[:, 0]])
        # The reference sorts every augmented neighbor list, so augmented
        # darts enumerate in (source, target) order.
        by_dart = np.lexsort((aug_dst, aug_src))
        aug_src, aug_dst = aug_src[by_dart], aug_dst[by_dart]
        aug = _face_walks(arr, aug_src, aug_dst)
    if walks is None or (added and aug is None):
        return find_holes_reference(graph, min_inner_size=min_inner_size)

    order, offsets = walks
    verts = src[order]
    outer_idx = _outer_face(arr, verts, offsets)

    holes: list[Hole] = []
    for i in np.flatnonzero(np.diff(offsets) >= min_inner_size).tolist():
        walk = verts[offsets[i] : offsets[i + 1]].tolist()
        if i != outer_idx and len(set(walk)) >= min_inner_size:
            holes.append(Hole(hole_id=len(holes), boundary=walk))

    # --- Outer holes (Definition 2.5) -------------------------------------
    if aug is not None:
        aug_order, aug_offsets = aug
        aug_verts = aug_src[aug_order]
        aug_outer = _outer_face(arr, aug_verts, aug_offsets)
        # Each face's closing edge is its first added dart in walk order.
        on_added = np.flatnonzero(by_dart[aug_order] >= len(src))
        face_of = np.searchsorted(aug_offsets, on_added, side="right") - 1
        closed, first = np.unique(face_of, return_index=True)
        for i, d in zip(closed.tolist(), aug_order[on_added[first]].tolist()):
            walk = aug_verts[aug_offsets[i] : aug_offsets[i + 1]].tolist()
            if i == aug_outer or len(set(walk)) < 3:
                continue
            u, v = int(aug_src[d]), int(aug_dst[d])
            holes.append(
                Hole(
                    hole_id=len(holes),
                    boundary=walk,
                    is_outer=True,
                    closing_edge=(u, v) if u < v else (v, u),
                )
            )

    outer_walk = verts[offsets[outer_idx] : offsets[outer_idx + 1]].tolist()
    return HoleSet(holes=holes, outer_face=outer_walk, points=pts)


def find_holes_reference(
    graph: LDelGraph, *, min_inner_size: int = 4
) -> HoleSet:
    """Per-face loop oracle for :func:`find_holes`.

    Enumerates both face sets with :func:`enumerate_faces_reference` and
    scores every face with :func:`walk_signed_area`.
    """
    pts = graph.points

    faces = enumerate_faces_reference(pts, graph.adjacency)
    areas = [walk_signed_area(pts, w) for w in faces]
    if not faces:
        return HoleSet(holes=[], outer_face=[], points=pts)
    outer_idx = int(np.argmin(areas))

    holes: list[Hole] = []
    for i, walk in enumerate(faces):
        if i == outer_idx:
            continue
        if len(set(walk)) >= min_inner_size:
            holes.append(Hole(hole_id=len(holes), boundary=walk))

    # --- Outer holes (Definition 2.5) -------------------------------------
    added = _added_hull_edges(graph)
    if added:
        aug: Adjacency = {u: list(v) for u, v in graph.adjacency.items()}
        for a, b in added:
            aug[a].append(b)
            aug[b].append(a)
        for lst in aug.values():
            lst.sort()
        aug_faces = enumerate_faces_reference(pts, aug)
        aug_areas = [walk_signed_area(pts, w) for w in aug_faces]
        aug_outer = int(np.argmin(aug_areas))
        added_set = set(added)
        for i, walk in enumerate(aug_faces):
            if i == aug_outer or len(set(walk)) < 3:
                continue
            closing: tuple[int, int] | None = None
            k = len(walk)
            for j in range(k):
                e = (walk[j], walk[(j + 1) % k])
                e = e if e[0] < e[1] else (e[1], e[0])
                if e in added_set:
                    closing = e
                    break
            if closing is not None:
                holes.append(
                    Hole(
                        hole_id=len(holes),
                        boundary=walk,
                        is_outer=True,
                        closing_edge=closing,
                    )
                )

    outer_walk = faces[outer_idx]
    return HoleSet(holes=holes, outer_face=outer_walk, points=pts)
