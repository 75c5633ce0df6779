"""Incremental abstraction maintenance under bounded movement (§7).

The paper's §6 recomputes *everything except the overlay tree* after each
movement step and closes §7 by suggesting that with bounded movement speed
"only parts of the Overlay Network have to be recomputed".  This module
implements that suggestion:

* After a movement step, LDel² and the boundary rings are re-derived (both
  O(1)-round stages — they are always cheap).
* Every ring is identified by its **dart signature** (the set of directed
  boundary edges).  A ring whose signature matches the previous epoch's and
  whose members all moved less than ``tolerance`` is **reused**: its hull,
  bays and dominating sets remain valid node-id-wise, and its geometry is
  off by at most ``tolerance`` per point (absorbed by the router's
  replanning, and refreshed for free because artifacts reference node ids,
  not coordinates).
* Only **dirty** rings (changed membership, or members that moved further)
  re-run the O(log k) ring suite — pointer jumping, ranking, hulls, and
  their bay dominating sets.
* If the raw outer boundary ring is dirty, the outer-hole second run
  repeats; otherwise all outer holes are reused wholesale.
* The hull distribution re-broadcasts only the recomputed hulls over the
  (position-independent, reused) overlay tree.

Locally this is realizable with one extra flag per slot: each boundary node
remembers the position it had when its ring's artifacts were computed and
raises a dirty bit — propagated in O(log k) over the stored overlay links —
whenever it has drifted beyond ``tolerance``; we charge those rounds in the
``dirty_check`` stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from collections.abc import Sequence

import numpy as np

from ..core.abstraction import Abstraction, HoleAbstraction
from ..geometry.primitives import as_array, distance
from ..graphs.ldel import LDelGraph
from ..graphs.udg import Adjacency, unit_disk_graph
from ..simulation.metrics import MetricsCollector
from .dominating_set import SegmentMISProcess
from .ldel_construction import LDelConstructionProcess
from .rings import BoundaryDetectionProcess, RingCorner
from .runners import StagePipeline
from .setup import (
    HullStates,
    RankStates,
    SetupResult,
    _bay_specs,
    _bays_from_ds,
    _hull_of_ring,
    _rings_from_rank,
    _run_ring_suite,
    _seed_two_hop_positions,
    _virtual_corners_for_outer_holes,
)

__all__ = ["IncrementalResult", "ring_signature", "run_incremental_update"]

Signature = frozenset[tuple[int, int]]


def ring_signature(boundary: Sequence[int]) -> Signature:
    """Canonical identity of a ring: the set of its darts (node → succ)."""
    b = list(boundary)
    k = len(b)
    return frozenset((b[i], b[(i + 1) % k]) for i in range(k))


@dataclass
class IncrementalResult:
    """Outcome of one incremental update."""

    abstraction: Abstraction
    stage_metrics: dict[str, dict[str, float]]
    metrics: MetricsCollector
    rings_reused: int
    rings_recomputed: int
    outer_reused: bool
    #: dart signatures of the rings each counter refers to (the reused and
    #: the recomputed set)
    reused_signatures: frozenset[Signature] = frozenset()
    recomputed_signatures: frozenset[Signature] = frozenset()

    @property
    def total_rounds(self) -> int:
        return self.metrics.rounds

    def rounds_by_stage(self) -> dict[str, int]:
        """Round counts per executed stage."""
        return {k: int(v["rounds"]) for k, v in self.stage_metrics.items()}


def _group_rings(
    corners: dict[int, list[RingCorner]]
) -> list[list[RingCorner]]:
    """Assemble the corner records into rings by following succ darts."""
    by_slot: dict[tuple[int, int], RingCorner] = {}
    by_arrival: dict[tuple[int, int], RingCorner] = {}
    for rcs in corners.values():
        for rc in rcs:
            by_slot[(rc.node, rc.succ)] = rc
            # successor lookup key: the corner at `node` arriving from `pred`
            by_arrival[(rc.node, rc.pred)] = rc
    rings: list[list[RingCorner]] = []
    seen: set[tuple[int, int]] = set()
    for key, rc in by_slot.items():
        if key in seen:
            continue
        ring = []
        cur = rc
        while True:
            seen.add((cur.node, cur.succ))
            ring.append(cur)
            nxt = by_arrival.get((cur.succ, cur.node))
            if nxt is None:
                break  # broken ring (should not happen on clean instances)
            cur = nxt
            if (cur.node, cur.succ) == key:
                break
        rings.append(ring)
    return rings


def run_incremental_update(
    previous: SetupResult,
    new_points: Sequence[Sequence[float]],
    *,
    tolerance: float = 0.15,
    radius: float = 1.0,
    seed: int = 0,
) -> IncrementalResult:
    """Refresh the abstraction after bounded movement, reusing clean rings.

    ``previous`` must come from :func:`run_distributed_setup` (or an earlier
    incremental update's companion setup) **on the same node id space** —
    incremental updates track movement, not churn.
    """
    prev_abst = previous.abstraction
    prev_pts = prev_abst.points
    pts = as_array(new_points)
    if len(pts) != len(prev_pts):
        raise ValueError("incremental update requires an unchanged node set")

    udg = unit_disk_graph(pts, radius=radius)
    pipe = StagePipeline(pts, udg, radius=radius)

    # -- LDel² + boundary detection (always, both O(1) rounds) ----------------
    res_ldel = pipe.run(
        "ldel", LDelConstructionProcess, lambda nid: {"radius": radius}, 50
    )
    adjacency: Adjacency = {
        nid: sorted(p.ldel_neighbors) for nid, p in res_ldel.nodes.items()
    }
    graph = LDelGraph(
        points=pts,
        udg=udg,
        adjacency=adjacency,
        triangles=sorted(
            {tri for p in res_ldel.nodes.values() for tri in p.accepted}
        ),
        gabriel=set().union(*(p.gabriel for p in res_ldel.nodes.values())),
        k=2,
        radius=radius,
    )
    res_bd = pipe.run(
        "boundary",
        BoundaryDetectionProcess,
        lambda nid: {"ldel_neighbors": graph.adjacency.get(nid, [])},
        20,
    )
    _seed_two_hop_positions(res_bd.nodes, graph)
    for proc in res_bd.nodes.values():
        proc.corners = []
        proc._detect()  # type: ignore[attr-defined]
    corners = {nid: proc.corners for nid, proc in res_bd.nodes.items()}

    # -- dirty analysis --------------------------------------------------------
    displacement = np.sqrt(((pts - prev_pts) ** 2).sum(axis=1))
    prev_inner = {
        ring_signature(h.boundary): h
        for h in prev_abst.holes
        if not h.is_outer
    }
    prev_outer_sig = (
        ring_signature(prev_abst.outer_boundary)
        if prev_abst.outer_boundary
        else None
    )

    rings = _group_rings(corners)
    dirty_corners: dict[int, list[RingCorner]] = {}
    reused_holes: list[HoleAbstraction] = []
    reused = recomputed = 0
    reused_sigs: set[Signature] = set()
    recomputed_sigs: set[Signature] = set()
    outer_ring: list[RingCorner] | None = None
    outer_dirty = True
    for ring in rings:
        sig = ring_signature([rc.node for rc in ring])
        moved = max(displacement[rc.node] for rc in ring)
        if sig == prev_outer_sig:
            outer_ring = ring
            outer_dirty = moved > tolerance
            if outer_dirty:
                recomputed += 1
                recomputed_sigs.add(sig)
            else:
                reused += 1
                reused_sigs.add(sig)
            continue
        prev_hole = prev_inner.get(sig)
        if prev_hole is not None and moved <= tolerance:
            reused += 1
            reused_sigs.add(sig)
            reused_holes.append(prev_hole)
            continue
        recomputed += 1
        recomputed_sigs.add(sig)
        for rc in ring:
            dirty_corners.setdefault(rc.node, []).append(rc)
    # The one-flag dirty check costs a broadcast over the stored ring links;
    # we charge a nominal O(log k) ≈ 2·log₂(max ring) rounds for it.
    max_ring = max((len(r) for r in rings), default=1)
    check_rounds = max(1, 2 * int(math.ceil(math.log2(max(max_ring, 2)))))
    pipe.metrics.rounds += check_rounds
    pipe.stage_metrics["dirty_check"] = {
        "rounds": check_rounds,
        "adhoc_messages": sum(len(r) for r in rings),
        "long_range_messages": 0,
        "total_words": sum(len(r) for r in rings),
        "max_work_per_node": 1,
        "max_words_per_node": 1,
        "max_node_round_messages": 1,
    }

    if outer_dirty and outer_ring is not None:
        for rc in outer_ring:
            dirty_corners.setdefault(rc.node, []).append(rc)

    # -- ring suite on dirty rings only -----------------------------------------
    new_holes: list[HoleAbstraction] = []
    outer_holes: list[HoleAbstraction] = []
    if dirty_corners:
        doubling, ranking, hulls = _run_ring_suite(pipe, dirty_corners, "ring")
        if outer_dirty:
            virtual = _virtual_corners_for_outer_holes(pts, ranking, hulls, radius)
            if any(virtual.values()):
                _, v_ranking, v_hulls = _run_ring_suite(pipe, virtual, "outer")
            else:
                v_ranking, v_hulls = {}, {}
        else:
            v_ranking, v_hulls = {}, {}

        specs = _bay_specs(ranking, hulls, kind=0)
        for nid, lst in _bay_specs(v_ranking, v_hulls, kind=1).items():
            specs.setdefault(nid, []).extend(lst)
        ds_members: dict[tuple, set[int]] = {}
        if any(specs.values()):
            res_mis = pipe.run(
                "dominating_set",
                SegmentMISProcess,
                lambda nid: {"specs": specs.get(nid, []), "seed": seed},
                2000,
            )
            for nid, proc in res_mis.nodes.items():
                for key, st in proc.slots.items():
                    if st.status == 1:
                        ds_members.setdefault(tuple(key[1:]), set()).add(nid)

        new_holes, outer_holes = _collect_holes(
            ranking, hulls, v_ranking, v_hulls, ds_members, pts, radius
        )

    # -- assembly ------------------------------------------------------------------
    holes: list[HoleAbstraction] = []
    for h in reused_holes + new_holes:
        holes.append(
            HoleAbstraction(
                hole_id=len(holes),
                boundary=list(h.boundary),
                hull=list(h.hull),
                is_outer=False,
                bays=h.bays,
            )
        )
    if outer_dirty:
        for h in outer_holes:
            holes.append(
                HoleAbstraction(
                    hole_id=len(holes),
                    boundary=list(h.boundary),
                    hull=list(h.hull),
                    is_outer=True,
                    closing_edge=h.closing_edge,
                    bays=h.bays,
                )
            )
    else:
        for h in prev_abst.holes:
            if h.is_outer:
                holes.append(
                    HoleAbstraction(
                        hole_id=len(holes),
                        boundary=list(h.boundary),
                        hull=list(h.hull),
                        is_outer=True,
                        closing_edge=h.closing_edge,
                        bays=h.bays,
                    )
                )

    outer_boundary = (
        [rc.node for rc in outer_ring] if outer_ring else list(prev_abst.outer_boundary)
    )
    abstraction = Abstraction(
        graph=graph,
        holes=holes,
        tree_parent=previous.tree_parent,
        outer_boundary=outer_boundary,
    )
    return IncrementalResult(
        abstraction=abstraction,
        stage_metrics=pipe.stage_metrics,
        metrics=pipe.metrics,
        rings_reused=reused,
        rings_recomputed=recomputed,
        outer_reused=not outer_dirty,
        reused_signatures=frozenset(reused_sigs),
        recomputed_signatures=frozenset(recomputed_sigs),
    )


def _collect_holes(
    ranking: RankStates,
    hulls: HullStates,
    v_ranking: RankStates,
    v_hulls: HullStates,
    ds_members: dict[tuple, set[int]],
    pts: np.ndarray,
    radius: float,
) -> tuple[list[HoleAbstraction], list[HoleAbstraction]]:
    """Assemble recomputed rings into hole abstractions (setup.py logic)."""
    inner: list[HoleAbstraction] = []
    outer: list[HoleAbstraction] = []
    rings = _rings_from_rank(ranking)
    for ring_token, by_pos in sorted(rings.items()):
        size = len(by_pos)
        info = None
        for nid, slots in ranking.items():
            for st in slots.values():
                if st.info and tuple(st.info.ring) == tuple(ring_token):
                    info = st.info
                    break
        if info is None or info.total_angle < 0:
            continue
        boundary = [by_pos[i] for i in range(size)]
        hull = _hull_of_ring(hulls, ring_token)
        hull_ids = [h[0] for h in sorted(hull, key=lambda x: x[3])] if hull else []
        ha = HoleAbstraction(
            hole_id=len(inner), boundary=boundary, hull=hull_ids
        )
        ha.bays = _bays_from_ds(ha, ds_members, ring_token, kind=0)
        inner.append(ha)
    v_rings = _rings_from_rank(v_ranking)
    for ring_token, by_pos in sorted(v_rings.items()):
        size = len(by_pos)
        boundary = [by_pos[i] for i in range(size)]
        hull = _hull_of_ring(v_hulls, ring_token)
        hull_ids = [h[0] for h in sorted(hull, key=lambda x: x[3])] if hull else []
        closing = None
        for i in range(size):
            u, v = by_pos[i], by_pos[(i + 1) % size]
            if distance(pts[u], pts[v]) > radius:
                closing = (min(u, v), max(u, v))
                break
        ha = HoleAbstraction(
            hole_id=len(outer),
            boundary=boundary,
            hull=hull_ids,
            is_outer=True,
            closing_edge=closing,
        )
        ha.bays = _bays_from_ds(ha, ds_members, ring_token, kind=1)
        outer.append(ha)
    return inner, outer
