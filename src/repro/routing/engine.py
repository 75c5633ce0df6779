"""Batched multi-query routing engine with memoized abstraction state.

:class:`HybridRouter` answers one query well but rebuilds nothing across
queries is amortized: every evaluation run (benchmarks E1/E7, the CLI, the
protocol runners) re-derives bay classifications, re-filters bay visibility
legs, and re-runs the optimal-distance Dijkstra from scratch for each
strategy.  :class:`QueryEngine` is the query-serving layer on top of the
router that owns all reusable state:

* **routers** — one memoized :class:`HybridRouter` per mode, sharing the
  structures below instead of re-deriving them per construction;
* **locate memo** — §4.3 bay classification per node (``locate_node`` is a
  geometric containment walk; terminals repeat across a workload);
* **bay structures** — ``bay_structures_for_hole`` computed once per hole
  and cached under the hole's **content digest**, so router rebuilds after
  a rebind re-derive only the changed holes' bays;
* **Dijkstra LRU** — per-source optimal-distance maps over the reference
  UDG, shared across strategies in a competitiveness run.

The engine keeps no cache of completed routes: ``route_many`` collapses
duplicate pairs within a batch, and the service worker's payload LRU
(:mod:`repro.service.batching`) answers repeats across requests.

Invalidation is by content digest, at two granularities.  Every query entry
point re-hashes the abstraction and, when it changed (mobility scenarios
mutate coordinates in place), runs an invalidation pass; ``rebind`` covers
wholesale abstraction swaps.  With ``scoped_invalidation`` (the default)
the pass diffs the **per-hole** content digests
(:func:`repro.core.abstraction.hole_content_digest`) instead of dropping
everything: entries belonging to unchanged holes survive, entries of dirty
holes are evicted, and caches with cross-hole dependencies are
conservatively flushed (see ``docs/dynamic_serving.md`` for the validity
argument cache by cache).  This is the serving-layer counterpart of the
paper's dynamic claim: after a movement step only the affected holes'
state is recomputed, so a query stream keeps hitting warm caches while the
topology churns.

**Determinism contract.**  Cached answers are the *same objects* a cold
router would produce — the caches only skip recomputation, never change it.
Scoped invalidation keeps an entry only when a conservative sufficient
condition proves a cold router would reproduce it; when in doubt it evicts.
With ``caching=False`` the engine degrades to a plain per-mode
:class:`HybridRouter` built with default arguments: no cache is consulted,
no cache counters move, and no trace events are emitted, so golden traces
and route paths are byte-identical to the pre-engine baseline.  Cache
telemetry (``engine_query`` / ``engine_invalidate`` events, MetricsCollector
cache counters) exists only on the caching path.

With caching on, :meth:`QueryEngine.route_many` returns one shared
:class:`RouteOutcome` for every duplicate of a pair — treat outcomes as
read-only.

**Concurrency contract.**  The engine is single-owner: its caches are
plain dicts and an ``OrderedDict`` LRU mutated on every query, so exactly one
task or thread may execute queries/invalidations at a time.  The service
layer (:mod:`repro.service`) enforces this by running one worker task per
engine with a queue in front.  The only state safe to read from another
thread is :class:`EngineStats` *via* :meth:`EngineStats.snapshot` (or
:meth:`EngineStats.summary`, which aggregates over a snapshot) — never by
iterating the live counter dicts while ``record()`` may run.
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..core.abstraction import Abstraction, hole_content_digest
from ..graphs.shortest_paths import dijkstra
from ..graphs.udg import Adjacency
from .bay_routing import BayLocation, bay_structures_for_hole, locate_node
from .router import HybridRouter, RouteOutcome

__all__ = ["QueryEngine", "EngineStats", "abstraction_digest"]

Box = tuple[float, float, float, float]

#: Padding added to every dirty-region bounding box before survival tests.
#: Swallows the EPS tolerance band of the geometric predicates so a point
#: or segment that a predicate would treat as touching a dirty feature can
#: never be classified as safely outside its box.
_BOX_PAD = 1e-6

#: LRU bound of the per-source optimal-distance maps.
DIJKSTRA_CACHE_SIZE = 64


def abstraction_digest(abstraction: Abstraction) -> str:
    """Content digest of everything routing behaviour depends on.

    Covers the node coordinates (mobility mutates these in place) and the
    per-hole structure (boundary ring, hull, outer flag).  Two abstractions
    with equal digests produce identical routes for every query, so the
    digest is the top-level invalidation key for every engine cache.
    """
    h = hashlib.sha1()
    pts = np.ascontiguousarray(abstraction.points, dtype=float)
    h.update(pts.tobytes())
    for hole in abstraction.holes:
        h.update(
            repr(
                (
                    hole.hole_id,
                    tuple(hole.boundary),
                    tuple(hole.hull),
                    hole.is_outer,
                )
            ).encode()
        )
    return h.hexdigest()


def _bbox_of(coords: np.ndarray) -> Box:
    return (
        float(coords[:, 0].min()),
        float(coords[:, 1].min()),
        float(coords[:, 0].max()),
        float(coords[:, 1].max()),
    )


def _pad_box(box: Box, pad: float) -> Box:
    return (box[0] - pad, box[1] - pad, box[2] + pad, box[3] + pad)


def _point_in_any_box(p: np.ndarray, boxes: Sequence[Box]) -> bool:
    x, y = float(p[0]), float(p[1])
    return any(
        x0 <= x <= x1 and y0 <= y <= y1 for x0, y0, x1, y1 in boxes
    )


@dataclass(frozen=True)
class _HoleRecord:
    """Per-hole bind-time snapshot the scoped differ works from."""

    hole_id: int
    digest: str
    members: frozenset[int]
    bbox: Box


@dataclass
class EngineStats:
    """Counters the engine maintains regardless of a MetricsCollector."""

    queries: int = 0
    batch_queries: int = 0
    invalidations: int = 0
    scoped_invalidations: int = 0
    full_invalidations: int = 0
    #: cache name -> {"hits": int, "misses": int}
    cache: dict[str, dict[str, int]] = field(default_factory=dict)
    #: cache name -> {"survived": int, "evicted": int}, accumulated over
    #: every invalidation pass (full flushes evict everything)
    flush: dict[str, dict[str, int]] = field(default_factory=dict)
    #: description of the most recent invalidation: ``reason``, ``scope``
    #: ("scoped" | "full"), ``dirty_holes``, and the per-cache
    #: survived/evicted counts of that single pass
    last_flush: dict[str, Any] | None = None

    def record(self, cache: str, hit: bool) -> None:
        """Count one lookup against the named cache."""
        row = self.cache.setdefault(cache, {"hits": 0, "misses": 0})
        row["hits" if hit else "misses"] += 1

    def hit_rate(self, cache: str) -> float:
        """Fraction of lookups served from the named cache (0.0 if unused)."""
        row = self.cache.get(cache, {"hits": 0, "misses": 0})
        total = row["hits"] + row["misses"]
        return row["hits"] / total if total else 0.0

    def record_flush(self, cache: str, survived: int, evicted: int) -> None:
        """Accumulate one invalidation pass's outcome for the named cache."""
        row = self.flush.setdefault(cache, {"survived": 0, "evicted": 0})
        row["survived"] += survived
        row["evicted"] += evicted

    def survival_rate(self, cache: str) -> float:
        """Fraction of entries that survived invalidations (0.0 if none)."""
        row = self.flush.get(cache, {"survived": 0, "evicted": 0})
        total = row["survived"] + row["evicted"]
        return row["survived"] / total if total else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time copy of every counter, safe to hand across tasks.

        The service's ``/metrics`` endpoint reads stats while the engine's
        worker may be mid-``record()``; iterating the live dicts from
        another task risks ``RuntimeError: dictionary changed size during
        iteration`` and torn hit/miss rows.  All cross-task reads therefore
        go through this method: the item lists are materialized first
        (atomic under the GIL), then every row is copied, so the returned
        structure is fully decoupled from the live counters.  Aggregation
        (:meth:`summary`) runs on the snapshot, never on live state.
        """
        last = self.last_flush
        if last is not None:
            last = dict(last)
            last["caches"] = {
                name: dict(row)
                for name, row in list(last.get("caches", {}).items())
            }
        return {
            "queries": self.queries,
            "batch_queries": self.batch_queries,
            "invalidations": self.invalidations,
            "scoped_invalidations": self.scoped_invalidations,
            "full_invalidations": self.full_invalidations,
            "cache": {
                name: dict(row) for name, row in list(self.cache.items())
            },
            "flush": {
                name: dict(row) for name, row in list(self.flush.items())
            },
            "last_flush": last,
        }

    def summary(self) -> dict[str, float]:
        """Flat dict for tables/benches (aggregated over a snapshot)."""
        snap = self.snapshot()
        out: dict[str, float] = {
            "queries": snap["queries"],
            "batch_queries": snap["batch_queries"],
            "invalidations": snap["invalidations"],
            "scoped_invalidations": snap["scoped_invalidations"],
            "full_invalidations": snap["full_invalidations"],
        }
        for name, row in sorted(snap["cache"].items()):
            total = row["hits"] + row["misses"]
            out[f"{name}_hits"] = row["hits"]
            out[f"{name}_misses"] = row["misses"]
            out[f"{name}_hit_rate"] = row["hits"] / total if total else 0.0
        for name, frow in sorted(snap["flush"].items()):
            total = frow["survived"] + frow["evicted"]
            out[f"{name}_survived"] = frow["survived"]
            out[f"{name}_evicted"] = frow["evicted"]
            out[f"{name}_survival_rate"] = (
                frow["survived"] / total if total else 0.0
            )
        return out


class QueryEngine:
    """Multi-query routing facade over one hole abstraction.

    Parameters
    ----------
    abstraction:
        The hole abstraction to serve queries against.
    mode:
        Default router mode for :meth:`route` / :meth:`route_many`
        (any :class:`HybridRouter` mode; per-call override supported).
    udg:
        Adjacency of the reference metric graph for :meth:`optimal`
        (the paper's UDG).  Defaults to the abstraction's own LDel
        adjacency — pass the true UDG when measuring competitiveness.
    caching:
        ``False`` turns the engine into a thin facade over plain
        per-mode routers (see the determinism contract above).
    scoped_invalidation:
        ``True`` (default) diffs per-hole content digests on every
        invalidation and keeps entries the diff proves still valid;
        ``False`` restores whole-cache flushes on any change.
    max_replans:
        Forwarded to every :class:`HybridRouter`.
    metrics:
        Optional :class:`~repro.simulation.metrics.MetricsCollector`;
        receives ``record_cache_event`` calls for every cache lookup.
    trace:
        Optional :class:`~repro.simulation.tracing.TraceRecorder`;
        receives ``engine_query`` / ``engine_invalidate`` events.
    """

    def __init__(
        self,
        abstraction: Abstraction,
        mode: str = "hull",
        *,
        udg: Adjacency | None = None,
        caching: bool = True,
        scoped_invalidation: bool = True,
        max_replans: int = 4,
        metrics=None,
        trace=None,
    ) -> None:
        if mode not in ("hull", "visibility", "delaunay"):
            raise ValueError(f"unknown router mode {mode!r}")
        self.abstraction = abstraction
        self.mode = mode
        self.udg: Adjacency = (
            udg if udg is not None else abstraction.graph.adjacency
        )
        self.caching = caching
        self.scoped_invalidation = scoped_invalidation
        self.max_replans = max_replans
        self.metrics = metrics
        self.trace = trace
        self.stats = EngineStats()

        self._routers: dict[str, HybridRouter] = {}
        self._locate_memo: dict[int, BayLocation | None] = {}
        #: hole content digest -> per-hole (groups, arc_edges) keyed by
        #: bay index (see :func:`bay_structures_for_hole`)
        self._bay_struct_cache: dict[str, tuple[dict, dict]] = {}
        self._dijkstra_lru: "OrderedDict[int, dict[int, float]]" = OrderedDict()
        self._bind(abstraction)

    # -- telemetry -----------------------------------------------------------
    def _record(self, cache: str, hit: bool) -> None:
        """One cache lookup: engine stats plus the optional collector."""
        self.stats.record(cache, hit)
        if self.metrics is not None:
            self.metrics.record_cache_event(cache, hit)

    # -- bind state ----------------------------------------------------------
    def _bind(
        self,
        abstraction: Abstraction,
        records: list[_HoleRecord] | None = None,
        points: np.ndarray | None = None,
    ) -> None:
        """Snapshot the abstraction state the caches are valid for."""
        self._digest = abstraction_digest(abstraction)
        self._bound_points = (
            np.array(abstraction.points, dtype=float, copy=True)
            if points is None
            else points
        )
        self._hole_records = (
            self._snapshot_holes(abstraction, self._bound_points)
            if records is None
            else records
        )
        self._hole_digest_by_id = {
            r.hole_id: r.digest for r in self._hole_records
        }

    @staticmethod
    def _snapshot_holes(
        abstraction: Abstraction, pts: np.ndarray
    ) -> list[_HoleRecord]:
        records: list[_HoleRecord] = []
        for hole in abstraction.holes:
            members = hole.member_nodes()
            if not members:
                continue
            records.append(
                _HoleRecord(
                    hole_id=hole.hole_id,
                    digest=hole_content_digest(hole, pts),
                    members=frozenset(members),
                    bbox=_bbox_of(pts[members]),
                )
            )
        return records

    # -- invalidation --------------------------------------------------------
    def _check_current(self) -> None:
        """Invalidate when the abstraction content changed in place."""
        digest = abstraction_digest(self.abstraction)
        if digest != self._digest:
            self._invalidate("content_changed", self.abstraction, self.udg)

    def rebind(
        self,
        abstraction: Abstraction,
        *,
        udg: Adjacency | None = None,
        scope: str = "auto",
    ) -> None:
        """Swap in a rebuilt abstraction (post-mobility re-setup).

        ``scope="auto"`` (default) runs the scoped differ when the node set
        is unchanged and ``scoped_invalidation`` is on; ``scope="full"``
        forces a whole-cache flush.  ``udg`` optionally carries the true
        unit-disk adjacency of the new placement (for ``optimal()``
        ground-truth shortest paths); when omitted the abstraction's own
        graph adjacency is used, matching the original behaviour.
        """
        if scope not in ("auto", "full"):
            raise ValueError(f"unknown rebind scope {scope!r}")
        self._invalidate(
            "rebind",
            abstraction,
            abstraction.graph.adjacency if udg is None else udg,
            force_full=scope == "full",
        )

    def rebind_incremental(self, result) -> dict[str, Any] | None:
        """Scoped rebind from an incremental update (§7 bridge).

        ``result`` is the
        :class:`~repro.protocols.incremental.IncrementalResult` of a
        movement step: its abstraction is swapped in via :meth:`rebind`
        (the per-hole digest diff independently rediscovers the dirty
        rings the incremental protocol recomputed — rings the protocol
        *reused* but whose members drifted within tolerance count as
        dirty here, because the engine's caches are exact, not
        tolerance-absorbed).  Returns :attr:`EngineStats.last_flush`.
        """
        self.rebind(result.abstraction)
        return self.stats.last_flush

    def _invalidate(
        self,
        reason: str,
        new_abstraction: Abstraction,
        new_udg: Adjacency,
        *,
        force_full: bool = False,
    ) -> None:
        old_digest = self._digest
        new_pts = np.asarray(new_abstraction.points, dtype=float)
        scoped_ok = (
            self.scoped_invalidation
            and not force_full
            and new_pts.shape == self._bound_points.shape
        )
        if scoped_ok:
            detail, dirty = self._flush_scoped(new_abstraction, new_pts, new_udg)
            scope = "scoped"
        else:
            detail = self._flush_full()
            dirty = len(new_abstraction.holes)
            scope = "full"
        self._routers.clear()
        self.stats.invalidations += 1
        if scope == "scoped":
            self.stats.scoped_invalidations += 1
        else:
            self.stats.full_invalidations += 1
        for cache, row in detail.items():
            self.stats.record_flush(cache, row["survived"], row["evicted"])
        self.abstraction = new_abstraction
        self.udg = new_udg
        self._bind(new_abstraction, points=new_pts.copy())
        self.stats.last_flush = {
            "reason": reason,
            "scope": scope,
            "dirty_holes": dirty,
            "caches": detail,
        }
        if self.caching and self.trace is not None:
            self.trace.emit(
                "engine_invalidate",
                reason=reason,
                scope=scope,
                old_digest=old_digest,
                new_digest=self._digest,
                dirty_holes=dirty,
                survived=sum(r["survived"] for r in detail.values()),
                evicted=sum(r["evicted"] for r in detail.values()),
            )

    def _flush_full(self) -> dict[str, dict[str, int]]:
        """Drop every cache; returns the per-cache eviction counts."""
        detail = {
            "locate": {"survived": 0, "evicted": len(self._locate_memo)},
            "bay_structs": {
                "survived": 0,
                "evicted": len(self._bay_struct_cache),
            },
            "dijkstra": {"survived": 0, "evicted": len(self._dijkstra_lru)},
        }
        self._locate_memo.clear()
        self._bay_struct_cache.clear()
        self._dijkstra_lru.clear()
        return detail

    def _flush_scoped(
        self,
        new_abst: Abstraction,
        new_pts: np.ndarray,
        new_udg: Adjacency,
    ) -> tuple[dict[str, dict[str, int]], int]:
        """Per-hole digest diff: evict only what the change can reach.

        The validity argument for each cache is in
        ``docs/dynamic_serving.md``; in short, an entry survives only when
        a conservative geometric condition proves a cold recomputation
        would reproduce it byte-for-byte.
        """
        old_pts = self._bound_points
        moved = (old_pts != new_pts).any(axis=1)
        moved_idx = np.nonzero(moved)[0]
        new_records = self._snapshot_holes(new_abst, new_pts)
        old_by_digest = {r.digest: r for r in self._hole_records}
        new_by_digest = {r.digest: r for r in new_records}
        clean_digests = set(old_by_digest) & set(new_by_digest)
        id_map = {
            old_by_digest[d].hole_id: new_by_digest[d].hole_id
            for d in clean_digests
        }
        dirty_old = [r for r in self._hole_records if r.digest not in clean_digests]
        dirty_new = [r for r in new_records if r.digest not in clean_digests]
        dirty_members: set[int] = set()
        for rec in dirty_old + dirty_new:
            dirty_members.update(rec.members)
        dirty_boxes = [
            _pad_box(r.bbox, _BOX_PAD) for r in dirty_old + dirty_new
        ]
        detail: dict[str, dict[str, int]] = {}

        # Locate memo: a classification survives when the node is unmoved,
        # is not a member of any changed hole, sits outside every dirty
        # region (so no changed hull can newly capture it nor did one
        # previously), and — for non-None results — its hole is clean.
        # Surviving hole ids are remapped through the digest match.
        kept_locate: dict[int, BayLocation | None] = {}
        for node, loc in self._locate_memo.items():
            if (
                moved[node]
                or node in dirty_members
                or _point_in_any_box(new_pts[node], dirty_boxes)
            ):
                continue
            if loc is None:
                kept_locate[node] = None
            elif loc.hole_id in id_map:
                kept_locate[node] = BayLocation(
                    hole_id=id_map[loc.hole_id], bay_index=loc.bay_index
                )
        detail["locate"] = {
            "survived": len(kept_locate),
            "evicted": len(self._locate_memo) - len(kept_locate),
        }
        self._locate_memo = kept_locate

        # Bay structures: purely per-hole (arc membership + member
        # coordinates, both covered by the digest), so clean digests keep
        # their entries verbatim.
        kept_structs = {
            d: v for d, v in self._bay_struct_cache.items() if d in clean_digests
        }
        detail["bay_structs"] = {
            "survived": len(kept_structs),
            "evicted": len(self._bay_struct_cache) - len(kept_structs),
        }
        self._bay_struct_cache = kept_structs

        # Dijkstra distance maps cover every node of the UDG, so any
        # coordinate or adjacency change can perturb them; they survive
        # only a structure-only rebind that left the metric graph intact.
        udg_same = moved_idx.size == 0 and (
            new_udg is self.udg or new_udg == self.udg
        )
        if udg_same:
            detail["dijkstra"] = {
                "survived": len(self._dijkstra_lru),
                "evicted": 0,
            }
        else:
            detail["dijkstra"] = {
                "survived": 0,
                "evicted": len(self._dijkstra_lru),
            }
            self._dijkstra_lru.clear()

        return detail, len(dirty_new)

    @property
    def digest(self) -> str:
        """Digest of the abstraction state the caches are valid for."""
        return self._digest

    @property
    def hole_digests(self) -> dict[int, str]:
        """Per-hole content digests of the bound abstraction (by hole id)."""
        return dict(self._hole_digest_by_id)

    # -- memoized components -------------------------------------------------
    def _locate(self, node: int) -> BayLocation | None:
        """Memoized §4.3 bay classification (injected into routers)."""
        if node in self._locate_memo:
            self._record("locate", True)
            return self._locate_memo[node]
        self._record("locate", False)
        loc = locate_node(self.abstraction, node)
        self._locate_memo[node] = loc
        return loc

    def _get_bay_structs(self) -> tuple[dict, dict]:
        """Merged (groups, arc_edges) over all holes, per-hole memoized."""
        groups: dict[tuple[int, int], list[int]] = {}
        arcs: dict[tuple[int, int], list] = {}
        for hole in self.abstraction.holes:
            dg = self._hole_digest_by_id.get(hole.hole_id)
            if dg is None:
                entry = bay_structures_for_hole(self.abstraction, hole)
            else:
                entry = self._bay_struct_cache.get(dg)
                self._record("bay_structs", entry is not None)
                if entry is None:
                    entry = bay_structures_for_hole(self.abstraction, hole)
                    self._bay_struct_cache[dg] = entry
            for idx, sel in entry[0].items():
                groups[(hole.hole_id, idx)] = sel
            for idx, edges in entry[1].items():
                arcs[(hole.hole_id, idx)] = edges
        return groups, arcs

    def _router(self, mode: str) -> HybridRouter:
        router = self._routers.get(mode)
        if router is not None:
            if self.caching:
                self._record("router", True)
            return router
        if not self.caching:
            router = HybridRouter(self.abstraction, mode, self.max_replans)
        else:
            self._record("router", False)
            router = HybridRouter(
                self.abstraction,
                mode,
                self.max_replans,
                locator=self._locate,
                bay_structures=(
                    self._get_bay_structs() if mode == "hull" else None
                ),
            )
        self._routers[mode] = router
        return router

    # -- queries -------------------------------------------------------------
    def route(self, s: int, t: int, mode: str | None = None) -> RouteOutcome:
        """Route one query, re-using every applicable cache."""
        mode = self.mode if mode is None else mode
        self._check_current()
        if not self.caching:
            return self._router(mode).route(s, t)
        outcome = self._router(mode).route(int(s), int(t))
        self.stats.queries += 1
        if self.trace is not None:
            self.trace.emit(
                "engine_query", mode=mode, source=int(s), target=int(t)
            )
        return outcome

    def route_many(
        self,
        pairs: Sequence[tuple[int, int]],
        mode: str | None = None,
    ) -> list[RouteOutcome]:
        """Route a batch, returning outcomes in input order.

        Distinct pairs are processed sorted by ``(source, target)`` so
        queries sharing a source (and their bay activations) run
        back-to-back against warm caches; duplicates are routed once and
        share one outcome.  With caching disabled every query routes
        individually — batching must not smuggle memoization into the
        baseline path.
        """
        mode = self.mode if mode is None else mode
        keyed = [(int(s), int(t)) for s, t in pairs]
        self.stats.batch_queries += len(keyed)
        if not self.caching:
            return [self.route(s, t, mode=mode) for s, t in keyed]
        outcomes: dict[tuple[int, int], RouteOutcome] = {}
        for s, t in sorted(set(keyed)):
            outcomes[(s, t)] = self.route(s, t, mode=mode)
        return [outcomes[key] for key in keyed]

    def locate(self, node: int) -> BayLocation | None:
        """§4.3 bay classification of ``node`` (memoized when caching).

        The service layer's locate queries come through here.  With
        ``caching=False`` this is a plain :func:`locate_node` call with no
        telemetry, mirroring the route path's determinism contract.
        """
        node = int(node)
        self._check_current()
        if not self.caching:
            return locate_node(self.abstraction, node)
        return self._locate(node)

    def route_fn(
        self, mode: str | None = None
    ) -> Callable[[int, int], tuple[list[int], bool, str, bool]]:
        """Adapter matching :func:`evaluate_routing`'s ``route_fn`` shape."""

        def fn(s: int, t: int) -> tuple[list[int], bool, str, bool]:
            out = self.route(s, t, mode=mode)
            return out.path, out.reached, out.case, out.used_fallback

        return fn

    # -- optimal-distance oracle ---------------------------------------------
    def distances(self, source: int) -> dict[int, float]:
        """Optimal-distance map from ``source`` over the reference graph.

        LRU-cached per source; shared across every strategy evaluated
        against this engine.  Treat the returned dict as read-only.
        """
        source = int(source)
        self._check_current()
        if self.caching and source in self._dijkstra_lru:
            self._record("dijkstra", True)
            self._dijkstra_lru.move_to_end(source)
            return self._dijkstra_lru[source]
        if self.caching:
            self._record("dijkstra", False)
        dist, _ = dijkstra(self.abstraction.points, self.udg, source)
        if self.caching:
            self._dijkstra_lru[source] = dist
            while len(self._dijkstra_lru) > DIJKSTRA_CACHE_SIZE:
                self._dijkstra_lru.popitem(last=False)
        return dist

    def optimal(self, s: int, t: int) -> float:
        """``d(s, t)`` of §1.2 (``inf`` when ``t`` is unreachable)."""
        return self.distances(s).get(int(t), math.inf)
