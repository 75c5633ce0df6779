"""Batched multi-query routing engine with memoized abstraction state.

:class:`HybridRouter` answers one query well, but on its own nothing is
amortized across queries: every evaluation run (benchmarks E1/E7, the CLI,
the protocol runners) would re-derive bay classifications and re-run the
optimal-distance Dijkstra from scratch for each strategy.
:class:`QueryEngine` is the query-serving layer on top of the router that
owns all reusable state:

* **routers** — one memoized :class:`HybridRouter` per mode, each
  classifying bays (§4.3) through the bind's :class:`LocateIndex`, whose
  tables are built at the first locate after a bind;
* **Dijkstra LRU** — per-source optimal-distance maps over the reference
  UDG (:meth:`QueryEngine.distances`), shared across strategies in a
  competitiveness run.

:meth:`QueryEngine.optimal` answers one pair with a search that stops at
the target, optionally pruned by a known walk's length; it neither reads
nor fills the LRU.  Both searches run over the UDG's edge weights,
computed once per bind at the first oracle call (so :meth:`rebind` does
not pay for them).

The engine keeps no cache of completed routes: ``route_many`` collapses
duplicate pairs within a batch, and the service worker's payload LRU
(:mod:`repro.service.batching`) answers repeats across requests.

Every cache is valid for exactly one bind.  The engine never re-checks
the abstraction it is bound to: a topology change (mobility, churn, an
incremental update) goes through :meth:`QueryEngine.rebind`, which
flushes every cache.  Keeping unchanged holes' entries across a rebind
does not make the next batch faster, so nothing is kept (see
``docs/dynamic_serving.md``).

**Determinism contract.**  Cached answers are the *same objects* a cold
router would produce — the caches only skip recomputation, never change it.
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
from collections import OrderedDict
from dataclasses import dataclass, field
from collections.abc import Callable, Sequence
from typing import Any

import numpy as np

from ..core.abstraction import Abstraction
# The pair oracle's search keeps the module-level name ``dijkstra``: the
# repository benchmark (servebench/spans.py) wraps that name in this
# namespace to time it.  ``graphs.shortest_paths.dijkstra`` is its reference.
from ..graphs.shortest_paths import dijkstra_to_target as dijkstra
from ..graphs.shortest_paths import (
    WeightedAdjacency,
    dijkstra_weighted,
    euclidean_weights,
)
from ..graphs.udg import Adjacency
# ``locate_node`` is called by this module-level name so that the
# repository benchmark can time it here too.
from .bay_routing import BayLocation, LocateIndex, locate_node
from .router import HybridRouter, RouteOutcome

# Not called here: the router derives bay structures itself.  The name stays
# importable from this module because the repository benchmark
# (servebench/spans.py) wraps it in this namespace.
from .bay_routing import bay_structures_for_hole  # noqa: F401

__all__ = ["QueryEngine", "EngineStats", "abstraction_digest"]

#: LRU bound of the per-source optimal-distance maps.
DIJKSTRA_CACHE_SIZE = 64


def abstraction_digest(abstraction: Abstraction) -> str:
    """Content digest of everything routing behaviour depends on.

    Covers the node coordinates and the per-hole structure (boundary
    ring, hull, outer flag).  Two abstractions with equal digests produce
    identical routes for every query, so the digest names the state an
    engine's caches are valid for, and the service keys instances by it.
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


@dataclass
class EngineStats:
    """Counters the engine maintains regardless of a MetricsCollector."""

    queries: int = 0
    batch_queries: int = 0
    invalidations: int = 0
    #: cache name -> {"hits": int, "misses": int}
    cache: dict[str, dict[str, int]] = field(default_factory=dict)
    #: cache name -> {"survived": int, "evicted": int}, accumulated over
    #: every flush; every flush evicts everything, so ``survived`` is 0
    flush: dict[str, dict[str, int]] = field(default_factory=dict)
    #: the most recent flush: per-cache survived/evicted counts of that
    #: single pass
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
        }
        for name, row in sorted(snap["cache"].items()):
            total = row["hits"] + row["misses"]
            out[f"{name}_hits"] = row["hits"]
            out[f"{name}_misses"] = row["misses"]
            out[f"{name}_hit_rate"] = row["hits"] / total if total else 0.0
        for name, frow in sorted(snap["flush"].items()):
            out[f"{name}_evicted"] = frow["evicted"]
        return out


class QueryEngine:
    """Multi-query routing facade over one hole abstraction.

    The bound abstraction is treated as immutable: the engine does not
    notice its coordinates or holes changing underneath it.  Every change
    goes through :meth:`rebind` (after an in-place edit, rebind onto the
    edited object), which flushes every cache.

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
        self.max_replans = max_replans
        self.metrics = metrics
        self.trace = trace
        self.stats = EngineStats()

        self._routers: dict[str, HybridRouter] = {}
        self._locate_index = LocateIndex(abstraction)
        self._dijkstra_lru: "OrderedDict[int, dict[int, float]]" = OrderedDict()
        self._udg_weights: WeightedAdjacency | None = None
        self._udg_coords: tuple[list[float], list[float]] | None = None
        self._digest = abstraction_digest(abstraction)

    # -- telemetry -----------------------------------------------------------
    def _record(self, cache: str, hit: bool) -> None:
        """One cache lookup: engine stats plus the optional collector."""
        self.stats.record(cache, hit)
        if self.metrics is not None:
            self.metrics.record_cache_event(cache, hit)

    # -- invalidation --------------------------------------------------------
    def rebind(
        self, abstraction: Abstraction, *, udg: Adjacency | None = None
    ) -> None:
        """Swap in a rebuilt abstraction (post-mobility re-setup).

        Flushes every cache.  ``udg`` optionally carries the true
        unit-disk adjacency of the new placement (for ``optimal()``
        ground-truth shortest paths); when omitted the abstraction's own
        graph adjacency is used, matching the original behaviour.  This
        is also the way to serve an abstraction whose coordinates were
        changed in place: mutate, then rebind onto the same object.
        """
        old_digest = self._digest
        detail = {
            "dijkstra": {"survived": 0, "evicted": len(self._dijkstra_lru)},
        }
        self._dijkstra_lru.clear()
        self._routers.clear()
        self._udg_weights = None
        self._udg_coords = None
        self.stats.invalidations += 1
        for cache, row in detail.items():
            self.stats.record_flush(cache, row["survived"], row["evicted"])
        self.abstraction = abstraction
        self._locate_index = LocateIndex(abstraction)
        self.udg = abstraction.graph.adjacency if udg is None else udg
        self._digest = abstraction_digest(abstraction)
        self.stats.last_flush = {"caches": detail}
        if self.caching and self.trace is not None:
            self.trace.emit(
                "engine_invalidate",
                old_digest=old_digest,
                new_digest=self._digest,
                evicted=sum(r["evicted"] for r in detail.values()),
            )

    @property
    def digest(self) -> str:
        """Digest of the abstraction state the caches are valid for."""
        return self._digest

    # -- memoized components -------------------------------------------------
    def _locate(self, node: int) -> BayLocation | None:
        """§4.3 bay classification on the bind's index (injected into
        routers)."""
        return locate_node(self.abstraction, node, index=self._locate_index)

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
            )
        self._routers[mode] = router
        return router

    # -- queries -------------------------------------------------------------
    def route(self, s: int, t: int, mode: str | None = None) -> RouteOutcome:
        """Route one query, re-using every applicable cache."""
        mode = self.mode if mode is None else mode
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
        """§4.3 bay classification of ``node``.

        The service layer's locate queries come through here: one
        :func:`locate_node` call on the bind's :class:`LocateIndex`, with
        or without caching (a locate costs tens of microseconds, so no
        memo sits in front of it).
        """
        return self._locate(int(node))

    def route_fn(
        self, mode: str | None = None
    ) -> Callable[[int, int], tuple[list[int], bool, str, bool]]:
        """Adapter matching :func:`evaluate_routing`'s ``route_fn`` shape."""

        def fn(s: int, t: int) -> tuple[list[int], bool, str, bool]:
            out = self.route(s, t, mode=mode)
            return out.path, out.reached, out.case, out.used_fallback

        return fn

    # -- optimal-distance oracle ---------------------------------------------
    def _weights(self) -> WeightedAdjacency:
        """The reference graph's edge weights, built at the first oracle
        call of a bind, together with the coordinate lists the bounded
        search reads."""
        if self._udg_weights is None:
            # The LRU's maps hold for these weights only.  Rebind, which
            # resets the weights, has emptied it already; clearing it here
            # states the dependency where RPR201 (repro lint --deep) looks.
            self._dijkstra_lru.clear()
            points = self.abstraction.points
            self._udg_weights = euclidean_weights(points, self.udg)
            pts = np.asarray(points, dtype=float)
            self._udg_coords = (pts[:, 0].tolist(), pts[:, 1].tolist())
        return self._udg_weights

    def distances(self, source: int) -> dict[int, float]:
        """Optimal-distance map from ``source`` over the reference graph.

        LRU-cached per source; shared across every strategy evaluated
        against this engine.  Equal, bit for bit, to
        :func:`repro.graphs.shortest_paths.dijkstra`'s ``dist``.  Treat the
        returned dict as read-only.
        """
        source = int(source)
        if self.caching and source in self._dijkstra_lru:
            self._record("dijkstra", True)
            self._dijkstra_lru.move_to_end(source)
            return self._dijkstra_lru[source]
        if self.caching:
            self._record("dijkstra", False)
        dist = dijkstra_weighted(self._weights(), source)
        if self.caching:
            self._dijkstra_lru[source] = dist
            while len(self._dijkstra_lru) > DIJKSTRA_CACHE_SIZE:
                self._dijkstra_lru.popitem(last=False)
        return dist

    def optimal(self, s: int, t: int, bound: float | None = None) -> float:
        """``d(s, t)`` of §1.2 (``inf`` when ``t`` is unreachable).

        One search that stops when ``t`` is popped; the same bits as
        :meth:`distances`' entry for ``t``.  ``bound`` is the length of
        any known ``s``–``t`` walk (the service passes the delivered
        route's): the search then skips nodes that cannot lie on a walk
        within it (:func:`~repro.graphs.shortest_paths.dijkstra_to_target`).
        A result above ``bound`` means the bound was below ``d(s, t)``, so
        the search runs again without it.
        """
        nbrs = self._weights()
        s, t = int(s), int(t)
        if bound is not None:
            d = dijkstra(nbrs, s, t, coords=self._udg_coords, bound=bound)
            if d <= bound:
                return d
        return dijkstra(nbrs, s, t)
