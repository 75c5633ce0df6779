"""Per-engine worker task with a micro-batching queue.

**Why a worker exists.**  :class:`~repro.routing.engine.QueryEngine` is
single-owner: its memo dicts and LRUs are mutated on every query and are
not safe under concurrent mutation.  The service therefore runs exactly
one :class:`EngineWorker` per engine; every operation that touches the
engine — routing, locating, rebinding, stats snapshots — is funneled
through the worker's :class:`asyncio.Queue` and executed strictly one
engine call at a time.  HTTP handler tasks never hold an engine
reference; they await a future the worker resolves.

**Micro-batching.**  While one engine call runs, new requests accumulate
in the queue.  When the worker comes back around it drains everything
waiting (up to ``max_batch`` pairs) and coalesces adjacent same-mode
route requests into a single :meth:`QueryEngine.route_many` call, which
sorts distinct pairs and routes each duplicate once — the batching the
engine was built for.  The worker never waits for more work to arrive:
a lone request is served at once, and coalescing comes only from the
backlog that built up behind the previous call.

**Admission control.**  ``max_queue_depth`` bounds how many requests may
wait in front of the engine.  A submission beyond the bound is refused
with :class:`WorkerOverloadedError` *before* it enqueues — the service
layer maps it to ``429`` with a ``Retry-After`` derived from the queue
depth and the worker's smoothed batch execution time, so shed load
carries an honest come-back hint instead of silently growing the queue.

**Response fast path.**  Served route payloads are deterministic given
the engine's bound digest, so the worker keeps a bounded LRU of payloads
keyed ``(mode, s, t)`` — the only result-level cache of the serving
path (the engine caches routing ingredients, not finished routes).  A
request whose pairs are all cached is answered on the event loop without
an engine call or thread hop; a coalesced group routes only its uncached
pairs.  The cache is dropped on every rebind,
and the fast path is suspended while a rebind is queued
(``_pending_rebinds``) so a request submitted after a rebind can never
be answered from pre-rebind state.  With ``caching=False``
engines the fast path is disabled entirely — the differential baseline
must exercise the full route path on every request.

**Shutdown.**  :meth:`stop` lets queued work drain, then fails anything
that raced in behind the stop sentinel with :class:`WorkerStoppedError`
— a future handed out by this worker always resolves, even when the
worker loop itself dies: the loop's ``finally`` clause fails every
request still queued at exit.  The HTTP layer maps the error to a clean
``503`` envelope.

**Event-loop hygiene.**  The engine call itself is CPU-bound Python, so
the worker runs it in a thread (:func:`asyncio.to_thread`) and awaits the
result.  Serialization still holds — the worker never dequeues the next
item until the call returns — but the event loop stays responsive for
``/healthz`` probes and new connections while a large batch computes.
Engine-state reads for a response (path payloads, ``optimal``, stats
snapshots) happen inside that same thread call, so nothing observes the
engine between operations.
"""

from __future__ import annotations

import asyncio
import math
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from ..core.abstraction import Abstraction
from ..graphs.udg import Adjacency
from ..routing.engine import QueryEngine
from ..simulation.metrics import MetricsCollector
from .contracts import locate_payload, outcome_payload

__all__ = [
    "EngineWorker",
    "WorkerStats",
    "WorkerOverloadedError",
    "WorkerStoppedError",
]

#: LRU bound of the per-pair response payload fast path.
RESPONSE_CACHE_SIZE = 8192


class WorkerStoppedError(RuntimeError):
    """The worker is shutting down; the request was not (fully) served."""


class WorkerOverloadedError(RuntimeError):
    """Admission control refused the request (queue depth exceeded).

    ``retry_after`` is the worker's estimate, in whole seconds (≥ 1), of
    when the backlog will have drained — queue depth times the smoothed
    per-batch execution time.
    """

    def __init__(self, message: str, *, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


@dataclass
class WorkerStats:
    """Counters of one engine worker (all mutated on the event loop)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    #: submissions refused by admission control (mapped to 429)
    shed: int = 0
    #: route requests answered entirely from the response payload cache on
    #: submission, without queueing
    fast_path: int = 0
    #: engine calls made for route work (after coalescing)
    route_batches: int = 0
    #: route requests absorbed into those batches
    route_requests: int = 0
    #: total pairs routed (payload-cache hits excluded)
    route_pairs: int = 0
    #: largest single coalesced batch, in pairs
    max_batch_pairs: int = 0
    #: high-water mark of the request queue
    queue_peak: int = 0
    #: rebinds executed through the queue, and the last one's wall time
    rebinds: int = 0
    last_rebind_ms: float = 0.0

    def snapshot(self) -> dict[str, int | float]:
        """Copy of the counters plus the mean coalesced batch size."""
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "shed": self.shed,
            "fast_path": self.fast_path,
            "route_batches": self.route_batches,
            "route_requests": self.route_requests,
            "route_pairs": self.route_pairs,
            "max_batch_pairs": self.max_batch_pairs,
            "queue_peak": self.queue_peak,
            "rebinds": self.rebinds,
            "last_rebind_ms": self.last_rebind_ms,
            "mean_batch_pairs": (
                self.route_pairs / self.route_batches
                if self.route_batches
                else 0.0
            ),
        }


@dataclass
class _Request:
    kind: str  # "route" | "locate" | "stats" | "rebind"
    future: asyncio.Future
    pairs: list[tuple[int, int]] = field(default_factory=list)
    nodes: list[int] = field(default_factory=list)
    mode: str | None = None
    #: rebind payload: (abstraction, udg-or-None)
    payload: Any = None


_STOP = object()


class EngineWorker:
    """Serialized front door to one :class:`QueryEngine`.

    Parameters
    ----------
    engine:
        The engine this worker owns.  No other code may call it once the
        worker is in use.
    metrics:
        The :class:`MetricsCollector` wired into the engine (its cache
        counters are reported by :meth:`stats`).
    max_batch:
        Pair budget for one coalesced ``route_many`` call; requests
        beyond it wait for the next drain.
    max_queue_depth:
        Admission bound on requests waiting in the queue; ``None`` (the
        default) admits everything.  Submissions beyond the bound raise
        :class:`WorkerOverloadedError` instead of enqueueing.
    """

    def __init__(
        self,
        engine: QueryEngine,
        *,
        metrics: MetricsCollector | None = None,
        max_batch: int = 512,
        max_queue_depth: int | None = None,
    ) -> None:
        self.engine = engine
        self.metrics = metrics
        self.max_batch = max(1, int(max_batch))
        self.max_queue_depth = (
            None if max_queue_depth is None else max(1, int(max_queue_depth))
        )
        self.stats = WorkerStats()
        self._queue: asyncio.Queue[Any] = asyncio.Queue()
        self._task: asyncio.Task | None = None
        self._stopped = False
        self._pending_rebinds = 0
        #: smoothed seconds of one executed batch (EWMA, Retry-After hint)
        self._batch_seconds_ewma = 0.0
        #: (mode, s, t) -> served payload dict; dropped on every rebind
        self._response_cache: OrderedDict[
            tuple[str, int, int], dict[str, Any]
        ] = OrderedDict()

    # -- lifecycle -----------------------------------------------------------
    def _ensure_started(self) -> None:
        if self._task is None or self._task.done():
            if self._stopped:
                raise WorkerStoppedError("worker is stopped")
            self._task = asyncio.get_running_loop().create_task(self._run())

    async def stop(self) -> None:
        """Drain the queue, then stop the worker task.

        Work queued ahead of the stop sentinel is served normally;
        anything behind it (racing submissions) fails with
        :class:`WorkerStoppedError` — no future handed out by this worker
        is ever left pending, even if the worker task itself crashed.
        """
        self._stopped = True
        if self._task is not None and not self._task.done():
            await self._queue.put(_STOP)
            # A crashed worker loop must not strand the drain: collect the
            # task's outcome without re-raising here (its finally clause
            # already failed whatever it still held).
            await asyncio.gather(self._task, return_exceptions=True)
        self._drain_failed()

    def _drain_failed(self) -> None:
        """Fail everything still queued with a clean stop error."""
        while True:
            try:
                leftover = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if leftover is not _STOP:
                self._fail(leftover, WorkerStoppedError("worker is stopped"))

    # -- submission ----------------------------------------------------------
    async def _submit(self, request: _Request) -> Any:
        if self._stopped:
            raise WorkerStoppedError("worker is stopped")
        if (
            self.max_queue_depth is not None
            and request.kind == "route"
            and self._queue.qsize() >= self.max_queue_depth
        ):
            self.stats.shed += 1
            depth = self._queue.qsize()
            batches = math.ceil(depth / max(1, self.max_batch))
            eta = batches * max(self._batch_seconds_ewma, 0.05)
            raise WorkerOverloadedError(
                f"engine queue is full ({depth} waiting, "
                f"bound {self.max_queue_depth})",
                retry_after=math.ceil(eta),
            )
        self._ensure_started()
        self.stats.submitted += 1
        await self._queue.put(request)
        depth = self._queue.qsize()
        if depth > self.stats.queue_peak:
            self.stats.queue_peak = depth
        return await request.future

    def _new_request(self, kind: str, **kw: Any) -> _Request:
        future = asyncio.get_running_loop().create_future()
        return _Request(kind=kind, future=future, **kw)

    def _cached_payloads(
        self, pairs: list[tuple[int, int]], mode: str | None
    ) -> list[dict[str, Any] | None]:
        """The cached payload of every pair (``None`` where uncached).

        Cache-less engines report every pair uncached: the differential
        baseline must route every request.
        """
        if not self.engine.caching:
            return [None] * len(pairs)
        effective = mode if mode is not None else self.engine.mode
        cache = self._response_cache
        return [cache.get((effective, s, t)) for s, t in pairs]

    def _fast_payloads(
        self, pairs: list[tuple[int, int]], mode: str | None
    ) -> list[dict[str, Any]] | None:
        """Cached payloads for every pair, or ``None`` on any miss.

        Disabled while a rebind is queued: a request submitted after the
        rebind must see post-rebind answers.
        """
        if not self._response_cache or self._pending_rebinds or self._stopped:
            return None
        out: list[dict[str, Any]] = []
        for payload in self._cached_payloads(pairs, mode):
            if payload is None:
                return None
            out.append(payload)
        return out

    def _remember_payloads(
        self,
        pairs: list[tuple[int, int]],
        mode: str | None,
        payloads: list[dict[str, Any]],
    ) -> None:
        if not self.engine.caching:
            return
        effective = mode if mode is not None else self.engine.mode
        for (s, t), payload in zip(pairs, payloads):
            self._response_cache[(effective, int(s), int(t))] = payload
        while len(self._response_cache) > RESPONSE_CACHE_SIZE:
            self._response_cache.popitem(last=False)

    async def route(
        self, pairs: list[tuple[int, int]], mode: str | None = None
    ) -> list[dict[str, Any]]:
        """Route ``pairs``; returns one result payload per pair, in order."""
        pairs = [(int(s), int(t)) for s, t in pairs]
        cached = self._fast_payloads(pairs, mode)
        if cached is not None:
            self.stats.fast_path += 1
            return cached
        return await self._submit(
            self._new_request("route", pairs=pairs, mode=mode)
        )

    async def locate(self, nodes: list[int]) -> list[dict[str, Any]]:
        """Classify ``nodes`` (§4.3); one locate payload per node."""
        return await self._submit(
            self._new_request("locate", nodes=list(nodes))
        )

    async def rebind(
        self, abstraction: Abstraction, udg: Adjacency | None = None
    ) -> dict[str, Any]:
        """Swap the engine onto ``abstraction`` through the queue.

        Serialized with query traffic: requests queued ahead of the
        rebind are answered on the old topology, requests submitted after
        it on the new one.  The engine flushes every cache, exactly as an
        in-process :meth:`QueryEngine.rebind` does, and the worker drops
        its payload cache.  Returns the engine's flush record plus the
        rebind wall time.
        """
        self._pending_rebinds += 1
        return await self._submit(
            self._new_request("rebind", payload=(abstraction, udg))
        )

    async def stats_snapshot(self) -> dict[str, Any]:
        """Engine/cache/worker counters, snapshotted under the worker.

        Runs through the same queue as route work, so the snapshot is
        taken between engine calls — never while ``record()`` mutates a
        counter dict (the :meth:`EngineStats.snapshot` contract).
        """
        return await self._submit(self._new_request("stats"))

    # -- worker loop ---------------------------------------------------------
    async def _run(self) -> None:
        try:
            while True:
                item = await self._queue.get()
                if item is _STOP:
                    return
                batch: list[_Request] = [item]
                budget = len(item.pairs) or 1
                stop_after = False
                while not stop_after and budget < self.max_batch:
                    try:
                        extra = self._queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                    if extra is _STOP:
                        stop_after = True
                        break
                    batch.append(extra)
                    budget += len(extra.pairs) or 1
                await self._execute(batch)
                if stop_after:
                    return
        finally:
            # However the loop exits — stop sentinel, cancellation, or a
            # bug in the batching logic — nothing queued may be left with
            # a pending future.
            self._drain_failed()

    async def _execute(self, batch: list[_Request]) -> None:
        """Run one drained batch: coalesce route runs, serialize the rest."""
        index = 0
        while index < len(batch):
            request = batch[index]
            if request.kind != "route":
                await self._run_single(request)
                index += 1
                continue
            group = [request]
            index += 1
            while (
                index < len(batch)
                and batch[index].kind == "route"
                and batch[index].mode == request.mode
            ):
                group.append(batch[index])
                index += 1
            await self._run_route_group(group)

    async def _run_route_group(self, group: list[_Request]) -> None:
        """Answer a coalesced group, routing only its uncached pairs.

        The payload cache is read here, on the loop, before the thread
        hop.  The worker runs one queue item at a time, so the cache is in
        step with the engine: a rebind queued ahead of this group has
        already dropped it.
        """
        mode = group[0].mode
        pairs = [pair for request in group for pair in request.pairs]
        payloads = self._cached_payloads(pairs, mode)
        missing = [pair for pair, hit in zip(pairs, payloads) if hit is None]
        if not missing:
            self._finish_group(group, payloads)
            return
        self.stats.route_batches += 1
        self.stats.route_requests += len(group)
        self.stats.route_pairs += len(missing)
        if len(missing) > self.stats.max_batch_pairs:
            self.stats.max_batch_pairs = len(missing)
        started = time.perf_counter()
        try:
            routed = await asyncio.to_thread(self._serve_route, missing, mode)
        except asyncio.CancelledError:
            # Worker task killed mid-call: the in-flight group must not
            # be stranded with pending futures (the engine thread itself
            # runs to completion; only the await was cancelled).
            for request in group:
                self._fail(request, WorkerStoppedError("worker is stopped"))
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to the callers
            for request in group:
                self._fail(request, exc)
            return
        self._observe_batch_seconds(time.perf_counter() - started)
        self._remember_payloads(missing, mode, routed)
        fill = iter(routed)
        self._finish_group(
            group,
            [hit if hit is not None else next(fill) for hit in payloads],
        )

    def _finish_group(
        self, group: list[_Request], payloads: list[Any]
    ) -> None:
        """Hand each request of a group its slice of ``payloads``."""
        offset = 0
        for request in group:
            size = len(request.pairs)
            self._finish(request, payloads[offset : offset + size])
            offset += size

    def _observe_batch_seconds(self, seconds: float) -> None:
        if self._batch_seconds_ewma == 0.0:
            self._batch_seconds_ewma = seconds
        else:
            self._batch_seconds_ewma = (
                0.8 * self._batch_seconds_ewma + 0.2 * seconds
            )

    async def _run_single(self, request: _Request) -> None:
        try:
            if request.kind == "locate":
                result = await asyncio.to_thread(
                    self._serve_locate, request.nodes
                )
            elif request.kind == "rebind":
                abstraction, udg = request.payload
                result = await asyncio.to_thread(
                    self._serve_rebind, abstraction, udg
                )
            else:
                result = await asyncio.to_thread(self._serve_stats)
        except asyncio.CancelledError:
            self._fail(request, WorkerStoppedError("worker is stopped"))
            raise
        except Exception as exc:  # noqa: BLE001 - forwarded to the caller
            self._fail(request, exc)
            return
        self._finish(request, result)

    def _finish(self, request: _Request, result: Any) -> None:
        if request.kind == "rebind":
            self._pending_rebinds -= 1
        self.stats.completed += 1
        if not request.future.cancelled():
            request.future.set_result(result)

    def _fail(self, request: _Request, exc: BaseException) -> None:
        if request.kind == "rebind":
            self._pending_rebinds -= 1
        self.stats.failed += 1
        if not request.future.cancelled():
            request.future.set_exception(exc)

    # -- engine calls (run in the worker's thread, one at a time) ------------
    def _serve_route(
        self, pairs: list[tuple[int, int]], mode: str | None
    ) -> list[dict[str, Any]]:
        outcomes = self.engine.route_many(pairs, mode=mode)
        points = self.engine.abstraction.points
        return [
            outcome_payload(
                outcome,
                points,
                self.engine.optimal(outcome.source, outcome.target),
            )
            for outcome in outcomes
        ]

    def _serve_locate(self, nodes: list[int]) -> list[dict[str, Any]]:
        return [locate_payload(node, self.engine.locate(node)) for node in nodes]

    def _serve_rebind(
        self, abstraction: Abstraction, udg: Adjacency | None
    ) -> dict[str, Any]:
        started = time.perf_counter()
        self.engine.rebind(abstraction, udg=udg)
        elapsed_ms = (time.perf_counter() - started) * 1e3
        # Every cached payload was computed on the old topology, so the
        # payload cache goes the way of the engine's own caches.
        self._response_cache.clear()
        self.stats.rebinds += 1
        self.stats.last_rebind_ms = elapsed_ms
        return {
            "digest": self.engine.digest,
            "n": len(abstraction.points),
            "rebind_ms": elapsed_ms,
            "flush": self.engine.stats.last_flush,
        }

    def _serve_stats(self) -> dict[str, Any]:
        return {
            "engine": self.engine.stats.snapshot(),
            "caches": (
                self.metrics.cache_summary() if self.metrics is not None else {}
            ),
            "worker": self.stats.snapshot(),
        }
