"""In-memory spans around the program's public functions.

The benchmark installs wrappers from its own files; the program itself
is unchanged.  :func:`install` must run in the benchmark process *before*
the server worker is forked, so the worker inherits the wrapped
functions; :meth:`Patches.restore` then puts the originals back in the
benchmark process.  The worker keeps its spans in memory and writes them
to one JSON file when its ``RoutingService`` shuts down.

A span is ``(id, name, start, end, parent, seq)``.  ``start``/``end`` are
``time.perf_counter()`` readings, which on Linux is the system-wide
monotonic clock, so worker spans and client timestamps share one
timeline.  ``seq`` numbers the route requests a worker handled (0 = the
warm-up batch); spans outside a route request carry
``-1``.  The served stack handles one request at a time here (one
closed-loop connection), which is what makes one "current request" and
one stack of open coroutine spans correct; spans in the engine thread
nest on a per-thread stack whose root parent is the open coroutine span.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

Span = tuple[int, str, float, float, int, int]

#: (module, attribute path, span name, is coroutine function).  Functions
#: imported by name are wrapped in the namespace that calls them.
TARGETS: tuple[tuple[str, str, str, bool], ...] = (
    ("repro.service.app", "RoutingService.handle", "service.handle", True),
    ("repro.service.batching", "EngineWorker.route", "service.worker.route", True),
    ("repro.service.batching", "outcome_payload", "service.payload", False),
    ("repro.routing.engine", "QueryEngine.route_many", "engine.route_many", False),
    ("repro.routing.engine", "QueryEngine.route", "engine.route", False),
    ("repro.routing.engine", "QueryEngine.optimal", "engine.optimal", False),
    ("repro.routing.engine", "QueryEngine.rebind", "engine.rebind", False),
    ("repro.routing.engine", "abstraction_digest", "engine.digest", False),
    ("repro.routing.engine", "dijkstra", "graphs.dijkstra", False),
    ("repro.routing.engine", "locate_node", "routing.locate", False),
    ("repro.routing.engine", "bay_structures_for_hole", "routing.bay_structs", False),
    ("repro.routing.router", "HybridRouter.__init__", "routing.router_build", False),
    ("repro.routing.router", "HybridRouter.route", "routing.router.route", False),
    ("repro.routing.router", "chew_route", "routing.chew", False),
    ("repro.routing.waypoints", "WaypointPlanner.plan", "routing.planner", False),
)


class SpanRecorder:
    """Span store of one process (the forked worker's copy is the one used)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.spans: list[Span] = []
        self.seq = -1
        self._route_seq = itertools.count()
        self._ids = itertools.count(1)
        self._async_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._stack()
            parent = stack[-1] if stack else (
                recorder._async_stack[-1] if recorder._async_stack else 0
            )
            sid = next(recorder._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder.spans.append((sid, name, start, end, parent, recorder.seq))

        return wrapper

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        recorder = self
        is_handle = name == "service.handle"

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            if is_handle:
                # handle(self, method, path, payload); the warm-up is a batch
                route = args[1] == "POST" and args[2].startswith("/v1/route")
                recorder.seq = next(recorder._route_seq) if route else -1
            seq = recorder.seq
            astack = recorder._async_stack
            parent = astack[-1] if astack else 0
            sid = next(recorder._ids)
            astack.append(sid)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                astack.pop()
                recorder.spans.append((sid, name, start, end, parent, seq))
                if is_handle:
                    recorder.seq = -1

        return wrapper

    def path(self, pid: int) -> Path:
        """Where the process ``pid`` writes its spans."""
        return self.out_dir / f"spans-{pid}.json"

    def dump(self) -> None:
        """Write this process's spans to :meth:`path`."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.path(os.getpid()).write_text(json.dumps(self.spans))


@dataclass
class Patches:
    """Originals replaced by :func:`install`, for :meth:`restore`."""

    saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner: Any = __import__(module, fromlist=["_"])
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def install(recorder: SpanRecorder) -> Patches:
    """Wrap every target, and make service shutdown write the spans."""
    patches = Patches()
    for module, path, name, is_async in TARGETS:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        wrapped = recorder.wrap_async(original, name) if is_async else recorder.wrap(original, name)
        patches.saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    owner, attr = _resolve("repro.service.app", "RoutingService.shutdown")
    original_shutdown = owner.shutdown

    @functools.wraps(original_shutdown)
    async def shutdown(self: Any) -> None:
        try:
            await original_shutdown(self)
        finally:
            recorder.dump()

    patches.saved.append((owner, attr, original_shutdown))
    owner.shutdown = shutdown
    return patches


def load(path: Path) -> list[Span]:
    return [tuple(row) for row in json.loads(path.read_text())]  # type: ignore[misc]


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Children of one span run one after another (one request in flight,
    one engine call at a time), so subtracting their durations equals
    subtracting the part of the interval they cover;
    :func:`check_nesting` verifies that premise per request.
    """
    spans = list(spans)
    own = {s[0]: s[3] - s[2] for s in spans}
    out = dict(own)
    for sid, _name, _start, _end, parent, _seq in spans:
        if parent in out:
            out[parent] -= own[sid]
    return out


def check_nesting(spans: list[Span], slack: float = 2e-6) -> list[str]:
    """Problems with one request's span tree (empty when consistent).

    Every span but the root must have its parent among the request's
    spans and lie inside the parent's interval, and siblings must not
    overlap; then the self times sum to the root's duration.
    """
    by_id = {s[0]: s for s in spans}
    roots = [s for s in spans if s[4] not in by_id]
    problems = []
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans")
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s[4] in by_id:
            parent = by_id[s[4]]
            if s[2] < parent[2] - slack or s[3] > parent[3] + slack:
                problems.append(f"{s[1]} outside parent {parent[1]}")
            children.setdefault(s[4], []).append(s)
    for kids in children.values():
        kids.sort(key=lambda s: s[2])
        for a, b in zip(kids, kids[1:]):
            if b[2] < a[3] - slack:
                problems.append(f"{a[1]} overlaps {b[1]}")
    return problems
