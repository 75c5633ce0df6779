"""Multi-process serving: N workers behind one SO_REUSEPORT front door.

``repro serve --workers N`` turns the single-process service into a small
process group:

* The **supervisor** (parent) publishes built instances into an
  :class:`~repro.service.store.InstanceStore`, binds a *reserve* socket
  with ``SO_REUSEPORT`` to claim the port (it never listens — it exists
  so an ephemeral ``port=0`` resolves to one concrete port every worker
  can bind), then forks N worker processes and supervises them over
  per-worker control pipes.
* Each **worker** builds a :class:`WorkerRuntime` over the fork-inherited
  store — a fresh :class:`~repro.service.registry.InstanceRegistry`,
  fresh ``QueryEngine`` + ``EngineWorker`` + ``MetricsCollector`` per
  process (mutable state is never shared across the fork; only the
  immutable abstraction pages are, copy-on-write) — and serves its own
  :class:`~repro.service.app.RoutingService` on the shared port with
  ``reuse_port=True``.  The kernel load-balances accepted connections
  across the workers; no userspace proxy sits on the hot path.
* The **control plane** is one duplex pipe per worker.  The parent sends
  dict commands (``stop``, ``stats``, ``rebind``), the worker answers
  with dict events.  Rebind commands carry the rebuilt abstraction
  through the pipe (``multiprocessing`` pickles it) — each worker then
  runs the same full-flush rebind through its engine worker
  queue, strictly serialized with that worker's query traffic.  This is
  how churn schedules execute under live load: the supervisor broadcasts
  one rebind per movement step while clients keep routing (servebench's
  ``churn-450`` workload, and the churn-under-traffic test in
  ``tests/service/test_multiproc.py``).

Worker processes are forked *before* any asyncio loop exists in them and
create their own loop via :func:`asyncio.run`; the parent's loop (if any)
is never touched post-fork.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import socket
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any

from .app import RoutingService
from .registry import InstanceRegistry
from .store import InstanceStore

__all__ = ["ServiceSupervisor", "WorkerHandle", "WorkerRuntime"]


class WorkerRuntime:
    """Per-process engine bootstrap: store entries → a serving registry.

    Runs inside a freshly forked worker before its event loop starts, so
    it is the one moment the process legitimately drives engines directly
    — there is no concurrent owner yet.  Once :meth:`bootstrap` returns,
    ownership of every engine rests with its ``EngineWorker`` and this
    class never touches them again (the RPR302 deep rule recognizes both
    owners).
    """

    def __init__(
        self,
        store: InstanceStore,
        *,
        caching: bool = True,
        max_batch: int = 512,
        queue_limit: int | None = None,
        warm_nodes: int = 0,
    ) -> None:
        self.store = store
        self.caching = caching
        self.max_batch = max_batch
        self.queue_limit = queue_limit
        self.warm_nodes = warm_nodes

    def bootstrap(self) -> InstanceRegistry:
        """Build this process's registry over every published instance."""
        registry = InstanceRegistry(
            caching=self.caching,
            max_batch=self.max_batch,
            queue_limit=self.queue_limit,
        )
        for entry in self.store.entries():
            abstraction, udg = self.store.load(entry.digest)
            instance = registry.register(
                abstraction,
                udg=udg,
                mode=entry.mode,
                params=entry.params,
            )
            if self.warm_nodes > 0:
                self._warm(instance.worker.engine, instance.n)
        return registry

    def _warm(self, engine: Any, n: int) -> None:
        """Locate a spread of nodes, so that the engine's locate index
        builds its tables before serving.

        Pre-serving, single-threaded: the engine's worker task has not
        started, so this direct use is race-free by construction.
        """
        step = max(1, n // max(1, self.warm_nodes))
        for node in range(0, n, step):
            engine.locate(node)


def _worker_main(
    store: InstanceStore,
    index: int,
    host: str,
    port: int,
    conn: Connection,
    options: dict[str, Any],
) -> None:
    """Entry point of one forked worker process."""
    # A terminal Ctrl-C signals the whole foreground process group; the
    # supervisor coordinates shutdown over the control pipe, so workers
    # must not race it with their own KeyboardInterrupt unwind.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        runtime = WorkerRuntime(store, **options)
        registry = runtime.bootstrap()
        service = RoutingService(registry, worker_id=f"worker-{index}")
        asyncio.run(_worker_serve(service, host, port, conn))
    except Exception as exc:  # noqa: BLE001 - reported to the supervisor
        try:
            conn.send(
                {"event": "error", "pid": os.getpid(), "message": str(exc)}
            )
        except (BrokenPipeError, OSError):
            pass
        raise
    finally:
        conn.close()


async def _worker_serve(
    service: RoutingService, host: str, port: int, conn: Connection
) -> None:
    """Serve on the shared port until the supervisor says stop."""
    await service.start(host, port, reuse_port=True)
    loop = asyncio.get_running_loop()
    stopping = asyncio.Event()

    def on_control() -> None:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            # Supervisor went away: treat as stop so the worker exits
            # instead of serving forever as an orphan.
            stopping.set()
            return
        loop.create_task(_handle_control(service, conn, message, stopping))

    loop.add_reader(conn.fileno(), on_control)
    try:
        conn.send(
            {"event": "ready", "pid": os.getpid(), "port": service.port}
        )
        await stopping.wait()
    finally:
        loop.remove_reader(conn.fileno())
    await service.shutdown()
    try:
        conn.send({"event": "stopped", "pid": os.getpid()})
    except (BrokenPipeError, OSError):
        pass


async def _handle_control(
    service: RoutingService,
    conn: Connection,
    message: Any,
    stopping: asyncio.Event,
) -> None:
    """Execute one control command and answer on the pipe."""
    command = message.get("cmd") if isinstance(message, dict) else None
    try:
        if command == "stop":
            stopping.set()
            return
        if command == "rebind":
            record = await service.registry.rebind(
                message.get("digest"),
                message["abstraction"],
                message.get("udg"),
            )
            conn.send({"event": "rebound", "pid": os.getpid(), **record})
            return
        if command == "stats":
            per_instance: dict[str, Any] = {}
            for row in service.registry.list():
                digest = row["digest"]
                worker = service.registry.get(digest).worker
                per_instance[digest] = await worker.stats_snapshot()
            conn.send(
                {
                    "event": "stats",
                    "pid": os.getpid(),
                    "service": service.metrics.snapshot(),
                    "instances": per_instance,
                }
            )
            return
        conn.send(
            {
                "event": "error",
                "pid": os.getpid(),
                "message": f"unknown control command {command!r}",
            }
        )
    except Exception as exc:  # noqa: BLE001 - control plane must answer
        try:
            conn.send(
                {"event": "error", "pid": os.getpid(), "message": str(exc)}
            )
        except (BrokenPipeError, OSError):
            pass


@dataclass
class WorkerHandle:
    """Supervisor-side view of one worker process."""

    index: int
    process: Any
    conn: Connection
    pid: int = 0
    port: int = 0
    ready: bool = False
    events: list[dict[str, Any]] = field(default_factory=list)


class ServiceSupervisor:
    """Parent of an N-worker SO_REUSEPORT process group.

    Synchronous by design — it is process management, not request
    serving, and benchmarks/CLI call it from plain (non-async) code
    before starting their own client event loops.

    Parameters mirror the per-worker :class:`WorkerRuntime` knobs;
    ``workers`` is the process count and ``port=0`` claims an ephemeral
    port all workers share.
    """

    def __init__(
        self,
        store: InstanceStore,
        *,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        caching: bool = True,
        max_batch: int = 512,
        queue_limit: int | None = None,
        warm_nodes: int = 0,
        start_timeout: float = 60.0,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.store = store
        self.workers = workers
        self.host = host
        self._requested_port = port
        self.start_timeout = start_timeout
        self._options = {
            "caching": caching,
            "max_batch": max_batch,
            "queue_limit": queue_limit,
            "warm_nodes": warm_nodes,
        }
        self._reserve: socket.socket | None = None
        self._handles: list[WorkerHandle] = []
        self._port = 0

    # -- lifecycle -----------------------------------------------------------
    @property
    def port(self) -> int:
        """The shared listening port (after :meth:`start`)."""
        if self._port == 0:
            raise RuntimeError("supervisor is not started")
        return self._port

    def start(self) -> None:
        """Claim the port, fork the workers, wait for every ready event."""
        if self._handles:
            raise RuntimeError("supervisor already started")
        self._reserve = self._bind_reserve()
        self._port = int(self._reserve.getsockname()[1])
        context = multiprocessing.get_context("fork")
        for index in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(
                    self.store,
                    index,
                    self.host,
                    self._port,
                    child_conn,
                    self._options,
                ),
                daemon=True,
            )
            process.start()
            child_conn.close()
            self._handles.append(
                WorkerHandle(index=index, process=process, conn=parent_conn)
            )
        for handle in self._handles:
            event = self._expect(handle, "ready", self.start_timeout)
            handle.pid = int(event["pid"])
            handle.port = int(event["port"])
            handle.ready = True

    def _bind_reserve(self) -> socket.socket:
        """Bind (never listen) the shared port with ``SO_REUSEPORT``.

        Workers bind the same ``(host, port)`` with their own reuse-port
        sockets; this one exists to pin an ephemeral port and keep it
        reserved across worker restarts.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        if not hasattr(socket, "SO_REUSEPORT"):
            sock.close()
            raise RuntimeError(
                "SO_REUSEPORT is unavailable on this platform; "
                "multi-process serving requires it"
            )
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.host, self._requested_port))
        return sock

    def stop(self, timeout: float = 30.0) -> None:
        """Stop every worker: drain, join, and escalate to terminate."""
        for handle in self._handles:
            if handle.process.is_alive():
                try:
                    handle.conn.send({"cmd": "stop"})
                except (BrokenPipeError, OSError):
                    pass
        for handle in self._handles:
            try:
                self._expect(handle, "stopped", timeout)
            except (RuntimeError, EOFError, OSError):
                pass
            handle.process.join(timeout=timeout)
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=5.0)
            handle.conn.close()
        self._handles.clear()
        if self._reserve is not None:
            self._reserve.close()
            self._reserve = None
        self._port = 0

    def __enter__(self) -> ServiceSupervisor:
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- control plane -------------------------------------------------------
    def alive(self) -> int:
        """Number of worker processes currently alive."""
        return sum(1 for h in self._handles if h.process.is_alive())

    def handles(self) -> list[WorkerHandle]:
        """The per-worker handles (read-only use)."""
        return list(self._handles)

    def broadcast_rebind(
        self,
        abstraction: Any,
        udg: Any | None = None,
        digest: str | None = None,
        timeout: float = 120.0,
    ) -> list[dict[str, Any]]:
        """Rebind every worker onto ``abstraction``; one record per worker.

        The command fans out before any reply is awaited, so workers
        rebind concurrently; each worker serializes its own rebind with
        its own query traffic.  ``digest`` selects which served instance
        to rebind (default instance when ``None``).
        """
        command = {
            "cmd": "rebind",
            "digest": digest,
            "abstraction": abstraction,
            "udg": udg,
        }
        for handle in self._handles:
            handle.conn.send(command)
        return [
            self._expect(handle, "rebound", timeout)
            for handle in self._handles
        ]

    def stats(self, timeout: float = 60.0) -> list[dict[str, Any]]:
        """Per-worker service metrics + engine/worker counters."""
        for handle in self._handles:
            handle.conn.send({"cmd": "stats"})
        return [
            self._expect(handle, "stats", timeout) for handle in self._handles
        ]

    def _expect(
        self, handle: WorkerHandle, event: str, timeout: float
    ) -> dict[str, Any]:
        """Receive until ``event`` arrives on ``handle``'s pipe."""
        while True:
            if not handle.conn.poll(timeout):
                raise RuntimeError(
                    f"worker {handle.index} (pid {handle.pid or '?'}) sent "
                    f"no {event!r} event within {timeout}s"
                )
            message = handle.conn.recv()
            handle.events.append(message)
            kind = message.get("event")
            if kind == event:
                return message
            if kind == "error":
                raise RuntimeError(
                    f"worker {handle.index} reported: {message.get('message')}"
                )
