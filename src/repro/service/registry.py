"""Multi-tenant instance registry: one engine + worker per abstraction.

Instances are keyed by :func:`~repro.routing.engine.abstraction_digest`,
the same content hash the engine uses for cache invalidation — two
tenants asking for identical build parameters share one engine (and its
warm caches), and a rebuilt abstraction with different content gets a
fresh key.  Each registered instance owns a
:class:`~repro.service.batching.EngineWorker`; the registry never hands
out raw engines.

Construction happens off the event loop (``asyncio.to_thread``) and is
serialized by an :class:`asyncio.Lock` — building an abstraction is
seconds of CPU at service scale, and two concurrent creates for the same
parameters must not race into duplicate registrations.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

from ..analysis.experiments import make_instance
from ..routing.engine import QueryEngine, abstraction_digest
from ..scenarios.generators import InfeasibleScenario
from ..simulation.metrics import MetricsCollector
from .batching import EngineWorker
from .contracts import ContractError, MODES

__all__ = ["InstanceRegistry", "ServiceInstance"]


@dataclass
class ServiceInstance:
    """One served abstraction and its serialized engine worker."""

    digest: str
    n: int
    holes: int
    mode: str
    params: dict[str, Any]
    worker: EngineWorker
    metrics: MetricsCollector

    def describe(self) -> dict[str, Any]:
        """JSON-ready summary row for ``GET /v1/instances``."""
        return {
            "digest": self.digest,
            "n": self.n,
            "holes": self.holes,
            "mode": self.mode,
            "params": dict(self.params),
        }


class InstanceRegistry:
    """Digest-keyed registry of served instances.

    Parameters mirror :class:`EngineWorker`'s knobs and apply to every
    instance the registry creates; ``caching=False`` builds cache-less
    engines (differential/debugging runs).
    """

    def __init__(
        self,
        *,
        caching: bool = True,
        max_batch: int = 512,
        batch_window: float = 0.0,
        queue_limit: int | None = None,
    ) -> None:
        self.caching = caching
        self.max_batch = max_batch
        self.batch_window = batch_window
        self.queue_limit = queue_limit
        self._instances: dict[str, ServiceInstance] = {}
        self._order: list[str] = []
        self._build_lock = asyncio.Lock()

    # -- registration --------------------------------------------------------
    def register(
        self,
        abstraction: Any,
        *,
        udg: Any | None = None,
        mode: str = "hull",
        params: dict[str, Any] | None = None,
    ) -> ServiceInstance:
        """Register a prebuilt abstraction; idempotent per content digest.

        Benchmarks and tests use this to serve an instance they already
        built; ``udg`` defaults to the abstraction's own adjacency (pass
        the true UDG for faithful ``optimal`` values).
        """
        if mode not in MODES:
            raise ValueError(f"unknown router mode {mode!r}")
        digest = abstraction_digest(abstraction)
        existing = self._instances.get(digest)
        if existing is not None:
            if mode != existing.mode:
                raise ContractError(
                    f"instance {digest[:12]} is already registered with "
                    f"mode {existing.mode!r}; the digest keys content, not "
                    "mode — rebuild or reuse the registered mode",
                    status=409,
                    code="mode_conflict",
                )
            return existing
        metrics = MetricsCollector()
        engine = QueryEngine(
            abstraction,
            mode,
            udg=udg,
            caching=self.caching,
            metrics=metrics if self.caching else None,
        )
        holes = sum(1 for h in abstraction.holes if not h.is_outer)
        instance = ServiceInstance(
            digest=digest,
            n=len(abstraction.points),
            holes=holes,
            mode=mode,
            params=dict(params or {}),
            worker=EngineWorker(
                engine,
                metrics=metrics,
                max_batch=self.max_batch,
                batch_window=self.batch_window,
                max_queue_depth=self.queue_limit,
            ),
            metrics=metrics,
        )
        # The hit path above guards `mode`; `udg` and `params` stay out of
        # the key deliberately (see the noqa audit).
        self._instances[digest] = instance  # repro: noqa[RPR201] udg is the abstraction's own adjacency derived from the digested content, and params is display metadata only
        self._order.append(digest)
        return instance

    async def create(self, params: dict[str, Any]) -> ServiceInstance:
        """Build an instance from validated parameters and register it.

        ``params`` is the output of
        :func:`~repro.service.contracts.parse_instance_body`.  The build
        runs in a thread; an :class:`InfeasibleScenario` surfaces as a
        422 :class:`ContractError`.
        """
        build = {k: v for k, v in params.items() if k != "mode"}
        mode = params.get("mode", "hull")
        async with self._build_lock:  # repro: noqa[RPR303] serializing concurrent builds is this lock's purpose: duplicate builds of one digest cost seconds of CPU, queueing costs a wait
            try:
                inst = await asyncio.to_thread(make_instance, **build)
            except InfeasibleScenario as exc:
                raise ContractError(
                    f"infeasible scenario: {exc}",
                    status=422,
                    code="infeasible_scenario",
                ) from exc
            # register() constructs the QueryEngine (cache binds are CPU
            # work at service scale) — keep it off the event loop too.
            return await asyncio.to_thread(
                self.register,
                inst.abstraction,
                udg=inst.graph.udg,
                mode=mode,
                params={**build, "mode": mode},
            )

    # -- lookup --------------------------------------------------------------
    def get(self, digest: str | None) -> ServiceInstance:
        """Resolve an instance; ``None`` means the default (first) one.

        Digest prefixes of at least 8 hex chars resolve when unambiguous,
        so clients can pass the short form the CLI prints.  An exact
        64-char digest always wins even when it happens to prefix
        nothing; a prefix matching several instances is a deterministic
        409 (``ambiguous_instance``) rather than first-registered-wins —
        which instance "first" is depends on registration order the
        client can't see.
        """
        if digest is None:
            if not self._order:
                raise ContractError(
                    "no instances registered",
                    status=404,
                    code="no_instances",
                )
            return self._instances[self._order[0]]
        found = self._instances.get(digest)
        if found is not None:
            return found
        if len(digest) >= 8:
            matches = sorted(d for d in self._order if d.startswith(digest))
            if len(matches) == 1:
                return self._instances[matches[0]]
            if len(matches) > 1:
                shown = ", ".join(d[:12] for d in matches)
                raise ContractError(
                    f"instance prefix {digest!r} is ambiguous "
                    f"({len(matches)} matches: {shown})",
                    status=409,
                    code="ambiguous_instance",
                )
        raise ContractError(
            f"unknown instance {digest!r}",
            status=404,
            code="unknown_instance",
        )

    async def rebind(
        self,
        digest: str | None,
        abstraction: Any,
        udg: Any | None = None,
    ) -> dict[str, Any]:
        """Rebind a live instance onto a rebuilt abstraction.

        The rebind runs through the instance's worker queue (strictly
        serialized with query traffic; every cache is flushed), then
        the registry re-keys the instance under the new content digest —
        its position in :attr:`_order` is preserved so the default
        instance stays default across churn.  Returns the worker's
        rebind record (new digest, flush detail, wall time).
        """
        instance = self.get(digest)
        record = await instance.worker.rebind(abstraction, udg)
        new_digest = record["digest"]
        if new_digest != instance.digest:
            position = self._order.index(instance.digest)
            del self._instances[instance.digest]
            instance.digest = new_digest
            self._order[position] = new_digest
            self._instances[new_digest] = instance
        instance.n = len(abstraction.points)
        instance.holes = sum(
            1 for h in abstraction.holes if not h.is_outer
        )
        return record

    def list(self) -> list[dict[str, Any]]:
        """Summary rows in registration order."""
        return [self._instances[d].describe() for d in self._order]

    def __len__(self) -> int:
        return len(self._instances)

    async def close(self) -> None:
        """Stop every worker (drains queued work first)."""
        for digest in self._order:
            await self._instances[digest].worker.stop()
