"""Copy-on-write instance store for multi-process serving.

One built abstraction, N serving processes, no N copies: the store keeps
each published instance exactly once, keyed by its
:func:`~repro.routing.engine.abstraction_digest`, and hands it to worker
processes by **fork inheritance**.  The store holds the live
``(abstraction, udg)`` objects; a worker forked *after* ``publish`` sees
them through copy-on-write page sharing.  Building one engine per worker
over the shared abstraction costs only the engine's own (empty) caches —
the abstraction's points, holes, rings, and adjacency are physical pages
shared with the parent until someone writes them, and nobody writes them:
the serving path treats bound abstractions as immutable (the same
invariant engine cache keying already relies on).  The
:class:`~repro.service.supervisor.ServiceSupervisor` always forks its
workers, so a store that did not fork from the publisher has nothing to
load.

The store is deliberately not a registry: it owns object graphs, not
engines.  Each worker process builds its own
:class:`~repro.service.registry.InstanceRegistry` over ``load()``-ed
instances so that engines, caches, and metrics are strictly per-process
(fork-safety: mutable state created pre-fork must not be shared
post-fork — the store shares only the immutable inputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..routing.engine import abstraction_digest

__all__ = ["InstanceStore", "StoredInstance"]


@dataclass
class StoredInstance:
    """One published instance: identity and metadata."""

    digest: str
    mode: str
    n: int
    holes: int
    params: dict[str, Any] = field(default_factory=dict)


class InstanceStore:
    """Digest-keyed store of built instances shared with forked workers."""

    def __init__(self) -> None:
        self._entries: dict[str, StoredInstance] = {}
        #: digest -> (abstraction, udg) — the fork-inherited live objects
        self._live: dict[str, tuple[Any, Any]] = {}

    def publish(
        self,
        abstraction: Any,
        udg: Any | None = None,
        *,
        mode: str = "hull",
        params: dict[str, Any] | None = None,
    ) -> StoredInstance:
        """Publish a built instance; idempotent per content digest."""
        digest = abstraction_digest(abstraction)
        entry = self._entries.get(digest)
        if entry is None:
            holes = sum(1 for h in abstraction.holes if not h.is_outer)
            entry = StoredInstance(
                digest=digest,
                mode=mode,
                n=len(abstraction.points),
                holes=holes,
                params=dict(params or {}),
            )
            self._entries[digest] = entry
            self._live[digest] = (abstraction, udg)
        return entry

    def load(self, digest: str) -> tuple[Any, Any]:
        """The live ``(abstraction, udg)`` behind ``digest`` — zero copies."""
        try:
            return self._live[digest]
        except KeyError:
            raise KeyError(f"unknown instance {digest!r}") from None

    def entries(self) -> list[StoredInstance]:
        """Entries in publication order."""
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        return digest in self._entries
