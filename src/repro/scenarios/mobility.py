"""Bounded-speed mobility for the dynamic scenario (§6).

The paper's dynamic model lets nodes move in each timestep while keeping the
UDG connected; the hole abstraction is then recomputed periodically (cheaply,
once the overlay tree exists).  :class:`MobilityModel` implements a
random-drift walk with per-step speed bound, domain clamping, hole avoidance
and a connectivity guard: a step that would disconnect the UDG is rejected
and retried with smaller motion, which realizes exactly the "nodes move while
keeping UDG(V) connected" assumption.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator, Sequence

import numpy as np

from ..geometry.polygon import polygon_contains_any
from ..graphs.udg import is_connected, unit_disk_graph
from .generators import Scenario

__all__ = ["MobilityModel", "ChurnEvent", "churn_schedule"]


@dataclass(frozen=True)
class ChurnEvent:
    """One step of a serving-under-churn workload.

    ``kind`` is ``"move"`` (one bounded-speed mobility step of a random
    ``fraction`` of the nodes), ``"join"`` or ``"leave"`` (``count`` nodes
    arrive/depart via :meth:`MobilityModel.churn`).
    """

    kind: str
    count: int = 0
    fraction: float = 1.0


def churn_schedule(
    steps: int,
    *,
    seed: int = 0,
    p_join: float = 0.1,
    p_leave: float = 0.1,
    batch: int = 1,
    move_fraction: float = 1.0,
) -> list[ChurnEvent]:
    """Deterministic move/join/leave event stream for churn experiments.

    Each step is independently a ``leave`` (probability ``p_leave``), a
    ``join`` (``p_join``) or a mobility ``move`` of a random
    ``move_fraction`` of the nodes (the rest stand still, so most holes
    keep their shape from one step to the next); join and leave events affect ``batch`` nodes.  Same seed, same schedule
    — the differential suites replay one schedule against two serving
    stacks.
    """
    if p_join < 0 or p_leave < 0 or p_join + p_leave > 1:
        raise ValueError("join/leave probabilities must be within [0, 1]")
    rng = np.random.default_rng(seed)
    events: list[ChurnEvent] = []
    for _ in range(steps):
        r = float(rng.random())
        if r < p_leave:
            events.append(ChurnEvent("leave", batch))
        elif r < p_leave + p_join:
            events.append(ChurnEvent("join", batch))
        else:
            events.append(ChurnEvent("move", fraction=move_fraction))
    return events


@dataclass
class MobilityModel:
    """Random-drift mobility with bounded speed and connectivity guard.

    Parameters
    ----------
    scenario:
        Starting instance; its holes remain static obstacles.
    speed:
        Maximum per-step displacement of any node (the bounded-movement-speed
        model the paper's future-work section sketches).
    seed:
        RNG seed.
    max_retries:
        How many times a rejected (disconnecting) step is retried with the
        motion halved before the step is skipped entirely.
    """

    scenario: Scenario
    speed: float = 0.05
    seed: int = 0
    max_retries: int = 4

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)
        self._points = self.scenario.points.copy()
        #: Per-node persistent drift direction (smooth trajectories).
        ang = self._rng.uniform(0, 2 * np.pi, size=len(self._points))
        self._drift = np.column_stack([np.cos(ang), np.sin(ang)])

    @property
    def points(self) -> np.ndarray:
        """Current node positions (view of internal state — do not mutate)."""
        return self._points

    def _propose(
        self, scale: float, mask: np.ndarray | None = None
    ) -> np.ndarray:
        rng = self._rng
        n = len(self._points)
        # Smoothly rotate each node's drift, then take a bounded step.
        turn = rng.normal(0.0, 0.3, size=n)
        cos_t, sin_t = np.cos(turn), np.sin(turn)
        dx = self._drift[:, 0] * cos_t - self._drift[:, 1] * sin_t
        dy = self._drift[:, 0] * sin_t + self._drift[:, 1] * cos_t
        self._drift = np.column_stack([dx, dy])
        step = self._drift * (scale * rng.uniform(0.2, 1.0, size=(n, 1)))
        prop = self._points + step
        if mask is not None:
            prop[~mask] = self._points[~mask]
        prop[:, 0] = np.clip(prop[:, 0], 0.0, self.scenario.width)
        prop[:, 1] = np.clip(prop[:, 1], 0.0, self.scenario.height)
        # Nodes may not enter holes: any that would are held in place.
        inside = np.zeros(n, dtype=bool)
        for poly in self.scenario.hole_polygons:
            inside |= polygon_contains_any(poly, prop)
        prop[inside] = self._points[inside]
        return prop

    def step(self, fraction: float = 1.0) -> np.ndarray:
        """Advance one timestep; returns the new positions.

        ``fraction`` < 1 moves only a random subset of the nodes (localized
        movement); the default keeps the historical everything-drifts walk.
        Guarantees the returned configuration has a connected UDG (possibly
        by rejecting and shrinking the step, ultimately standing still).
        """
        mask: np.ndarray | None = None
        if fraction < 1.0:
            mask = self._rng.random(len(self._points)) < fraction
        scale = self.speed
        for _ in range(self.max_retries):
            prop = self._propose(scale, mask)
            adj = unit_disk_graph(prop, radius=self.scenario.radius)
            if is_connected(adj):
                self._points = prop
                return self._points
            scale *= 0.5
        return self._points

    def run(self, steps: int) -> Iterator[np.ndarray]:
        """Yield positions after each of ``steps`` timesteps."""
        for _ in range(steps):
            yield self.step()

    def apply(self, event: ChurnEvent) -> np.ndarray:
        """Apply one :class:`ChurnEvent`; returns the new positions.

        ``move`` keeps the node id space, so client pair pools stay valid;
        ``join``/``leave`` re-densify ids, so callers must treat the result
        as a fresh instance.  Either way the caller rebuilds the
        abstraction and rebinds its engine, which flushes every cache.
        """
        if event.kind == "move":
            return self.step(event.fraction)
        if event.kind == "join":
            return self.churn(join=event.count)
        if event.kind == "leave":
            return self.churn(leave=event.count)
        raise ValueError(f"unknown churn event kind {event.kind!r}")

    # -- churn (§7: joining and leaving nodes) -------------------------------
    def churn(self, leave: int = 0, join: int = 0) -> np.ndarray:
        """Remove ``leave`` random nodes and add ``join`` new ones.

        The paper's future-work dynamics: departures are rejected when they
        would disconnect the UDG (the corresponding phone simply stays until
        the topology can spare it); arrivals appear within radio range of an
        existing node, so connectivity is preserved by construction.  Node
        indices are re-densified — callers should treat the returned array
        as a fresh instance and re-run the (cheap, §6) recomputation.
        """
        rng = self._rng
        pts = self._points

        removed = 0
        attempts = 0
        while removed < leave and attempts < 20 * max(leave, 1):
            attempts += 1
            if len(pts) <= 2:
                break
            victim = int(rng.integers(0, len(pts)))
            candidate = np.delete(pts, victim, axis=0)
            if is_connected(unit_disk_graph(candidate, radius=self.scenario.radius)):
                pts = candidate
                removed += 1

        joined = 0
        attempts = 0
        while joined < join and attempts < 50 * max(join, 1):
            attempts += 1
            anchor = pts[int(rng.integers(0, len(pts)))]
            ang = rng.uniform(0, 2 * np.pi)
            rad = rng.uniform(0.2, 0.8) * self.scenario.radius
            cand = anchor + np.array([np.cos(ang), np.sin(ang)]) * rad
            if not (
                0 <= cand[0] <= self.scenario.width
                and 0 <= cand[1] <= self.scenario.height
            ):
                continue
            inside_hole = any(
                polygon_contains_any(poly, cand.reshape(1, 2))[0]
                for poly in self.scenario.hole_polygons
            )
            if inside_hole:
                continue
            pts = np.vstack([pts, cand])
            joined += 1

        self._points = pts
        ang = self._rng.uniform(0, 2 * np.pi, size=len(pts))
        self._drift = np.column_stack([np.cos(ang), np.sin(ang)])
        return self._points
