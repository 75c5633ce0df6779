"""The hybrid router: case dispatch and end-to-end route execution (§3/§4).

:class:`HybridRouter` is the library's main entry point.  Given a hole
abstraction it precomputes the waypoint structure of the chosen protocol
variant and then answers ``route(s, t)`` queries:

1. **Chew first** (§3): send toward the target along the st corridor; if it
   arrives, the path is 5.9-competitive outright (Theorem 2.11).
2. On hitting a hole node h₀, **plan waypoints** from h₀ to t over the
   protocol's structure — the Visibility Graph of hole nodes (§3), its
   Delaunay thinning, or the Overlay Delaunay Graph of hull corners (§4) —
   activating the bay structures of any hole whose hull contains a
   terminal or h₀ (cases 2–5 of §4.3).
3. **Execute** the waypoint path leg by leg: ``chew`` legs via Chew's
   algorithm (between visible waypoints — Theorem 4.8), ``arc`` legs by
   walking the hole boundary (consecutive ring nodes are LDel-adjacent).

A Chew leg that unexpectedly blocks triggers a bounded number of re-plans
from the blocking node; if planning itself fails the router falls back to a
shortest-path oracle on the ad hoc graph and *flags* it — benchmarks report
the fallback rate (it is zero on instances satisfying the paper's
assumptions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from ..core.abstraction import Abstraction
from ..geometry.primitives import distance
from ..graphs.shortest_paths import euclidean_shortest_path
from .bay_routing import BayLocation, bay_waypoint_structures, locate_node
from .chew import chew_route
from .waypoints import WaypointPlanner

__all__ = ["HybridRouter", "RouteOutcome"]


@dataclass
class RouteOutcome:
    """Everything a route query produced."""

    source: int
    target: int
    path: list[int]
    reached: bool
    #: paper case: "visible", or "1".."5" per §4.3's position analysis
    case: str
    waypoints: list[int] = field(default_factory=list)
    chew_legs: int = 0
    replans: int = 0
    used_fallback: bool = False

    def length(self, points: np.ndarray) -> float:
        """Euclidean length of the delivered path."""
        return sum(
            distance(points[a], points[b])
            for a, b in zip(self.path, self.path[1:])
        )


class HybridRouter:
    """Routing facade over a hole abstraction.

    Parameters
    ----------
    abstraction:
        Built centrally (:func:`repro.core.build_abstraction`) or by the
        distributed pipeline (§5).
    mode:
        * ``"hull"`` — §4: waypoints are convex-hull corners (Overlay
          Delaunay Graph), bays activated on demand; the paper's headline
          protocol (35.37-competitive bound).
        * ``"visibility"`` — §3: waypoints are *all* boundary nodes with
          full visibility edges (17.7-competitive bound, Θ(h²) space).
        * ``"delaunay"`` — §3's space reduction: boundary nodes with
          Delaunay-filtered edges (35.37 bound, O(h) space).
    max_replans:
        Bound on re-planning after unexpected Chew blocks.
    locator:
        Optional replacement for :func:`locate_node` — the
        :class:`~repro.routing.engine.QueryEngine` injects its memoized bay
        classifier here so repeated queries don't re-run the geometric
        location tests.  Must be observationally identical to the default.
    """

    def __init__(
        self,
        abstraction: Abstraction,
        mode: str = "hull",
        max_replans: int = 4,
        *,
        locator: Callable[[int], BayLocation | None] | None = None,
    ) -> None:
        if mode not in ("hull", "visibility", "delaunay"):
            raise ValueError(f"unknown router mode {mode!r}")
        self.abstraction = abstraction
        self.graph = abstraction.graph
        self.mode = mode
        self.max_replans = max_replans
        self._locate = (
            locator
            if locator is not None
            else lambda node: locate_node(self.abstraction, node)
        )
        self._tri_of_edge = self._build_tri_of_edge()

        if mode == "hull":
            vertices = abstraction.hull_nodes()
            structure = "delaunay"
            bay_groups, bay_arcs = bay_waypoint_structures(abstraction)
        else:
            vertices = abstraction.boundary_nodes()
            structure = "visibility" if mode == "visibility" else "delaunay"
            bay_groups, bay_arcs = {}, {}
        self.planner = WaypointPlanner(
            abstraction,
            vertices=vertices,
            structure=structure,
            bay_groups=bay_groups,
            bay_arc_edges=bay_arcs,
        )

    def _build_tri_of_edge(self):
        out: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
        for tri in self.graph.triangles:
            a, b, c = tri
            for e in ((a, b), (b, c), (a, c)):
                out.setdefault(e, []).append(tri)
        return out

    # -- case analysis (§4.3) ------------------------------------------------------
    def classify(self, s: int, t: int) -> tuple[str, BayLocation | None, BayLocation | None]:
        """Position case analysis of §4.3: which hulls contain the terminals."""
        loc_s = self._locate(s)
        loc_t = self._locate(t)
        if loc_s is None and loc_t is None:
            case = "1"
        elif loc_s is None or loc_t is None:
            case = "2"
        elif loc_s.hole_id != loc_t.hole_id:
            case = "3"
        elif loc_s.bay_index != loc_t.bay_index:
            case = "4"
        else:
            case = "5"
        return case, loc_s, loc_t

    # -- main entry point --------------------------------------------------------------
    def route(self, s: int, t: int) -> RouteOutcome:
        """Route a message from node ``s`` to node ``t``."""
        case, loc_s, loc_t = self.classify(s, t)

        first = chew_route(self.graph, s, t, tri_of_edge=self._tri_of_edge)
        if first.reached:
            return RouteOutcome(
                source=s,
                target=t,
                path=first.path,
                reached=True,
                case="visible",
                chew_legs=1,
            )

        h0 = first.blocked_at if first.blocked_at is not None else s
        path: list[int] = list(first.path)
        active_bays: set[tuple[int, int]] = set()
        for loc in (loc_s, loc_t, self._locate(h0)):
            if loc is not None:
                active_bays.add(loc.key)

        outcome = RouteOutcome(
            source=s, target=t, path=path, reached=False, case=case, chew_legs=1
        )
        self._execute_from(outcome, h0, t, active_bays)
        return outcome

    # -- leg execution ---------------------------------------------------------------------
    def _execute_from(
        self,
        outcome: RouteOutcome,
        start: int,
        target: int,
        active_bays: set[tuple[int, int]],
    ) -> None:
        current = start
        replans = 0
        banned: set[frozenset] = set()
        while current != target:
            plan = self.planner.plan(
                current, target, active_bays=active_bays, banned=banned
            )
            if plan is None:
                self._fallback(outcome, current, target)
                return
            outcome.waypoints.extend(plan.nodes[1:])
            blocked: int | None = None
            for leg in plan.legs:
                if leg.kind == "arc" and leg.path is not None:
                    outcome.path.extend(leg.path[1:])
                    current = leg.dst
                    continue
                res = chew_route(
                    self.graph, leg.src, leg.dst, tri_of_edge=self._tri_of_edge
                )
                outcome.chew_legs += 1
                outcome.path.extend(res.path[1:])
                if res.reached:
                    current = leg.dst
                    continue
                # The leg was geometrically visible but not Chew-routable
                # (e.g. a sight line grazing a hole boundary): exclude it
                # from subsequent plans so replanning makes progress.
                banned.add(frozenset((leg.src, leg.dst)))
                blocked = res.blocked_at if res.blocked_at is not None else leg.src
                current = blocked
                break
            if blocked is None:
                break  # all legs done
            replans += 1
            outcome.replans = replans
            loc = self._locate(blocked)
            if loc is not None:
                active_bays.add(loc.key)
            if replans > self.max_replans:
                self._fallback(outcome, current, target)
                return
        outcome.reached = current == target
        if not outcome.reached:
            self._fallback(outcome, current, target)

    def _fallback(self, outcome: RouteOutcome, current: int, target: int) -> None:
        """Shortest-path rescue on the ad hoc graph (flagged, never silent)."""
        outcome.used_fallback = True
        try:
            rest, _ = euclidean_shortest_path(
                self.graph.points, self.graph.adjacency, current, target
            )
        except ValueError:
            outcome.reached = False
            return
        outcome.path.extend(rest[1:])
        outcome.reached = True
