"""Distributed execution of the routing protocol (§1.2 + §3/§4 end to end).

:class:`~repro.routing.router.HybridRouter` computes routes centrally for
benchmarking; this module executes the same protocol as actual message
forwarding over the synchronous hybrid simulator, with **node-local
decisions only**:

1. the source asks the target for its coordinates over a **long-range**
   link (the paper's opening move — s knows t's ID, so (s, t) ∈ E) and gets
   a reply: exactly two long-range messages per routing request;
2. the payload then travels over **ad hoc** links: each holder forwards
   greedily toward the next waypoint (a neighbor strictly closer to it);
3. a holder that is *stuck* — a local minimum, hence a hole-boundary node —
   plans waypoints **locally**: after the §5.5 hull distribution every node
   knows every hole hull, so it can evaluate the same Overlay-Delaunay
   waypoint computation the paper assigns to hull nodes (the shared
   :class:`RoutingDirectory` below models exactly that replicated
   knowledge, nothing more);
4. waypoint legs of kind ``arc`` carry their explicit boundary path (ring
   neighbors are LDel-adjacent), so they forward deterministically.

A greedy chew-leg may stall mid-leg at another boundary node; that node
replans from itself with the failing leg banned — the distributed analogue
of the router's replanning, and like it, loop-free because the banned set
rides along with the message.

The tests verify that this distributed execution delivers everything the
centralized router delivers, over ad hoc edges only, with exactly two
long-range control messages per request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.abstraction import Abstraction
from ..geometry.primitives import distance
from ..routing.bay_routing import LocateIndex, bay_waypoint_structures
from ..routing.waypoints import WaypointPlanner
from ..simulation.messages import Message
from ..simulation.node import NodeProcess
from ..simulation.scheduler import Context

__all__ = ["RoutingDirectory", "RoutingNodeProcess", "DeliveryRecord"]


class RoutingDirectory:
    """The hull knowledge every node holds after §5.5, as one shared object.

    All of its content (hole hulls, bay structures) was broadcast to every
    node by the hull-distribution stage; sharing one immutable instance
    across the node processes models that replication without copying it
    n times.
    """

    def __init__(self, abstraction: Abstraction, mode: str = "hull") -> None:
        """``mode="hull"`` replicates the §4 knowledge (Overlay Delaunay
        Graph of hull corners + bay structures); ``mode="visibility"``
        replicates §3 (the Visibility Graph of all boundary nodes)."""
        self.abstraction = abstraction
        self.mode = mode
        self._locate = LocateIndex(abstraction)
        if mode == "hull":
            groups, arcs = bay_waypoint_structures(abstraction)
            self.planner = WaypointPlanner(
                abstraction,
                vertices=abstraction.hull_nodes(),
                structure="delaunay",
                bay_groups=groups,
                bay_arc_edges=arcs,
            )
        elif mode == "visibility":
            self.planner = WaypointPlanner(
                abstraction,
                vertices=abstraction.boundary_nodes(),
                structure="visibility",
            )
        else:
            raise ValueError(f"unknown directory mode {mode!r}")

    def plan_from(
        self,
        node: int,
        target: int,
        banned: set[frozenset],
    ) -> list[tuple[str, list[int]]] | None:
        """Waypoint legs from ``node`` to ``target`` as forwardable steps.

        Returns a list of ``(kind, nodes)`` entries: for ``arc`` legs the
        explicit node path; for ``chew`` legs just ``[src, dst]`` (executed
        greedily hop by hop).
        """
        active: set[tuple[int, int]] = set()
        for v in (node, target):
            loc = self._locate.node(v)
            if loc is not None:
                active.add(loc.key)
        plan = self.planner.plan(node, target, active_bays=active, banned=banned)
        if plan is None:
            return None
        out: list[tuple[str, list[int]]] = []
        for leg in plan.legs:
            if leg.kind == "arc" and leg.path is not None:
                out.append(("arc", list(leg.path)))
            else:
                out.append(("chew", [leg.src, leg.dst]))
        return out


@dataclass
class DeliveryRecord:
    """Outcome of one simulated routing request, recorded at the target."""

    source: int
    target: int
    hops: list[int]
    delivered: bool
    rounds: int


class RoutingNodeProcess(NodeProcess):
    """Per-node forwarding logic of the distributed routing protocol.

    ``requests`` lists (target ids) this node should send a payload to; the
    position handshake and forwarding happen autonomously.  ``ldel_adj``
    is the node's LDel neighbor list (its routing links).
    """

    def __init__(
        self,
        node_id: int,
        position: tuple[float, float],
        neighbors: list[int],
        neighbor_positions: dict[int, tuple[float, float]],
        *,
        directory: RoutingDirectory,
        ldel_neighbors: list[int],
        requests: list[int] = (),
    ) -> None:
        super().__init__(node_id, position, neighbors, neighbor_positions)
        self.directory = directory
        self.ldel_neighbors = list(ldel_neighbors)
        self.requests = list(requests)
        # Targets we may address long-range: the model grants (s, t) ∈ E
        # for every routing request (§1.2 — "cell phone users wouldn't call
        # phones unknown to them").
        self.knowledge.update(self.requests)
        self.delivered: list[DeliveryRecord] = []
        self._round = 0
        # Idempotence under duplicated delivery: a payload's (source,
        # target, hop trail) identifies it uniquely — forwarding is loop-
        # free, so a redelivered copy matches exactly and is suppressed,
        # while a legitimate replan revisit carries a longer trail.
        self._seen: set[tuple[int, int, tuple[int, ...]]] = set()

    # -- helpers ---------------------------------------------------------------
    def _pos_of(self, node: int) -> tuple[float, float]:
        pts = self.directory.abstraction.points
        return (float(pts[node][0]), float(pts[node][1]))

    def _greedy_next(self, goal: int) -> int | None:
        """LDel neighbor strictly closer to ``goal``, or None (stuck)."""
        gp = self._pos_of(goal)
        here = distance(self.position, gp)
        best = None
        best_d = here
        for v in self.ldel_neighbors:
            d = distance(self._pos_of(v), gp)
            if d < best_d:
                best_d = d
                best = v
        return best

    # -- protocol --------------------------------------------------------------
    def start(self, ctx: Context) -> None:
        """Open the long-range position handshake for every request (§1.2)."""
        for t in self.requests:
            ctx.trace("route_launch", node=self.node_id, target=t)
            ctx.send_long_range(t, "pos_request", {"target": t})

    def on_round(self, ctx: Context, inbox: list[Message]) -> None:
        """Answer handshakes and forward payloads per the node-local rules."""
        self._round += 1
        for msg in inbox:
            kind = msg.kind
            if kind == "pos_request":
                ctx.send_long_range(
                    msg.sender,
                    "pos_reply",
                    {"x": self.position[0], "y": self.position[1]},
                )
            elif kind == "pos_reply":
                self._launch(ctx, msg.sender)
            elif kind == "payload":
                self._forward(ctx, msg.payload)
        self.done = True  # quiescence-driven: the runner uses run_until_quiet

    def _launch(self, ctx: Context, target: int) -> None:
        state = {
            "source": self.node_id,
            "target": target,
            "hops": [self.node_id],
            "legs": [],
            "banned": [],
            "round0": self._round,
        }
        self._forward(ctx, state)

    def _forward(self, ctx: Context, state: dict[str, Any]) -> None:
        target = state["target"]
        hops: list[int] = list(state["hops"])
        if hops[-1] != self.node_id:
            hops.append(self.node_id)
        state = {**state, "hops": hops}

        key = (state["source"], target, tuple(hops))
        if key in self._seen:
            return  # duplicated delivery — already handled this copy
        self._seen.add(key)

        if self.node_id == target:
            self.delivered.append(
                DeliveryRecord(
                    source=state["source"],
                    target=target,
                    hops=hops,
                    delivered=True,
                    rounds=self._round - state["round0"],
                )
            )
            ctx.trace(
                "route_deliver",
                source=state["source"],
                target=target,
                hops=len(hops) - 1,
            )
            return

        next_hop = self._decide(state, ctx)
        if next_hop is None:
            # Undeliverable under the protocol (never happens on instances
            # satisfying the paper's assumptions); drop and record nothing —
            # the test harness detects missing deliveries.
            ctx.trace(
                "route_undeliverable", node=self.node_id, target=target
            )
            return
        ctx.trace(
            "route_forward",
            node=self.node_id,
            target=target,
            next=next_hop,
        )
        ctx.send_adhoc(next_hop, "payload", state)

    def _decide(
        self, state: dict[str, Any], ctx: Context | None = None
    ) -> int | None:
        """Node-local next-hop choice; may mutate the leg plan in place."""
        target = state["target"]
        legs: list[tuple[str, list[int]]] = state["legs"]

        # Drop completed legs.
        while legs and (
            legs[0][1][-1] == self.node_id
            or (legs[0][0] == "arc" and self.node_id not in legs[0][1])
        ):
            legs.pop(0)

        if legs:
            kind, nodes = legs[0]
            if kind == "arc":
                idx = nodes.index(self.node_id)
                return nodes[idx + 1]
            goal = nodes[-1]
            nxt = self._greedy_next(goal)
            if nxt is not None:
                return nxt
            # Mid-leg stall: ban the leg and replan from here.
            if ctx is not None:
                ctx.trace(
                    "route_stuck", node=self.node_id, target=target, leg=goal
                )
            state["banned"] = list(state["banned"]) + [sorted(nodes)]
        else:
            nxt = self._greedy_next(target)
            if nxt is not None:
                return nxt

        banned = {frozenset(b) for b in state["banned"]}
        if ctx is not None:
            ctx.trace(
                "route_replan",
                node=self.node_id,
                target=target,
                banned=len(banned),
            )
        plan = self.directory.plan_from(self.node_id, target, banned)
        if plan is None:
            return None
        state["legs"] = plan
        legs = state["legs"]
        while legs and legs[0][1][-1] == self.node_id:
            legs.pop(0)
        if not legs:
            return None
        kind, nodes = legs[0]
        if kind == "arc":
            idx = nodes.index(self.node_id)
            return nodes[idx + 1]
        return self._greedy_next(nodes[-1])
