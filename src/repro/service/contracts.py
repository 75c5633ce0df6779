"""Wire contracts of the routing service.

The service speaks a small JSON protocol; this module owns both sides of
it — request validation (raising :class:`ContractError`, which the HTTP
layer maps to a 4xx response) and response payload construction.

Payload construction is deliberately shared with the in-process paths:
the CLI's route tables, the differential checks in the service tests
and the repository benchmark's byte oracle (``servebench/``) all build
their expected rows through the same
:func:`route_record` / :func:`outcome_payload` functions.  Serialized
with ``json.dumps(..., sort_keys=True)`` on both sides, a served response
is therefore byte-identical to the answer a local
:class:`~repro.routing.engine.QueryEngine` produces — the property the
acceptance criterion "0 mismatches" pins.

Scoring follows the evaluation-path rules (PR 3, mirrored here via
:class:`~repro.routing.competitiveness.PairRecord`):

* an **unreachable** pair (infinite optimum) is reported non-delivered
  with ``stretch: null`` — an infinite optimum can never fabricate a
  perfect score;
* a degenerate ``s == t`` query has a zero-length optimum; its delivered
  zero-length path is exactly optimal and scores **stretch 1.0**.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np

from ..routing.bay_routing import BayLocation
from ..routing.competitiveness import PairRecord
from ..routing.router import RouteOutcome

__all__ = [
    "ContractError",
    "MODES",
    "MAX_BATCH_PAIRS",
    "route_record",
    "outcome_payload",
    "locate_payload",
    "parse_route_body",
    "parse_batch_body",
    "parse_locate_body",
    "parse_instance_body",
]

#: Router modes the service accepts (the :class:`HybridRouter` variants).
MODES = ("hull", "visibility", "delaunay")

#: Upper bound on pairs in one batch request (backpressure guard).
MAX_BATCH_PAIRS = 4096

#: Bounds for instance-creation parameters — a multi-tenant front door
#: must not let one request ask for an unboundedly large construction.
_INSTANCE_BOUNDS = {
    "width": (4.0, 64.0),
    "height": (4.0, 64.0),
    "hole_count": (0, 16),
    "hole_scale": (0.5, 8.0),
    "spacing": (0.2, 2.0),
}


class ContractError(ValueError):
    """Invalid request payload; the HTTP layer maps it to ``status``."""

    def __init__(
        self, message: str, *, status: int = 400, code: str = "invalid_request"
    ) -> None:
        super().__init__(message)
        self.status = status
        self.code = code

    def payload(self) -> dict[str, Any]:
        """The JSON error envelope served for this failure."""
        return {"error": {"code": self.code, "message": str(self)}}


# -- response payloads -------------------------------------------------------
def route_record(
    outcome: RouteOutcome, points: np.ndarray, optimal: float
) -> PairRecord:
    """Evaluation-path scoring of one outcome (PR 3's rules).

    ``delivered`` is the router's verdict gated on reachability, and
    ``PairRecord.stretch`` supplies the guarded ratio — ``1.0`` for a
    delivered ``s == t`` query, ``inf`` (rendered as absent) for
    unreachable or undelivered pairs.
    """
    reachable = math.isfinite(optimal)
    return PairRecord(
        source=outcome.source,
        target=outcome.target,
        delivered=bool(outcome.reached) and reachable,
        path_length=outcome.length(points),
        optimal=optimal,
        case=outcome.case,
        used_fallback=bool(outcome.used_fallback),
        reachable=reachable,
    )


def outcome_payload(
    outcome: RouteOutcome, points: np.ndarray, optimal: float
) -> dict[str, Any]:
    """JSON-ready dict for one routed pair (the service's result row)."""
    rec = route_record(outcome, points, optimal)
    stretch = rec.stretch
    return {
        "source": int(outcome.source),
        "target": int(outcome.target),
        "path": [int(v) for v in outcome.path],
        "waypoints": [int(v) for v in outcome.waypoints],
        "case": outcome.case,
        "reached": bool(outcome.reached),
        "reachable": rec.reachable,
        "delivered": rec.delivered,
        "used_fallback": rec.used_fallback,
        "replans": int(outcome.replans),
        "hops": len(outcome.path) - 1,
        "length": rec.path_length,
        "optimal": rec.optimal if rec.reachable else None,
        "stretch": stretch if math.isfinite(stretch) else None,
    }


def locate_payload(node: int, location: BayLocation | None) -> dict[str, Any]:
    """JSON-ready dict for one §4.3 bay classification."""
    return {
        "node": int(node),
        "location": None
        if location is None
        else {
            "hole_id": int(location.hole_id),
            "bay_index": int(location.bay_index),
        },
    }


# -- request validation ------------------------------------------------------
def _require_mapping(payload: Any) -> dict[str, Any]:
    if not isinstance(payload, dict):
        raise ContractError("request body must be a JSON object")
    return payload


def _require_node(payload: dict[str, Any], key: str, n: int) -> int:
    value = payload.get(key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ContractError(f"{key!r} must be an integer node id")
    if not 0 <= value < n:
        raise ContractError(f"{key!r} must be in [0, {n}), got {value}")
    return value


def _parse_mode(payload: dict[str, Any]) -> str | None:
    mode = payload.get("mode")
    if mode is None:
        return None
    if mode not in MODES:
        raise ContractError(
            f"unknown mode {mode!r} (expected one of {', '.join(MODES)})"
        )
    return str(mode)


def parse_route_body(
    payload: Any, n: int
) -> tuple[list[tuple[int, int]], str | None]:
    """Validate a single-route body: ``{"source", "target", "mode"?}``."""
    body = _require_mapping(payload)
    s = _require_node(body, "source", n)
    t = _require_node(body, "target", n)
    return [(s, t)], _parse_mode(body)


def parse_batch_body(
    payload: Any, n: int
) -> tuple[list[tuple[int, int]], str | None]:
    """Validate a batch body: ``{"pairs": [[s, t], ...], "mode"?}``."""
    body = _require_mapping(payload)
    raw = body.get("pairs")
    if not isinstance(raw, list) or not raw:
        raise ContractError("'pairs' must be a non-empty list of [s, t] pairs")
    if len(raw) > MAX_BATCH_PAIRS:
        raise ContractError(
            f"batch of {len(raw)} pairs exceeds the {MAX_BATCH_PAIRS} limit",
            status=413,
            code="batch_too_large",
        )
    pairs: list[tuple[int, int]] = []
    for i, item in enumerate(raw):
        if not isinstance(item, (list, tuple)) or len(item) != 2:
            raise ContractError(f"pairs[{i}] must be a [source, target] pair")
        pair = {"source": item[0], "target": item[1]}
        pairs.append(
            (_require_node(pair, "source", n), _require_node(pair, "target", n))
        )
    return pairs, _parse_mode(body)


def parse_locate_body(payload: Any, n: int) -> list[int]:
    """Validate a locate body: ``{"node"}`` or ``{"nodes": [...]}``."""
    body = _require_mapping(payload)
    if "node" in body:
        return [_require_node(body, "node", n)]
    raw = body.get("nodes")
    if not isinstance(raw, list) or not raw:
        raise ContractError("locate needs 'node' or a non-empty 'nodes' list")
    if len(raw) > MAX_BATCH_PAIRS:
        raise ContractError(
            f"locate batch of {len(raw)} exceeds the {MAX_BATCH_PAIRS} limit",
            status=413,
            code="batch_too_large",
        )
    return [_require_node({"node": v}, "node", n) for v in raw]


def parse_instance_body(payload: Any) -> dict[str, Any]:
    """Validate an instance-creation body; returns build parameters.

    Accepted keys (all optional, defaults in parentheses): ``width`` (12),
    ``height`` (= width), ``hole_count`` (2), ``hole_scale`` (2.0),
    ``seed`` (0), ``spacing`` (0.55), ``mode`` ("hull").  Ranges are
    clamped by :data:`_INSTANCE_BOUNDS` — the service builds instances on
    demand, so a tenant cannot request an arbitrarily large construction.
    """
    body = _require_mapping(payload)
    params: dict[str, Any] = {
        "width": 12.0,
        "hole_count": 2,
        "hole_scale": 2.0,
        "seed": 0,
        "spacing": 0.55,
    }
    for key in ("width", "height", "hole_scale", "spacing"):
        if key in body:
            value = body[key]
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ContractError(f"{key!r} must be a number")
            params[key] = float(value)
    for key in ("hole_count", "seed"):
        if key in body:
            value = body[key]
            if isinstance(value, bool) or not isinstance(value, int):
                raise ContractError(f"{key!r} must be an integer")
            params[key] = value
    params.setdefault("height", params["width"])
    for key, (lo, hi) in _INSTANCE_BOUNDS.items():
        value = params.get(key)
        if value is not None and not lo <= value <= hi:
            raise ContractError(f"{key!r} must be in [{lo}, {hi}], got {value}")
    mode = _parse_mode(body) or "hull"
    params["mode"] = mode
    return params
