"""Routing algorithms: Chew's primitive, online baselines, and the paper's
visibility-graph (§3) and convex-hull (§4) protocols."""

from .chew import ChewResult, chew_route, crossed_edges
from .greedy import RouteResult, compass_route, greedy_route
from .face_routing import goafr_route, greedy_face_route
from .waypoints import Leg, WaypointPath, WaypointPlanner
from .bay_routing import (
    BayLocation,
    LocateIndex,
    bay_waypoint_structures,
    extreme_points,
    locate_node,
    locate_point,
)
from .router import HybridRouter, RouteOutcome
from .engine import EngineStats, QueryEngine, abstraction_digest
from .visibility_routing import delaunay_router, visibility_router
from .hull_routing import hull_router, overlay_delaunay_edges
from .intersecting import (
    adaptive_router,
    adaptive_vertex_set,
    hull_intersection_groups,
)
from .competitiveness import (
    CompetitivenessReport,
    PairRecord,
    evaluate_routing,
    sample_pairs,
)

__all__ = [
    "ChewResult",
    "chew_route",
    "crossed_edges",
    "RouteResult",
    "compass_route",
    "greedy_route",
    "greedy_face_route",
    "goafr_route",
    "Leg",
    "WaypointPath",
    "WaypointPlanner",
    "BayLocation",
    "LocateIndex",
    "bay_waypoint_structures",
    "extreme_points",
    "locate_node",
    "locate_point",
    "HybridRouter",
    "RouteOutcome",
    "EngineStats",
    "QueryEngine",
    "abstraction_digest",
    "delaunay_router",
    "visibility_router",
    "hull_router",
    "overlay_delaunay_edges",
    "adaptive_router",
    "adaptive_vertex_set",
    "hull_intersection_groups",
    "CompetitivenessReport",
    "PairRecord",
    "evaluate_routing",
    "sample_pairs",
]
