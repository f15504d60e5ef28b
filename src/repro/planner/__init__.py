"""Cost-based query planning: placement-aware routing for RAIDb clusters.

The planner subsystem turns each parsed request into an explicit
:class:`~repro.planner.plan.RoutePlan` before the load balancer runs —
single cheapest-capable backend for co-located reads, scatter-gather
fan-out with a merge operator for multi-table reads over disjoint RAIDb-2
partitions, and minimal-cover broadcast sets for writes.  Plans carry the
per-candidate cost estimates behind the decision, surfaced by the console
``explain`` command and the driver-level ``EXPLAIN ROUTE`` prefix.
"""

from repro.planner.cost import CostEstimator, RoutingWeights
from repro.planner.placement import PlacementMap
from repro.planner.plan import (
    BROADCAST,
    CandidateCost,
    Fragment,
    MERGE_AGGREGATE,
    MERGE_ORDERED,
    MERGE_UNION,
    RoutePlan,
    SCATTER_GATHER,
    SINGLE,
)
from repro.planner.planner import QueryPlanner, ROUTING_POLICIES, RoutingConfig
from repro.planner.scatter import ScatterGatherExecutor

__all__ = [
    "BROADCAST",
    "CandidateCost",
    "CostEstimator",
    "Fragment",
    "MERGE_AGGREGATE",
    "MERGE_ORDERED",
    "MERGE_UNION",
    "PlacementMap",
    "QueryPlanner",
    "ROUTING_POLICIES",
    "RoutePlan",
    "RoutingConfig",
    "RoutingWeights",
    "SCATTER_GATHER",
    "SINGLE",
    "ScatterGatherExecutor",
]
