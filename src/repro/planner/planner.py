"""The query planner: parsed request + placement + live costs → RoutePlan.

Sits between classification and load balancing (the pipeline's ``plan``
stage): every read/write/batch gets an explicit
:class:`~repro.planner.plan.RoutePlan` derived from

* the parsed request (tables and statement class from
  :mod:`repro.core.requestparser`),
* a :class:`~repro.planner.placement.PlacementMap` over the enabled
  backends (RAIDb-2 replication map plus dynamic schema discovery), and
* the :class:`~repro.planner.cost.CostEstimator`'s live per-backend costs.

Plans are cached on the parsing-cache template (one plan per distinct SQL
shape), so re-executions skip planning entirely; the cache is validated
against a version counter bumped whenever membership, placement or schema
changes (backend enable/disable/add/remove, ``set_table_placement``, DDL).
A cached plan pins the *candidate set*, not the choice: the cheap argmin
over live stats still runs per execution, so routing keeps adapting to
queue depth and measured service times between invalidations.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.request import AbstractRequest, BatchWriteRequest, SelectRequest
from repro.errors import CJDBCError, NotReplicatedError
from repro.planner.cost import CostEstimator, RoutingWeights
from repro.planner.costmodel import CostModel
from repro.planner.placement import PlacementMap
from repro.planner.plan import (
    BATCH,
    BROADCAST,
    READ_SIMPLE,
    SCATTER_GATHER,
    SINGLE,
    WRITE,
    Fragment,
    RoutePlan,
)

#: routing policies: "cost" routes each read to the cheapest capable
#: backend; "policy" (the default, and the pre-planner behaviour) leaves
#: the choice to the balancer's configured read policy
ROUTING_POLICIES = ("cost", "policy")


@dataclass
class RoutingConfig:
    """Validated ``routing:`` section of a virtual database descriptor."""

    policy: str = "policy"            # cost | policy
    scatter_gather: bool = False
    weights: RoutingWeights = field(default_factory=RoutingWeights)
    #: service-time priors used before live EWMAs exist (None = defaults)
    cost_model: Optional[CostModel] = None

    def __post_init__(self):
        if self.policy not in ROUTING_POLICIES:
            raise CJDBCError(
                f"unknown routing policy {self.policy!r}"
                f" (expected one of: {', '.join(ROUTING_POLICIES)})"
            )


class QueryPlanner:
    """Build (and cache) route plans for one request manager."""

    def __init__(self, manager, config: Optional[RoutingConfig] = None):
        self._manager = manager
        self.config = config or RoutingConfig()
        self.cost_estimator = CostEstimator(
            weights=self.config.weights, cost_model=self.config.cost_model
        )
        self._version_lock = threading.Lock()
        self._version = 0
        self.plans_built = 0
        self.plan_cache_hits = 0
        self.invalidations = 0
        self.scatter_plans = 0

    # -- invalidation ---------------------------------------------------------------

    @property
    def version(self) -> int:
        with self._version_lock:
            return self._version

    def invalidate(self) -> None:
        """Drop every cached plan (placement/membership/schema changed)."""
        with self._version_lock:
            self._version += 1
            self.invalidations += 1

    # -- planning -------------------------------------------------------------------

    def plan_for_request(self, request: AbstractRequest) -> RoutePlan:
        """Plan one request, reusing the template-cached plan when valid."""
        template = request.template
        version = self.version
        cached = template.cached_plan
        # a write template instantiates both plain writes and batches, which
        # plan to different statement classes — only reuse a plan built for
        # the same shape
        if (
            cached is not None
            and cached[0] is self
            and cached[1] == version
            and (cached[2].category == "batch") == isinstance(request, BatchWriteRequest)
        ):
            self.plan_cache_hits += 1
            return cached[2]
        plan = self._build(request, version)
        template.cached_plan = (self, version, plan)
        return plan

    def explain(self, request: AbstractRequest) -> RoutePlan:
        """A fresh plan (bypassing the template cache) for EXPLAIN output."""
        return self._build(request, self.version)

    def _build(self, request: AbstractRequest, version: int) -> RoutePlan:
        enabled = self._manager.enabled_backends()
        if isinstance(request, SelectRequest):
            plan = self._plan_read(request, enabled)
        elif request.alters_database:
            plan = self._plan_write(request, enabled)
        else:
            raise CJDBCError(
                f"cannot plan a {type(request).__name__}; only reads, writes"
                f" and batches are routed through the planner"
            )
        plan.version = version
        self.plans_built += 1
        return plan

    def _plan_read(self, request: SelectRequest, enabled: Sequence) -> RoutePlan:
        statement_class = request.template.cost_class
        balancer = self._manager.load_balancer
        try:
            candidates = balancer.read_candidates(request, list(enabled))
        except NotReplicatedError:
            if not (self.config.scatter_gather and len(request.tables) > 1):
                raise
            return self._plan_scatter(request, enabled, statement_class)
        costs = self.cost_estimator.estimates(candidates, statement_class)
        chosen = costs[0].backend_name if costs and self.config.policy == "cost" else None
        return RoutePlan(
            kind=SINGLE,
            category="read",
            policy=self.config.policy,
            tables=tuple(request.tables),
            backend_names=tuple(backend.name for backend in candidates),
            statement_class=statement_class,
            candidates=tuple(costs),
            chosen=chosen,
            reason=(
                f"{balancer.placement_reason(request)};"
                f" {len(candidates)} capable backend(s)"
            ),
        )

    def _plan_scatter(
        self, request: SelectRequest, enabled: Sequence, statement_class: str
    ) -> RoutePlan:
        placement = PlacementMap(enabled)
        cover = placement.cover(request.tables)
        fragments = []
        fragment_costs = []
        for table in request.tables:
            # each fragment is a plain per-table scan: route it like a
            # simple read to the cheapest host of that table
            host_costs = self.cost_estimator.estimates(cover[table], READ_SIMPLE)
            cheapest = host_costs[0]
            fragments.append(
                Fragment(
                    backend_name=cheapest.backend_name,
                    table=table,
                    sql=f"SELECT * FROM {table}",
                )
            )
            fragment_costs.append(cheapest)
        self.scatter_plans += 1
        backend_names = tuple(dict.fromkeys(f.backend_name for f in fragments))
        return RoutePlan(
            kind=SCATTER_GATHER,
            category="read",
            policy=self.config.policy,
            tables=tuple(request.tables),
            backend_names=backend_names,
            statement_class=statement_class,
            candidates=tuple(fragment_costs),
            merge=request.template.merge,
            fragments=tuple(fragments),
            reason=(
                "no backend co-hosts all tables; per-table fragments scatter"
                " to the cheapest host of each partition"
            ),
        )

    def _plan_write(self, request: AbstractRequest, enabled: Sequence) -> RoutePlan:
        balancer = self._manager.load_balancer
        targets = balancer.write_targets(request, list(enabled))
        is_batch = isinstance(request, BatchWriteRequest)
        statement_class = BATCH if is_batch else WRITE
        costs = self.cost_estimator.estimates(targets, statement_class)
        return RoutePlan(
            kind=BROADCAST,
            category="batch" if is_batch else "write",
            policy=self.config.policy,
            tables=tuple(request.tables),
            backend_names=tuple(backend.name for backend in targets),
            statement_class=statement_class,
            candidates=tuple(costs),
            reason=f"minimal-cover broadcast to {len(targets)} backend(s)",
        )

    # -- monitoring -----------------------------------------------------------------

    def statistics(self) -> dict:
        return {
            "policy": self.config.policy,
            "scatter_gather": self.config.scatter_gather,
            "version": self.version,
            "plans_built": self.plans_built,
            "plan_cache_hits": self.plan_cache_hits,
            "invalidations": self.invalidations,
            "scatter_plans": self.scatter_plans,
            "cost_estimator": self.cost_estimator.statistics(),
        }


__all__ = ["QueryPlanner", "ROUTING_POLICIES", "RoutingConfig"]
