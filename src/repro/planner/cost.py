"""Per-backend cost estimation for route planning.

The estimates promote the static :mod:`repro.planner.costmodel` service
times into *live* per-backend figures: each backend tracks an EWMA of its
measured service time per statement class (see
:meth:`repro.core.backend.DatabaseBackend.planner_inputs`), and the
estimator combines that with the backend's pending queue depth and
connection-pool pressure::

    cost(backend, class) = service_time * (1 + w_pending * pending
                                             + w_pool * pool_pressure)

Before a backend has served a statement of a class, the cost-model prior
seeds the estimate (identical across backends, so initial traffic spreads
by the tie-break rotation and every backend gets measured quickly).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.errors import NoMoreBackendError
from repro.planner.costmodel import CostModel
from repro.planner.plan import (
    BATCH,
    READ_COMPLEX,
    READ_SIMPLE,
    WRITE,
    CandidateCost,
)


@dataclass(frozen=True)
class RoutingWeights:
    """Relative importance of the live signals in the cost formula."""

    #: multiplier on the backend's pending request count
    pending: float = 1.0
    #: multiplier on the connection-pool pressure fraction
    pool: float = 0.5
    #: multiplier on the service-time estimate itself
    service_time: float = 1.0


#: how often the chooser deliberately rotates off the cheapest backend, so
#: a backend that got slow (and stopped being chosen) is still re-probed
#: and its EWMA can recover
EXPLORATION_INTERVAL = 64


class CostEstimator:
    """Estimate and compare per-backend costs for a statement class."""

    def __init__(
        self,
        weights: Optional[RoutingWeights] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.weights = weights or RoutingWeights()
        model = cost_model or CostModel()
        #: priors used until a backend has measured a statement class
        self.seed_service_times = {
            READ_SIMPLE: model.read_simple,
            READ_COMPLEX: model.read_complex,
            WRITE: model.write_simple,
            BATCH: model.write_complex,
        }
        self._lock = threading.Lock()
        self._tie_breaker = 0
        self._choices = 0
        self.explorations = 0

    # -- estimation -----------------------------------------------------------------

    def _cost(self, service: Optional[float], pending: int, pool_pressure: float) -> float:
        weights = self.weights
        return (weights.service_time * service) * (
            1.0 + weights.pending * pending + weights.pool * pool_pressure
        )

    def estimate(self, backend, statement_class: str) -> CandidateCost:
        """One backend's live cost estimate for a statement class."""
        service, pending, pool_pressure = backend.planner_inputs(statement_class)
        source = "ewma"
        if service is None:
            service = self.seed_service_times.get(statement_class, 0.01)
            source = "seed"
        return CandidateCost(
            backend_name=backend.name,
            cost=self._cost(service, pending, pool_pressure),
            service_time=service,
            pending=pending,
            pool_pressure=pool_pressure,
            source=source,
        )

    def estimates(self, backends: Sequence, statement_class: str) -> List[CandidateCost]:
        """Cost estimates for every candidate, sorted cheapest first."""
        return sorted(
            (self.estimate(backend, statement_class) for backend in backends),
            key=lambda candidate: candidate.cost,
        )

    # -- choice ---------------------------------------------------------------------

    def choose(self, statement_class: str, candidates: Sequence):
        """Pick the cheapest capable backend (with periodic exploration).

        Near-ties (within 5 % of the cheapest cost) rotate so an idle
        cluster spreads reads instead of pinning them to one backend, and
        every ``EXPLORATION_INTERVAL``-th choice rotates over the *full*
        candidate set so backends the estimator currently avoids are
        re-measured and can win back traffic.
        """
        if not candidates:
            raise NoMoreBackendError("no enabled backend can serve this read")
        if len(candidates) == 1:
            return candidates[0]
        with self._lock:
            self._choices += 1
            tie_breaker = self._tie_breaker
            self._tie_breaker += 1
            explore = self._choices % EXPLORATION_INTERVAL == 0
            if explore:
                # rotate by the exploration counter, not the tie-breaker: the
                # two counters advance in lockstep, so the tie-breaker would
                # revisit the same candidate on every probe
                probe = self.explorations % len(candidates)
                self.explorations += 1
        if explore:
            return candidates[probe]
        # once per read, so on bare numbers: no CandidateCost per candidate
        costs, unmeasured = [], []
        seed = self.seed_service_times.get(statement_class, 0.01)
        for backend in candidates:
            service, pending, pool_pressure = backend.planner_inputs(statement_class)
            if service is None:
                unmeasured.append(backend)
                service = seed
            costs.append(self._cost(service, pending, pool_pressure))
        # measure-before-trust: while some candidates still run on the seed
        # prior and others have live EWMAs, probe the unmeasured ones first —
        # otherwise a measured-but-slow backend whose EWMA undercuts the
        # (pessimistic) prior would pin all traffic and the rest would never
        # get measured at all
        if unmeasured and len(unmeasured) < len(candidates):
            return unmeasured[tie_breaker % len(unmeasured)]
        ceiling = min(costs) * 1.05
        tied = [backend for backend, cost in zip(candidates, costs) if cost <= ceiling]
        return tied[tie_breaker % len(tied)]

    def statistics(self) -> dict:
        with self._lock:
            return {
                "weights": {
                    "service_time": self.weights.service_time,
                    "pending": self.weights.pending,
                    "pool": self.weights.pool,
                },
                "choices": self._choices,
                "explorations": self.explorations,
            }


__all__ = ["CostEstimator", "EXPLORATION_INTERVAL", "RoutingWeights"]
