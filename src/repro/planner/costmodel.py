"""Service-time cost model: the planner's priors and the cluster simulation's costs.

The absolute values are calibrated so that a single backend saturates in the
same region as the paper's PII-450 MySQL servers (≈130 SQL requests/minute
for the browsing mix, ≈235 for shopping, ≈500 for ordering).  What the
benchmarks check is not these absolute values but the relative behaviour:
how throughput scales with the number of backends for full vs partial
replication, and how the cache changes response time and CPU load.

The dominant effect, called out explicitly in §6.3, is the best-seller
query: its temporary table has to be created, filled and dropped by *every*
backend that replicates ``order_line``, while only one backend runs the
final select.  ``bestseller_temp_table`` is therefore by far the largest
cost in the model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.workloads.profile import StatementClass


@dataclass
class CostModel:
    """Service times (seconds of backend CPU) per statement class."""

    read_simple: float = 0.035
    read_complex: float = 0.160
    #: the select part of the best-seller interaction (runs on one backend)
    bestseller_select: float = 0.200
    #: the temporary-table part of the best-seller interaction (runs on every
    #: backend that hosts ``order_line``)
    bestseller_temp_table: float = 0.085
    write_simple: float = 0.002
    write_complex: float = 0.005
    #: controller CPU per statement routed (parsing, scheduling, balancing)
    controller_per_statement: float = 0.0015
    #: controller CPU to serve a result from the query result cache
    controller_cache_hit: float = 0.0030
    #: controller CPU to invalidate cache entries on a write
    controller_invalidation: float = 0.0010
    #: default number of distinct query identities per statement class, used
    #: to synthesise cache keys (smaller -> better cache hit ratio)
    distinct_queries: Dict[StatementClass, int] = field(
        default_factory=lambda: {
            StatementClass.READ_SIMPLE: 3000,
            StatementClass.READ_COMPLEX: 60,
            StatementClass.READ_BESTSELLER: 4,
            StatementClass.WRITE_SIMPLE: 10000,
            StatementClass.WRITE_COMPLEX: 10000,
        }
    )

    def read_service_time(self, statement_class: StatementClass, cost_factor: float = 1.0) -> float:
        if statement_class is StatementClass.READ_SIMPLE:
            return self.read_simple * cost_factor
        if statement_class is StatementClass.READ_COMPLEX:
            return self.read_complex * cost_factor
        if statement_class is StatementClass.READ_BESTSELLER:
            return self.bestseller_select * cost_factor
        raise ValueError(f"{statement_class} is not a read class")

    def write_service_time(self, statement_class: StatementClass, cost_factor: float = 1.0) -> float:
        if statement_class is StatementClass.WRITE_SIMPLE:
            return self.write_simple * cost_factor
        if statement_class is StatementClass.WRITE_COMPLEX:
            return self.write_complex * cost_factor
        raise ValueError(f"{statement_class} is not a write class")

    def distinct_queries_for(self, statement_class: StatementClass) -> int:
        return self.distinct_queries.get(statement_class, 1000)


def scaled(model: CostModel, factor: float) -> CostModel:
    """A copy of ``model`` with every service time multiplied by ``factor``.

    Used to map the default (fast-workstation) calibration onto the paper's
    PII-450 testbed: a uniform slowdown changes absolute throughputs but not
    speedups or crossovers.
    """
    return CostModel(
        read_simple=model.read_simple * factor,
        read_complex=model.read_complex * factor,
        bestseller_select=model.bestseller_select * factor,
        bestseller_temp_table=model.bestseller_temp_table * factor,
        write_simple=model.write_simple * factor,
        write_complex=model.write_complex * factor,
        controller_per_statement=model.controller_per_statement * factor,
        controller_cache_hit=model.controller_cache_hit * factor,
        controller_invalidation=model.controller_invalidation * factor,
        distinct_queries=dict(model.distinct_queries),
    )


#: cost model used by the TPC-W figures.  The ×8 slowdown over the default
#: calibration puts the single-backend browsing-mix saturation point near the
#: ~130 SQL requests/minute the paper measured on its PII-450 MySQL servers.
TPCW_COST_MODEL = scaled(CostModel(), 8.0)

#: cost model used by the RUBiS cache experiment (Table 1): calibrated so a
#: single 2-CPU backend saturates with 450 clients at roughly the paper's
#: throughput, and so the search/view queries repeat enough for caching to pay
#: off (the relaxed cache pushes the hit ratio far higher than the coherent
#: one because 20 % of interactions write to the hot tables).
RUBIS_COST_MODEL = CostModel(
    read_simple=0.016,
    read_complex=0.042,
    bestseller_select=0.100,
    bestseller_temp_table=0.050,
    write_simple=0.004,
    write_complex=0.008,
    controller_per_statement=0.0012,
    controller_cache_hit=0.0035,
    distinct_queries={
        StatementClass.READ_SIMPLE: 250,
        StatementClass.READ_COMPLEX: 30,
        StatementClass.READ_BESTSELLER: 4,
        StatementClass.WRITE_SIMPLE: 10000,
        StatementClass.WRITE_COMPLEX: 10000,
    },
)
