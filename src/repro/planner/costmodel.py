"""Service-time cost model: the planner's priors and the cluster simulation's costs.

The absolute values are calibrated so that a single backend saturates in the
same region as the paper's PII-450 MySQL servers (≈130 SQL requests/minute
for the browsing mix, ≈235 for shopping, ≈500 for ordering).  What the
benchmarks check is not these absolute values but the relative behaviour:
how throughput scales with the number of backends for full vs partial
replication.

The dominant effect, called out explicitly in §6.3, is the best-seller
query: its temporary table has to be created, filled and dropped by *every*
backend that replicates ``order_line``, while only one backend runs the
final select.  ``bestseller_temp_table`` is therefore by far the largest
cost in the model.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    )


#: cost model used by the TPC-W figures.  The ×8 slowdown over the default
#: calibration puts the single-backend browsing-mix saturation point near the
#: ~130 SQL requests/minute the paper measured on its PII-450 MySQL servers.
TPCW_COST_MODEL = scaled(CostModel(), 8.0)
