"""Static service-time priors of the cost-based planner.

:class:`~repro.planner.cost.CostEstimator` starts every backend's estimate
for a statement class from these values and replaces them with the
backend's measured EWMA once it has served that class.  Only the relative
sizes matter to a routing decision: a complex read costs several simple
ones, a write a fraction of a read.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CostModel:
    """Prior service times (seconds of backend CPU) per statement class."""

    read_simple: float = 0.035
    read_complex: float = 0.160
    #: one write statement, the prior of the ``write`` class
    write_simple: float = 0.002
    #: a batch of writes, the prior of the ``batch`` class
    write_complex: float = 0.005
