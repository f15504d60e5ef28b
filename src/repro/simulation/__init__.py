"""A deterministic discrete-event simulator core.

:class:`Simulator` runs callbacks in simulated time, ties broken by
scheduling order, so a run is a pure function of what was scheduled: the
clock a seeded scheduler of the distributed half can drive.  The paper's
figures are not simulated: Table 1 and Figures 10-12 are counted on the
real middleware (``tests/test_op_budget.py`` and
``tests/test_tpcw_figures.py``).
"""

from repro.simulation.core import Simulator

__all__ = ["Simulator"]
