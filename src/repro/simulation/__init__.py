"""Discrete-event cluster performance model.

The paper's evaluation ran on a physical cluster of PII-450 machines; the
absolute numbers are irreproducible, but the *shape* of the results comes
from (a) the replication and load-balancing policies and (b) the
relative service times of the SQL statement classes.  This package models
exactly that:

* backends are queueing servers with a configurable number of CPUs;
* the controller routes statements with the same read-one / write-all
  logic as the middleware (full or partial replication, least pending
  requests first) and applies the early-response optimisation;
* emulated clients execute the TPC-W interaction mixes in a closed loop
  with exponential think times.

The benchmark harness sweeps the number of backends and reports the same
series as the paper's Figures 10-12.  The model has no result cache: the
paper's Table 1 is counted on the real middleware instead.
"""

from repro.simulation.core import Simulator
from repro.planner.costmodel import CostModel
from repro.simulation.cluster import ClusterSimulation, SimulationConfig, SimulationResult
from repro.simulation.resources import Server

__all__ = [
    "ClusterSimulation",
    "CostModel",
    "SimulationConfig",
    "SimulationResult",
    "Server",
    "Simulator",
]
