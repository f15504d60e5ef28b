"""Discrete-event cluster performance model.

The paper's evaluation ran on a physical cluster of PII-450 machines; the
absolute numbers are irreproducible, but the *shape* of the results comes
from (a) the replication / load-balancing / caching policies and (b) the
relative service times of the SQL statement classes.  This package models
exactly that:

* backends are queueing servers with a configurable number of CPUs;
* the controller routes statements with the same read-one / write-all
  logic as the middleware (full or partial replication, least pending
  requests first), applies the early-response optimisation, and can run the
  *real* :class:`repro.core.cache.ResultCache` over synthetic query keys;
* emulated clients execute the TPC-W / RUBiS interaction mixes in a closed
  loop with exponential think times.

The benchmark harness sweeps the number of backends / cache configurations
and reports the same rows and series as the paper's figures and table.
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
