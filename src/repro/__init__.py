"""Reproduction of "C-JDBC: Flexible Database Clustering Middleware" (USENIX 2004).

The public entry points live at the top level, mirroring how C-JDBC is
deployed — a declarative cluster descriptor plus a driver URL::

    import repro

    cluster = repro.load_cluster("cluster.json")
    connection = repro.connect("cjdbc://ctrl-a,ctrl-b/mydb?user=app&password=s")

The package is organised as follows:

* :mod:`repro.cluster` — the unified facade: descriptor loading, controller
  registry, ``cjdbc://`` URLs and the client-side connection pool;
* :mod:`repro.sql` — in-memory SQL engine substrate (the "backend RDBMS");
* :mod:`repro.core` — the C-JDBC middleware itself: controller, virtual
  databases, client driver, request manager (scheduler, load balancer, query
  result cache), recovery log and checkpointing, management;
* :mod:`repro.groupcomm` — group-communication substrate (JGroups stand-in);
* :mod:`repro.distrib` — horizontal (replicated controllers) and vertical
  (nested controllers) scalability;
* :mod:`repro.workloads` — TPC-W and RUBiS workload generators;
* :mod:`repro.simulation` — a deterministic discrete-event simulator core;
* :mod:`repro.bench` — live ablations, chaos scenarios and the scheduler
  bench, each on real in-process clusters.
"""

from repro.cluster import (
    Cluster,
    ConnectionPool,
    ControllerRegistry,
    connect,
    default_registry,
    load_cluster,
    load_descriptor,
    parse_url,
)
from repro.core import BackendConfig, Controller, VirtualDatabaseConfig

__version__ = "1.1.0"

__all__ = [
    "BackendConfig",
    "Cluster",
    "ConnectionPool",
    "Controller",
    "ControllerRegistry",
    "VirtualDatabaseConfig",
    "__version__",
    "connect",
    "default_registry",
    "load_cluster",
    "load_descriptor",
    "parse_url",
]
