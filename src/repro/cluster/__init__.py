"""Unified cluster facade: declarative descriptors + URL-style connections.

This package is the public surface of the reproduction, mirroring how
C-JDBC is deployed (paper §2.2–§2.3): the cluster topology lives in a
declarative descriptor (the XML virtual-database file, here a JSON/TOML
document or plain mapping) and applications reach it through a driver URL::

    import repro

    cluster = repro.load_cluster({
        "virtual_databases": [{
            "name": "mydb",
            "replication": "raidb1",
            "users": {"app": "secret"},
            "backends": ["node-a", "node-b"],
        }],
        "controllers": [{"name": "ctrl-a"}, {"name": "ctrl-b"}],
    })
    connection = repro.connect("cjdbc://ctrl-a,ctrl-b/mydb?user=app&password=secret")

Modules:

* :mod:`repro.cluster.descriptor` — descriptor schema, validation, loading;
* :mod:`repro.cluster.registry` — controller name registry backing URLs;
* :mod:`repro.cluster.url` — ``cjdbc://`` URL parsing;
* :mod:`repro.cluster.pool` — client-side connection pool;
* :mod:`repro.cluster.facade` — the :class:`Cluster` object and
  :func:`connect` / :func:`load_cluster` entry points;
* :mod:`repro.cluster.fixture` — disposable descriptor-booted clusters and
  replica invariant checks for the chaos, isolation and bench suites.
"""

from repro.cluster.descriptor import (
    BackendSpec,
    ClusterDescriptor,
    ControllerSpec,
    RoutingSpec,
    VirtualDatabaseSpec,
    load_descriptor,
    parse_descriptor,
)
from repro.cluster.facade import Cluster, connect, load_cluster
from repro.cluster.pool import ConnectionPool, PooledConnection
from repro.cluster.registry import ControllerRegistry, default_registry
from repro.cluster.url import ClusterURL, parse_url

__all__ = [
    "BackendSpec",
    "Cluster",
    "ClusterDescriptor",
    "ClusterURL",
    "ConnectionPool",
    "ControllerRegistry",
    "ControllerSpec",
    "PooledConnection",
    "RoutingSpec",
    "VirtualDatabaseSpec",
    "connect",
    "default_registry",
    "load_cluster",
    "load_descriptor",
    "parse_descriptor",
    "parse_url",
]
