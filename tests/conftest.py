"""Shared fixtures for the test suite."""

from __future__ import annotations

import itertools

import pytest

from repro.core import (
    BackendConfig,
    Controller,
    VirtualDatabaseConfig,
    build_virtual_database,
)
from repro.cluster import ControllerRegistry, load_cluster
from repro.core import connect as cjdbc_connect
from repro.sql import DatabaseEngine
from repro.sql import dbapi


@pytest.fixture
def engine():
    """A fresh in-memory engine."""
    return DatabaseEngine("test-engine")


@pytest.fixture
def populated_engine():
    """An engine with a small ``accounts`` table."""
    engine = DatabaseEngine("populated")
    engine.execute(
        "CREATE TABLE accounts ("
        " id INT PRIMARY KEY AUTO_INCREMENT,"
        " owner VARCHAR(40) NOT NULL,"
        " balance FLOAT,"
        " branch VARCHAR(20))"
    )
    rows = [
        ("alice", 100.0, "paris"),
        ("bob", 250.0, "lyon"),
        ("carol", 50.0, "paris"),
        ("dave", 0.0, "nice"),
    ]
    for owner, balance, branch in rows:
        engine.execute(
            "INSERT INTO accounts (owner, balance, branch) VALUES (?, ?, ?)",
            (owner, balance, branch),
        )
    return engine


_cluster_counter = itertools.count(1)


def make_cluster(
    name: str = "testdb",
    backend_count: int = 2,
    replication: str = "raidb1",
    cache_enabled: bool = False,
    **config_kwargs,
):
    """Build (controller, virtual database, engines) for middleware tests."""
    instance = next(_cluster_counter)
    engines = [DatabaseEngine(f"{name}-engine{i}") for i in range(backend_count)]
    config = VirtualDatabaseConfig(
        name=name,
        backends=[
            BackendConfig(name=f"backend{i}", engine=engine)
            for i, engine in enumerate(engines)
        ],
        replication=replication,
        cache_enabled=cache_enabled,
        **config_kwargs,
    )
    virtual_database = build_virtual_database(config)
    controller = Controller(f"{name}-controller-{instance}")
    controller.add_virtual_database(virtual_database)
    return controller, virtual_database, engines


def make_replicated_cluster(name: str = "appdb", controllers: int = 2):
    """Boot ``name`` as a grouped vdb replicated across ``controllers`` controllers.

    Returns ``(cluster, [(controller, replica, engine), ...])`` in controller
    order; every controller has one private backend engine.
    """
    instance = next(_cluster_counter)
    names = [f"{name}-controller-{instance}{chr(97 + i)}" for i in range(controllers)]
    cluster = load_cluster(
        {
            "virtual_databases": [
                {"name": name, "group_name": name, "backends": ["backend0"]}
            ],
            "controllers": [{"name": controller} for controller in names],
        },
        registry=ControllerRegistry(),
    )
    return cluster, [
        (
            cluster.controller(controller),
            cluster.replicas[(controller, name)],
            cluster.engine(f"{controller}/backend0"),
        )
        for controller in names
    ]


@pytest.fixture
def cluster():
    """A two-backend RAIDb-1 cluster with its controller."""
    return make_cluster()


@pytest.fixture
def cluster_connection(cluster):
    """A driver connection to the two-backend cluster."""
    controller, _vdb, _engines = cluster
    return cjdbc_connect(controller, "testdb", "tester", "secret")
