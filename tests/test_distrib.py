"""Tests for horizontal (replicated controllers) and vertical (nested) scalability."""

import pytest

from tests.conftest import make_cluster, make_replicated_cluster

from repro.core import (
    BackendConfig,
    Controller,
    VirtualDatabaseConfig,
    build_virtual_database,
    connect,
)
from repro.distrib import nested_backend_config
from repro.sql import DatabaseEngine


def build_replicated_pair(db_name="appdb"):
    """Two controllers, each hosting a replica of the same virtual database."""
    cluster, (first, second) = make_replicated_cluster(db_name)
    return first, second, cluster


class TestHorizontalScalability:
    def test_writes_propagate_to_every_controller(self):
        (ctrl_a, _, engine_a), (ctrl_b, _, engine_b), _ = build_replicated_pair()
        connection = connect(ctrl_a, "appdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        connection.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert engine_a.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_reads_stay_local(self):
        (ctrl_a, replica_a, _), (ctrl_b, replica_b, _), _ = build_replicated_pair()
        connection_a = connect(ctrl_a, "appdb", "u", "p")
        connection_a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection_a.execute("INSERT INTO t VALUES (1)")
        local_reads_before = replica_b.local.backends[0].total_reads
        connection_b = connect(ctrl_b, "appdb", "u", "p")
        assert connection_b.execute("SELECT COUNT(*) FROM t").scalar() == 1
        assert replica_b.local.backends[0].total_reads == local_reads_before + 1

    def test_transactions_are_replicated(self):
        (ctrl_a, _, engine_a), (_, _, engine_b), _ = build_replicated_pair()
        connection = connect(ctrl_a, "appdb", "u", "p")
        connection.execute("CREATE TABLE acc (id INT PRIMARY KEY, balance INT)")
        connection.execute("INSERT INTO acc VALUES (1, 100)")
        connection.begin()
        connection.execute("UPDATE acc SET balance = 50 WHERE id = 1")
        connection.commit()
        assert engine_a.execute("SELECT balance FROM acc WHERE id = 1").scalar() == 50
        assert engine_b.execute("SELECT balance FROM acc WHERE id = 1").scalar() == 50

    def test_rollback_is_replicated(self):
        (ctrl_a, _, engine_a), (_, _, engine_b), _ = build_replicated_pair()
        connection = connect(ctrl_a, "appdb", "u", "p")
        connection.execute("CREATE TABLE acc (id INT PRIMARY KEY, balance INT)")
        connection.execute("INSERT INTO acc VALUES (1, 100)")
        connection.begin()
        connection.execute("UPDATE acc SET balance = 0 WHERE id = 1")
        connection.rollback()
        assert engine_a.execute("SELECT balance FROM acc WHERE id = 1").scalar() == 100
        assert engine_b.execute("SELECT balance FROM acc WHERE id = 1").scalar() == 100

    def test_writes_through_either_controller_converge(self):
        (ctrl_a, _, engine_a), (ctrl_b, _, engine_b), _ = build_replicated_pair()
        connection_a = connect(ctrl_a, "appdb", "u", "p")
        connection_b = connect(ctrl_b, "appdb", "u", "p")
        connection_a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection_a.execute("INSERT INTO t VALUES (1)")
        connection_b.execute("INSERT INTO t VALUES (2)")
        for engine in (engine_a, engine_b):
            assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_client_failover_between_controllers(self):
        (ctrl_a, _, _), (ctrl_b, _, engine_b), _ = build_replicated_pair()
        connection = connect([ctrl_a, ctrl_b], "appdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection.execute("INSERT INTO t VALUES (1)")
        ctrl_a.shutdown()
        # reads and writes keep working through the standby controller
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 1
        connection.execute("INSERT INTO t VALUES (2)")
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 2
        assert connection.failovers >= 1

    def test_batches_propagate_to_every_controller_as_one_group(self):
        """A prepared-statement batch through one controller is multicast and
        applied as one server-side batch by every replica."""
        (ctrl_a, replica_a, engine_a), (_, replica_b, engine_b), _ = (
            build_replicated_pair()
        )
        connection = connect(ctrl_a, "appdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        statement = connection.prepare("INSERT INTO t VALUES (?, ?)")
        assert statement.is_write
        statement.executemany([(i, f"v{i}") for i in range(30)])
        assert statement.rowcount == 30
        assert engine_a.execute("SELECT COUNT(*) FROM t").scalar() == 30
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 30
        # each replica applied the batch as ONE group, not 30 writes
        for replica in (replica_a, replica_b):
            assert replica.local.request_manager.batches_executed == 1

    def test_prepared_reads_stay_local_on_each_replica(self):
        (ctrl_a, _, _), (ctrl_b, replica_b, _), _ = build_replicated_pair()
        connection_a = connect(ctrl_a, "appdb", "u", "p")
        connection_a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection_a.execute("INSERT INTO t VALUES (1)")
        local_reads_before = replica_b.local.backends[0].total_reads
        connection_b = connect(ctrl_b, "appdb", "u", "p")
        statement = connection_b.prepare("SELECT COUNT(*) FROM t")
        assert statement.execute().scalar() == 1
        assert replica_b.local.backends[0].total_reads == local_reads_before + 1

    def test_peer_backend_advertisement(self):
        (_, replica_a, _), (_, replica_b, _), _ = build_replicated_pair()
        assert set(replica_a.peer_backends) == {replica_b.controller_name}
        assert set(replica_b.peer_backends) == {replica_a.controller_name}

    def test_controller_failure_triggers_view_change(self):
        (_, replica_a, _), (_, replica_b, _), cluster = build_replicated_pair()
        cluster.transport.fail_member(replica_b.controller_name)
        assert replica_a.group_members == [replica_a.controller_name]
        assert any(view.left == [replica_b.controller_name] for view in replica_a.view_changes)

    def test_statistics_include_distribution_info(self):
        (_, replica_a, _), _, _ = build_replicated_pair()
        stats = replica_a.statistics()
        assert stats["distributed"]["members"]
        assert stats["distributed"]["group"] == "appdb"


class TestVerticalScalability:
    def build_tree(self):
        """A top-level controller whose second backend is a nested virtual database."""
        bottom_controller, bottom_vdb, bottom_engines = make_cluster("bottomdb", backend_count=2)
        top_engine = DatabaseEngine("top-engine")
        top_vdb = build_virtual_database(
            VirtualDatabaseConfig(
                name="topdb",
                backends=[
                    BackendConfig(name="local", engine=top_engine),
                    nested_backend_config("nested", bottom_controller, "bottomdb"),
                ],
                replication="raidb1",
            )
        )
        top_controller = Controller("top-controller")
        top_controller.add_virtual_database(top_vdb)
        return top_controller, top_vdb, top_engine, bottom_controller, bottom_engines

    def test_writes_reach_leaf_backends(self):
        top_controller, _, top_engine, _, bottom_engines = self.build_tree()
        connection = connect(top_controller, "topdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        connection.execute("INSERT INTO t VALUES (1, 'x')")
        assert top_engine.execute("SELECT COUNT(*) FROM t").scalar() == 1
        for engine in bottom_engines:
            assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_reads_can_be_served_by_nested_cluster(self):
        top_controller, top_vdb, _, _, _ = self.build_tree()
        connection = connect(top_controller, "topdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection.execute("INSERT INTO t VALUES (1)")
        served = set()
        for _ in range(20):
            cursor = connection.execute("SELECT COUNT(*) FROM t")
            assert cursor.scalar() == 1
            served.add(cursor.backend_name)
        assert "nested" in served or "local" in served

    def test_nested_metadata_reports_leaf_tables(self):
        top_controller, top_vdb, _, bottom_controller, _ = self.build_tree()
        connection = connect(top_controller, "topdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        nested_backend = top_vdb.get_backend("nested")
        nested_backend.refresh_schema()
        assert "t" in nested_backend.tables

    def test_transactions_through_two_levels(self):
        top_controller, _, top_engine, _, bottom_engines = self.build_tree()
        connection = connect(top_controller, "topdb", "u", "p")
        connection.execute("CREATE TABLE acc (id INT PRIMARY KEY, balance INT)")
        connection.execute("INSERT INTO acc VALUES (1, 10)")
        connection.begin()
        connection.execute("UPDATE acc SET balance = 20 WHERE id = 1")
        connection.commit()
        assert top_engine.execute("SELECT balance FROM acc WHERE id = 1").scalar() == 20
        for engine in bottom_engines:
            assert engine.execute("SELECT balance FROM acc WHERE id = 1").scalar() == 20

    def test_nested_cluster_survives_leaf_failure(self):
        top_controller, top_vdb, _, bottom_controller, bottom_engines = self.build_tree()
        connection = connect(top_controller, "topdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection.execute("INSERT INTO t VALUES (1)")
        bottom_vdb = bottom_controller.get_virtual_database("bottomdb")
        bottom_vdb.get_backend("backend0").disable()
        connection.execute("INSERT INTO t VALUES (2)")
        assert bottom_engines[1].execute("SELECT COUNT(*) FROM t").scalar() == 2
