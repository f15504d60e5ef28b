"""Additional distributed scenarios: late joiners, partitions, mixed topologies."""

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
from repro.distrib.distributed_vdb import DistributedVirtualDatabase
from repro.errors import GroupCommunicationError
from repro.groupcomm import GroupTransport
from repro.sql import DatabaseEngine


class TestReplicaLifecycle:
    def test_writes_before_other_controllers_join_stay_local(self):
        _, [(controller_a, replica_a, engine_a)] = make_replicated_cluster("lonely", 1)
        connection = connect(controller_a, "lonely", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection.execute("INSERT INTO t VALUES (1)")
        assert replica_a.group_members == [controller_a.name]
        assert engine_a.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_multicast_without_join_raises(self):
        controller, vdb, _ = make_cluster("nojoin", backend_count=1)
        replica = DistributedVirtualDatabase(vdb, GroupTransport(), controller_name=controller.name)
        with pytest.raises(GroupCommunicationError):
            replica.execute("INSERT INTO t VALUES (1)")

    def test_leave_group_stops_receiving_writes(self):
        _, [(controller_a, _, engine_a), (_, replica_b, engine_b)] = (
            make_replicated_cluster("leaver")
        )
        connection = connect(controller_a, "leaver", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        replica_b.leave_group()
        connection.execute("INSERT INTO t VALUES (1)")
        assert engine_a.execute("SELECT COUNT(*) FROM t").scalar() == 1
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_transaction_ids_do_not_collide_across_controllers(self):
        _, [(_, replica_a, _), (_, replica_b, _)] = make_replicated_cluster("txids")
        ids_a = [replica_a.begin("u") for _ in range(5)]
        ids_b = [replica_b.begin("u") for _ in range(5)]
        assert len(set(ids_a) | set(ids_b)) == 10
        for transaction_id in ids_a:
            replica_a.rollback(transaction_id)
        for transaction_id in ids_b:
            replica_b.rollback(transaction_id)

    def test_three_replicas_converge_under_interleaved_writes(self):
        _, members = make_replicated_cluster("tri", 3)
        engines = [engine for _, _, engine in members]
        connections = [connect(controller, "tri", "u", "p") for controller, _, _ in members]
        connections[0].execute("CREATE TABLE t (id INT PRIMARY KEY AUTO_INCREMENT, origin VARCHAR(10))")
        for round_index in range(5):
            for index, connection in enumerate(connections):
                connection.execute("INSERT INTO t (origin) VALUES (?)", (f"ctrl{index}",))
        counts = {engine.execute("SELECT COUNT(*) FROM t").scalar() for engine in engines}
        assert counts == {15}


class TestJoiningControllerStateTransfer:
    """A controller joining a running group syncs its replica from a peer."""

    def _make_replica(self, db_name, controller_name, transport):
        controller, vdb, engines = make_cluster(db_name, backend_count=1)
        controller.name = controller_name  # distinct names within one group
        replica = DistributedVirtualDatabase(
            vdb, transport, controller_name=controller_name
        )
        return replica, engines[0]

    def test_late_joiner_catches_up_over_inproc_transport(self):
        transport = GroupTransport()
        replica_a, engine_a = self._make_replica("stx", "stx-a", transport)
        replica_a.join_group()
        replica_a.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        for key in range(5):
            replica_a.execute("INSERT INTO t VALUES (?, ?)", (key, f"v{key}"))

        replica_b, engine_b = self._make_replica("stx", "stx-b", transport)
        replica_b.join_group(state_transfer=True)
        assert replica_b.state_synced_from == "stx-a"
        assert replica_a.state_transfers_served == 1
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 5

        # post-join writes flow both ways through the group
        replica_b.execute("INSERT INTO t VALUES (100, 'late')")
        assert engine_a.execute("SELECT COUNT(*) FROM t").scalar() == 6

    def test_late_joiner_catches_up_over_tcp_transport(self):
        from repro.groupcomm import SocketGroupTransport

        node_a = SocketGroupTransport(
            heartbeat_interval=0.05, heartbeat_threshold=3, rpc_timeout=5.0,
            name="stx-tcp-a",
        )
        node_a.start()
        node_b = SocketGroupTransport(
            peers=[node_a.address], heartbeat_interval=0.05,
            heartbeat_threshold=3, rpc_timeout=5.0, name="stx-tcp-b",
        )
        node_b.start()
        try:
            replica_a, _ = self._make_replica("stxtcp", "stx-tcp-a", node_a)
            replica_a.join_group()
            replica_a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            replica_a.execute("INSERT INTO t VALUES (1), (2), (3)")

            replica_b, engine_b = self._make_replica("stxtcp", "stx-tcp-b", node_b)
            replica_b.join_group(state_transfer=True)
            assert replica_b.state_synced_from == "stx-tcp-a"
            assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 3
            replica_a.execute("INSERT INTO t VALUES (4)")
            assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 4
        finally:
            node_a.stop()
            node_b.stop()

    def test_first_member_state_transfer_degrades_to_plain_join(self):
        transport = GroupTransport()
        replica, _ = self._make_replica("stxsolo", "stx-solo", transport)
        replica.join_group(state_transfer=True)
        assert replica.state_synced_from is None
        assert replica.group_members == ["stx-solo"]

    def test_group_status_reports_sync_provenance(self):
        transport = GroupTransport()
        replica_a, _ = self._make_replica("stxst", "stxst-a", transport)
        replica_a.join_group()
        replica_a.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        replica_b, _ = self._make_replica("stxst", "stxst-b", transport)
        replica_b.join_group(state_transfer=True)
        status = replica_b.group_status()
        assert status["state_synced_from"] == "stxst-a"
        assert sorted(status["members"]) == ["stxst-a", "stxst-b"]
        status_a = replica_a.group_status()
        assert status_a["state_transfers_served"] == 1


class TestMixedTopology:
    def test_horizontal_plus_vertical(self):
        """Figure 5: replicated top-level controllers, each over its own nested subtree."""
        # nested backends are live controllers, not expressible in a descriptor:
        # the two replicas are wired by hand over one in-process network
        transport = GroupTransport()
        top_controllers = []
        local_engines = []
        leaf_engines = []
        for index in range(2):
            # each top-level controller owns a distinct lower-level cluster
            bottom_controller, _bottom_vdb, bottom_engines = make_cluster(
                f"leafdb{index}", backend_count=2
            )
            leaf_engines.extend(bottom_engines)
            local_engine = DatabaseEngine(f"top-local-{index}")
            local_engines.append(local_engine)
            top_vdb = build_virtual_database(
                VirtualDatabaseConfig(
                    name="topdb",
                    backends=[
                        BackendConfig(name=f"local-{index}", engine=local_engine),
                        nested_backend_config(
                            f"nested-{index}", bottom_controller, f"leafdb{index}"
                        ),
                    ],
                    replication="raidb1",
                )
            )
            top_controller = Controller(f"top-{index}")
            replica = DistributedVirtualDatabase(
                top_vdb, transport, controller_name=top_controller.name
            )
            replica.join_group()
            top_controller.add_virtual_database(replica)
            top_controllers.append(top_controller)

        connection = connect(top_controllers, "topdb", "u", "p")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        connection.execute("INSERT INTO t VALUES (1, 'x')")

        # the write reached both top-level locals and all four leaf databases
        for engine in local_engines + leaf_engines:
            assert engine.execute("SELECT COUNT(*) FROM t").scalar() == 1

        # losing one top-level controller is transparent to the client
        top_controllers[0].shutdown()
        assert connection.execute("SELECT COUNT(*) FROM t WHERE id = 1").scalar() == 1
        connection.execute("INSERT INTO t VALUES (2, 'y')")
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 2
