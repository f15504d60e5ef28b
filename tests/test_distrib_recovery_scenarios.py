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
from repro.cluster.fixture import digest_mismatches, wait_until
from repro.errors import CheckpointError, GroupCommunicationError
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


class TestBackendReintegrationWithNoLocalDonor:
    """A controller whose every backend is down, with no checkpoint stored,
    gets a backend back from a peer controller.

    A state transfer is not stored (it would pin the log from the join on),
    so the one-backend controller the facade boots has nothing local to
    restart from once that backend fails.
    """

    def _replica(self, db_name, controller_name, transport, backend_count=1):
        controller, vdb, engines = make_cluster(db_name, backend_count=backend_count)
        controller.name = controller_name
        return DistributedVirtualDatabase(vdb, transport, controller_name=controller_name), engines

    def _group_of_two(self, label, transport_a, transport_b=None, backend_count=1):
        replica_a, engines_a = self._replica(label, f"{label}-a", transport_a)
        replica_a.join_group()
        replica_a.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        for key in range(5):
            replica_a.execute("INSERT INTO t VALUES (?, ?)", (key, f"v{key}"))
        replica_b, engines_b = self._replica(
            label, f"{label}-b", transport_b or transport_a, backend_count
        )
        replica_b.join_group(state_transfer=True)
        return replica_a, engines_a[0], replica_b, engines_b

    @staticmethod
    def _write_through(replica, keys):
        """Write while a peer has no live backend: the origin applies, the peer reports."""
        for key in keys:
            with pytest.raises(GroupCommunicationError, match="delivery failed"):
                replica.execute("INSERT INTO t VALUES (?, 'gap')", (key,))

    def _assert_converged(self, *engines):
        assert digest_mismatches({str(n): engine for n, engine in enumerate(engines)}) == []

    def test_lone_backend_of_a_joined_controller_comes_back_from_a_peer(self):
        replica_a, engine_a, replica_b, [engine_b] = self._group_of_two(
            "lone", GroupTransport()
        )
        service_b = replica_b.local.checkpointing_service
        assert service_b.checkpoint_names() == []  # the transfer left nothing behind
        replica_b.get_backend("backend0").disable()
        self._write_through(replica_a, range(10, 15))
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 5

        replica_b.resynchronize_backend("backend0")

        assert replica_b.get_backend("backend0").is_enabled
        assert replica_a.state_transfers_served == 2
        assert sorted(replica_a.group_members) == ["lone-a", "lone-b"]
        self._assert_converged(engine_a, engine_b)
        # writes flow both ways again, and nothing pins either log
        replica_b.execute("INSERT INTO t VALUES (100, 'back')")
        replica_a.execute("INSERT INTO t VALUES (101, 'back')")
        assert engine_a.execute("SELECT COUNT(*) FROM t").scalar() == 12
        self._assert_converged(engine_a, engine_b)
        assert service_b.checkpoint_names() == []
        log_b = replica_b.local.request_manager.recovery_log
        for _ in range(2 * log_b.TRIM_BLOCK):
            log_b.log_request("UPDATE t SET v = v", (), "", None)
        assert len(log_b.entries()) < log_b.TRIM_BLOCK

    def test_through_the_facade_and_the_console(self):
        """The shape ``Cluster`` boots: two controllers, one private backend each."""
        from repro.core.management.console import AdminConsole

        cluster, [(_, replica_a, engine_a), (controller_b, replica_b, engine_b)] = (
            make_replicated_cluster("lonefacade")
        )
        replica_a.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        for attempt, resync in enumerate(
            [
                lambda: cluster.resynchronize("lonefacade", "backend0", controller_b.name),
                lambda: AdminConsole(controller_b).execute("recover lonefacade backend0"),
            ]
        ):
            cluster.fault_injector("lonefacade", "backend0", controller_b.name).crash()
            # the write that finds the crash disables the backend
            self._write_through(replica_a, [10 * attempt])
            assert not replica_b.get_backend("backend0").is_enabled
            self._write_through(replica_a, [10 * attempt + 1])
            cluster.fault_injector("lonefacade", "backend0", controller_b.name).recover()
            resync()
            assert replica_b.get_backend("backend0").is_enabled
            replica_a.execute("INSERT INTO t VALUES (?, 'back')", (10 * attempt + 2,))
            self._assert_converged(engine_a, engine_b)
        assert engine_b.execute("SELECT COUNT(*) FROM t").scalar() == 6

    def test_comes_back_over_tcp_under_a_live_writer(self):
        import threading

        from repro.groupcomm import SocketGroupTransport

        options = dict(heartbeat_interval=0.05, heartbeat_threshold=3, rpc_timeout=5.0)
        node_a = SocketGroupTransport(name="lonetcp-a", **options)
        node_a.start()
        node_b = SocketGroupTransport(peers=[node_a.address], name="lonetcp-b", **options)
        node_b.start()
        try:
            replica_a, engine_a, replica_b, [engine_b] = self._group_of_two(
                "lonetcp", node_a, node_b
            )
            replica_b.get_backend("backend0").disable()
            stop = threading.Event()
            acknowledged, failed = [], []

            def writer():
                key = 1000
                while not stop.is_set():
                    key += 1
                    try:
                        replica_a.execute("INSERT INTO t VALUES (?, 'live')", (key,))
                    except GroupCommunicationError:
                        failed.append(key)  # b has no live backend, or is between leave and join
                    else:
                        acknowledged.append(key)

            thread = threading.Thread(target=writer)
            thread.start()
            try:
                replica_b.resynchronize_backend("backend0")
                wait_until(lambda: False, timeout=0.05)  # a few writes after the rejoin
            finally:
                stop.set()
                thread.join()
            assert replica_b.get_backend("backend0").is_enabled
            assert acknowledged
            for name, engine in (("a", engine_a), ("b", engine_b)):
                stored = {row[0] for row in engine.execute("SELECT id FROM t").rows}
                lost = [key for key in acknowledged if key not in stored]
                assert not lost, (
                    f"replica {name} lacks acknowledged keys {lost}"
                    f" (acknowledged {acknowledged[0]}..{acknowledged[-1]}, failed {failed})"
                )
            self._assert_converged(engine_a, engine_b)
        finally:
            node_a.stop()
            node_b.stop()

    def test_only_the_named_backend_is_restored(self):
        replica_a, engine_a, replica_b, engines_b = self._group_of_two(
            "lonetwo", GroupTransport(), backend_count=2
        )
        for backend in replica_b.backends:
            backend.disable()
        self._write_through(replica_a, range(10, 13))

        replica_b.resynchronize_backend("backend1")
        assert replica_b.get_backend("backend1").is_enabled
        assert not replica_b.get_backend("backend0").is_enabled  # the operator's call
        replica_a.execute("INSERT INTO t VALUES (20, 'one')")
        # its sibling now has a live local donor: no second transfer
        replica_b.resynchronize_backend("backend0")
        assert replica_a.state_transfers_served == 2
        replica_a.execute("INSERT INTO t VALUES (21, 'both')")
        self._assert_converged(engine_a, *engines_b)

    def test_a_stored_checkpoint_is_preferred_to_a_transfer(self):
        replica_a, engine_a, replica_b, [engine_b] = self._group_of_two(
            "lonekept", GroupTransport()
        )
        replica_b.local.checkpoint_backend("backend0", name="kept")
        replica_b.get_backend("backend0").disable()
        self._write_through(replica_a, range(10, 13))
        assert replica_b.resynchronize_backend("backend0") == 3  # replayed from its own log
        assert replica_a.state_transfers_served == 1
        self._assert_converged(engine_a, engine_b)

    def test_alone_in_the_group_there_is_nothing_to_come_back_from(self):
        replica, [engine] = self._replica("lonesolo", "lonesolo-a", GroupTransport())
        replica.join_group()
        replica.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        replica.get_backend("backend0").disable()
        with pytest.raises(CheckpointError, match="no live backend"):
            replica.resynchronize_backend("backend0")
        assert replica.group_members == ["lonesolo-a"]


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
