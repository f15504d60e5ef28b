"""The cluster facade: descriptor boot, registry resolution, URL failover."""

import pytest

import repro
from repro.cluster import Cluster, ControllerRegistry, default_registry, load_cluster
from repro.core import BackendConfig, Controller, VirtualDatabaseConfig
from repro.errors import ConfigurationError, ControllerError
from repro.sql import DatabaseEngine


def ha_descriptor(suffix: str) -> dict:
    """A full RAIDb-1 cluster: cache + recovery log + two controllers."""
    return {
        "name": f"ha-{suffix}",
        "virtual_databases": [
            {
                "name": f"hadb{suffix}",
                "replication": "raidb1",
                "cache": {"enabled": True},
                "recovery_log": "memory",
                "users": {"app": "secret"},
                "backends": [
                    {"name": "b0", "engine": f"ha{suffix}-e0"},
                    {"name": "b1", "engine": f"ha{suffix}-e1"},
                ],
            }
        ],
        "controllers": [{"name": f"ha-{suffix}-a"}, {"name": f"ha-{suffix}-b"}],
    }


class TestControllerRegistry:
    def test_controllers_self_register_by_name(self):
        controller = Controller("registry-self-test")
        assert default_registry.resolve("registry-self-test") is controller

    def test_resolution_is_case_insensitive_and_latest_wins(self):
        registry = ControllerRegistry()
        old = Controller("dup-name", register=False)
        new = Controller("DUP-NAME", register=False)
        registry.register(old)
        registry.register(new)
        assert registry.resolve("dup-name") is new

    def test_unknown_name_lists_known_controllers(self):
        registry = ControllerRegistry()
        # keep a strong reference: the registry only holds weakrefs, and a
        # collected controller would drop out of the known-controllers list
        known = Controller("known-ctrl", register=False)
        registry.register(known)
        with pytest.raises(ControllerError, match="unknown controller 'ghost'.*known-ctrl"):
            registry.resolve("ghost")

    def test_dead_controllers_are_dropped(self):
        registry = ControllerRegistry()
        registry.register(Controller("ephemeral", register=False))
        import gc

        gc.collect()
        assert "ephemeral" not in registry
        with pytest.raises(ControllerError):
            registry.resolve("ephemeral")

    def test_unregister(self):
        registry = ControllerRegistry()
        controller = Controller("to-remove", register=False)
        registry.register(controller)
        registry.unregister("to-remove")
        assert "to-remove" not in registry


class TestDescriptorBoot:
    def test_full_raidb1_cluster_from_descriptor_alone(self):
        """Acceptance: cache + recovery log cluster booted from data only,
        reached by URL, with transparent failover across two controllers."""
        cluster = load_cluster(ha_descriptor("acc"))
        connection = repro.connect(
            "cjdbc://ha-acc-a,ha-acc-b/hadbacc?user=app&password=secret"
        )
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE events (id INT PRIMARY KEY, what VARCHAR(20))")
        cursor.execute("INSERT INTO events VALUES (1, 'boot')")

        # cache + recovery log really are wired in
        vdb = cluster.virtual_database("hadbacc")
        assert vdb.request_manager.result_cache is not None
        assert vdb.request_manager.recovery_log is not None
        # writes reached both declared engines
        assert cluster.engine("haacc-e0").row_count("events") == 1
        assert cluster.engine("haacc-e1").row_count("events") == 1

        # transparent failover: first controller of the URL dies mid-session
        assert connection.current_controller.name == "ha-acc-a"
        cluster.controller("ha-acc-a").shutdown()
        cursor.execute("INSERT INTO events VALUES (2, 'failover')")
        assert connection.current_controller.name == "ha-acc-b"
        assert connection.failovers == 1
        assert cursor.execute("SELECT COUNT(*) FROM events").scalar() == 2

    def test_url_failover_order_follows_url_not_registry(self):
        cluster = load_cluster(ha_descriptor("ord"))
        # list the B controller first: it must be the one serving
        connection = repro.connect(
            "cjdbc://ha-ord-b,ha-ord-a/hadbord?user=app&password=secret"
        )
        assert connection.current_controller.name == "ha-ord-b"

    def test_unknown_controller_in_url(self):
        load_cluster(ha_descriptor("unk"))
        with pytest.raises(ControllerError, match="unknown controller 'nope'"):
            repro.connect("cjdbc://nope/hadbunk?user=app&password=secret")

    def test_unknown_vdb_in_url(self):
        from repro.errors import UnknownVirtualDatabaseError

        # keep a strong reference: the default registry holds weakrefs, so a
        # GC pass between boot and connect would otherwise drop the
        # controller and change the error this test asserts on
        cluster = load_cluster(ha_descriptor("vdb"))
        with pytest.raises(
            UnknownVirtualDatabaseError, match="does not host virtual database 'ghostdb'"
        ):
            repro.connect("cjdbc://ha-vdb-a/ghostdb?user=app&password=secret")
        cluster.shutdown()

    def test_cluster_connect_by_vdb_name_uses_descriptor_order(self):
        cluster = load_cluster(ha_descriptor("name"))
        connection = cluster.connect("hadbname", "app", "secret")
        assert connection.current_controller.name == "ha-name-a"
        cluster.controller("ha-name-a").shutdown()
        assert connection.execute("SELECT 1").scalar() == 1
        assert connection.current_controller.name == "ha-name-b"

    def test_cluster_url_helper(self):
        cluster = load_cluster(ha_descriptor("url"))
        assert cluster.url("hadburl") == "cjdbc://ha-url-a,ha-url-b/hadburl"

    def test_shared_vdb_single_instance_across_controllers(self):
        cluster = load_cluster(ha_descriptor("shared"))
        a = cluster.controller("ha-shared-a").get_virtual_database("hadbshared")
        b = cluster.controller("ha-shared-b").get_virtual_database("hadbshared")
        assert a is b  # same instance: the §5.1 shared-backends topology

    def test_grouped_vdb_gets_replica_per_controller(self):
        cluster = load_cluster(
            {
                "virtual_databases": [
                    {"name": "groupdb", "group_name": "g1", "backends": ["db"]}
                ],
                "controllers": [{"name": "grp-a"}, {"name": "grp-b"}],
            }
        )
        # one engine per replica, namespaced by controller
        assert sorted(cluster.engines) == ["grp-a/db", "grp-b/db"]
        connection = cluster.connect("groupdb")
        connection.execute("CREATE TABLE g (id INT PRIMARY KEY)")
        connection.execute("INSERT INTO g VALUES (1)")
        # the write was group-multicast to both replicas
        assert cluster.engine("grp-a/db").row_count("g") == 1
        assert cluster.engine("grp-b/db").row_count("g") == 1

    def test_mixed_case_vdb_names_resolve_and_display_as_declared(self):
        cluster = load_cluster(
            {
                "virtual_databases": [
                    {"name": "FloodAlert", "group_name": "fa-case", "backends": ["db"]}
                ],
                "controllers": [{"name": "case-a"}, {"name": "case-b"}],
            }
        )
        # lookups are case-insensitive even for grouped replicas...
        assert cluster.virtual_database("floodalert", controller="case-b") is not None
        # ...while the declared spelling survives on the public surface
        assert cluster.virtual_database_names == ["FloodAlert"]
        assert cluster.url("floodalert") == "cjdbc://case-a,case-b/FloodAlert"

    def test_connect_takes_one_shape_a_url(self):
        cluster = load_cluster(ha_descriptor("two"))
        # a URL already names its virtual database: nothing else is positional
        with pytest.raises(TypeError):
            repro.connect("cjdbc://ha-two-a/hadbtwo?user=app&password=secret", "otherdb")
        # controller objects go to repro.core.driver.connect, not here
        with pytest.raises(ConfigurationError, match="cluster URL must be a string"):
            repro.connect(cluster.controller("ha-two-a"))

    def test_cluster_shutdown_unregisters(self):
        cluster = load_cluster(ha_descriptor("down"))
        cluster.shutdown()
        with pytest.raises(ControllerError):
            repro.connect("cjdbc://ha-down-a/hadbdown?user=app&password=secret")

    def test_shutdown_does_not_unregister_a_rebound_name(self):
        first = load_cluster(
            {
                "virtual_databases": [{"name": "rebdb", "backends": ["b"]}],
                "controllers": [{"name": "rebound-ctrl"}],
            }
        )
        second = load_cluster(
            {
                "virtual_databases": [{"name": "rebdb2", "backends": ["b"]}],
                "controllers": [{"name": "rebound-ctrl"}],  # re-binds the name
            }
        )
        first.shutdown()
        # the name now belongs to the second cluster and must survive
        assert default_registry.resolve("rebound-ctrl") is second.controller("rebound-ctrl")

    def test_lookup_errors_name_alternatives(self):
        cluster = load_cluster(ha_descriptor("look"))
        with pytest.raises(ConfigurationError, match="no controller 'ghost'"):
            cluster.controller("ghost")
        with pytest.raises(ConfigurationError, match="no engine 'ghost'"):
            cluster.engine("ghost")
        with pytest.raises(ConfigurationError, match="no virtual database 'ghost'"):
            cluster.virtual_database("ghost")
        # a bogus controller argument is rejected even for shared vdbs
        with pytest.raises(ConfigurationError, match="no controller 'ghost'"):
            cluster.virtual_database("hadblook", controller="ghost")

    def test_shared_vdb_controller_argument_must_host_it(self):
        cluster = load_cluster(
            {
                "virtual_databases": [
                    {"name": "hosted", "backends": ["a"]},
                    {"name": "unhosted", "backends": ["a"]},
                ],
                "controllers": [
                    {"name": "host-ctrl", "virtual_databases": ["hosted", "unhosted"]},
                    {"name": "other-ctrl", "virtual_databases": ["unhosted"]},
                ],
            }
        )
        assert cluster.virtual_database("hosted", controller="host-ctrl") is not None
        with pytest.raises(ConfigurationError, match="does not host 'hosted'"):
            cluster.virtual_database("hosted", controller="other-ctrl")


class TestInprocGroupFailure:
    """Grouped vdbs over the memory link run the real protocol: crash the sequencer."""

    @pytest.mark.parametrize("controllers", [2, 3])
    def test_replication_survives_failing_the_sequencers_controller(self, controllers):
        from repro.bench.chaos import digest_mismatches

        names = [f"ipf{controllers}-{chr(97 + i)}" for i in range(controllers)]
        cluster = load_cluster(
            {
                "virtual_databases": [
                    {
                        "name": f"ipfdb{controllers}",
                        "group_name": f"ipf{controllers}",
                        "group": {"transport": "inproc"},
                        "backends": ["e0", "e1"],
                    }
                ],
                "controllers": [{"name": name} for name in names],
            }
        )
        try:
            connection = cluster.connect(f"ipfdb{controllers}")
            connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
            connection.execute("INSERT INTO t VALUES (1, 'before')")
            assert digest_mismatches(cluster.engines) == []
            # the first controller's node has the lowest address: the sequencer
            status = cluster.transport.describe()["groups"][f"ipf{controllers}"]
            assert status["sequencer"] == cluster.group_nodes[names[0]].address
            sequence_before = status["sequence"]

            cluster.controller(names[0]).shutdown()
            cluster.transport.fail_member(names[0])

            connection.execute("INSERT INTO t VALUES (2, 'after')")
            assert connection.failovers >= 1
            survivors = {
                name: engine
                for name, engine in cluster.engines.items()
                if not name.startswith(f"{names[0]}/")
            }
            assert len(survivors) == 2 * (controllers - 1)
            assert all(engine.row_count("t") == 2 for engine in survivors.values())
            assert digest_mismatches(survivors) == []
            assert cluster.engine(f"{names[0]}/e0").row_count("t") == 1
            status = cluster.transport.describe()["groups"][f"ipf{controllers}"]
            assert status["members"] == names[1:]
            assert status["sequencer"] == cluster.group_nodes[names[1]].address
            assert status["sequence"] > sequence_before  # numbering continued
        finally:
            cluster.shutdown()


def tcp_group_descriptor(suffix: str, retry=None, controllers: str = "ab") -> dict:
    vdb = {
        "name": f"tgdb{suffix}",
        "group_name": f"tg-{suffix}",
        "recovery_log": "memory",
        "backends": ["db"],
        "group": {
            "transport": "tcp",
            "heartbeat_interval": 0.05,
            "rpc_timeout": 5.0,
        },
    }
    if retry is not None:
        vdb["retry"] = retry
    return {
        "name": f"tg-{suffix}",
        "virtual_databases": [vdb],
        "controllers": [{"name": f"tg-{suffix}-{letter}"} for letter in controllers],
    }


class TestTcpGroupBoot:
    """Descriptor-driven boot of grouped vdbs over the socket transport."""

    def test_each_controller_gets_its_own_socket_node(self):
        cluster = load_cluster(tcp_group_descriptor("nodes"))
        try:
            assert sorted(cluster.group_nodes) == ["tg-nodes-a", "tg-nodes-b"]
            node_a = cluster.group_nodes["tg-nodes-a"]
            node_b = cluster.group_nodes["tg-nodes-b"]
            assert node_a is not node_b
            assert node_a.address != node_b.address
            # the second controller joined the first one's group over TCP
            replica_b = cluster.replicas[("tg-nodes-b", "tgdbnodes")]
            assert sorted(replica_b.group_members) == ["tg-nodes-a", "tg-nodes-b"]
            assert replica_b.state_synced_from == "tg-nodes-a"
        finally:
            cluster.shutdown()

    def test_writes_replicate_through_the_socket_group(self):
        cluster = load_cluster(tcp_group_descriptor("wr"))
        try:
            connection = cluster.connect("tgdbwr")
            connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
            connection.execute("INSERT INTO t VALUES (1), (2)")
            assert cluster.engine("tg-wr-a/db").row_count("t") == 2
            assert cluster.engine("tg-wr-b/db").row_count("t") == 2
        finally:
            cluster.shutdown()

    def test_descriptor_retry_policy_reaches_connections(self):
        cluster = load_cluster(
            tcp_group_descriptor("rp", retry={"attempts": 5, "backoff": 0.01})
        )
        try:
            connection = cluster.connect("tgdbrp")
            assert connection._retry_policy.max_attempts == 5
            # URL options win over the descriptor default
            url_connection = repro.connect(
                "cjdbc://tg-rp-a/tgdbrp?retry_attempts=2"
            )
            assert url_connection._retry_policy.max_attempts == 2
        finally:
            cluster.shutdown()

    def test_shutdown_stops_every_group_node(self):
        cluster = load_cluster(tcp_group_descriptor("down"))
        nodes = list(cluster.group_nodes.values())
        assert all(node.is_running for node in nodes)
        cluster.shutdown()
        assert not cluster.group_nodes
        assert all(not node.is_running for node in nodes)


class TestOnlyController:
    """One-process-per-controller deployments boot a descriptor subset."""

    def test_boots_only_the_named_controller(self):
        cluster = load_cluster(ha_descriptor("only"), only_controller="ha-only-b")
        assert list(cluster.controllers) == ["ha-only-b"]
        # the single booted controller still serves its vdb
        connection = cluster.connect("hadbonly", "app", "secret")
        assert connection.execute("SELECT 1").scalar() == 1
        cluster.shutdown()

    def test_name_matching_is_case_insensitive(self):
        cluster = load_cluster(ha_descriptor("case2"), only_controller="HA-CASE2-A")
        assert list(cluster.controllers) == ["ha-case2-a"]
        cluster.shutdown()

    def test_unknown_controller_lists_known_names(self):
        with pytest.raises(
            ConfigurationError, match="ghost.*ha-ghosted-a.*ha-ghosted-b"
        ):
            load_cluster(ha_descriptor("ghosted"), only_controller="ghost")

    def test_crashed_controller_rejoins_a_tcp_group_by_state_transfer(self):
        """README "One process per controller": a restarted controller boots
        alone from the same descriptor, finds the survivors through
        ``group.members`` and synchronizes from one of them before serving."""
        from repro.cluster.fixture import digest_mismatches, wait_until

        document = tcp_group_descriptor("rejoin", controllers="abc")
        cluster = load_cluster(document)
        rebooted = None
        try:
            connection = cluster.connect("tgdbrejoin")
            connection.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
            connection.execute("INSERT INTO t VALUES (1, 'before')")
            victim = "tg-rejoin-c"
            cluster.group_nodes[victim].kill()  # hard crash, no goodbye
            survivors = ["tg-rejoin-a", "tg-rejoin-b"]
            assert wait_until(
                lambda: all(
                    cluster.replicas[(name, "tgdbrejoin")].group_members == survivors
                    for name in survivors
                )
            )
            connection.execute("INSERT INTO t VALUES (2, 'missed')")

            document["virtual_databases"][0]["group"]["members"] = {
                name: cluster.group_nodes[name].address for name in survivors
            }
            rebooted = load_cluster(
                document, registry=ControllerRegistry(), only_controller=victim
            )
            replica = rebooted.replicas[(victim, "tgdbrejoin")]
            assert replica.state_synced_from in survivors
            assert sorted(replica.group_members) == [*survivors, victim]

            connection.execute("INSERT INTO t VALUES (3, 'after')")
            live = {
                **{name: cluster.engine(f"{name}/db") for name in survivors},
                victim: rebooted.engine(f"{victim}/db"),
            }
            assert digest_mismatches(live) == []
            assert live[victim].row_count("t") == 3
            # the crashed incarnation's engine never saw the later writes
            assert cluster.engine(f"{victim}/db").row_count("t") == 1
        finally:
            if rebooted is not None:
                rebooted.shutdown()
            cluster.shutdown()


class TestProgrammaticAssembly:
    def test_from_configs_with_custom_engine(self):
        engine = DatabaseEngine("prog-engine")
        cluster = Cluster.from_configs(
            VirtualDatabaseConfig(
                name="progdb",
                backends=[BackendConfig(name="b0", engine=engine)],
                replication="single",
            ),
            controller_name="prog-ctrl",
        )
        connection = cluster.connect("cjdbc://prog-ctrl/progdb?user=u&password=p")
        connection.execute("CREATE TABLE p (id INT PRIMARY KEY)")
        assert engine.row_count("p") == 0
        assert cluster.engines["prog-engine"] is engine

    def test_private_registry_isolation(self):
        registry = ControllerRegistry()
        cluster = load_cluster(ha_descriptor("priv"), registry=registry)
        # resolvable through the private registry...
        connection = cluster.connect(
            "cjdbc://ha-priv-a/hadbpriv?user=app&password=secret"
        )
        assert connection.current_controller.name == "ha-priv-a"
        assert "ha-priv-a" in registry
        # ...and invisible to the process-wide default registry
        assert "ha-priv-a" not in default_registry

    def test_private_registry_does_not_clobber_default_entries(self):
        shared = Controller("clobber-shared")  # registered in default_registry
        private = ControllerRegistry()
        load_cluster(
            {
                "virtual_databases": [{"name": "privdb", "backends": ["b"]}],
                "controllers": [{"name": "clobber-shared"}],
            },
            registry=private,
        )
        # the default registry still resolves the original controller
        assert default_registry.resolve("clobber-shared") is shared


class TestBuilder:
    def test_build_virtual_database_registers_engines_via_public_path(self):
        engine = DatabaseEngine("shim-engine")
        from repro.core import build_virtual_database

        vdb = build_virtual_database(
            VirtualDatabaseConfig(
                name="shimdb",
                backends=[BackendConfig(name="b0", engine=engine)],
                replication="single",
            )
        )
        assert vdb.backend_engine("b0") is engine
        assert [b.name for b in vdb.backends] == ["b0"]
