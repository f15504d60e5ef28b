"""Descriptor loading: round-trips, schema validation, precise error messages."""

import json

import pytest

from repro.cluster import load_cluster, load_descriptor, parse_descriptor
from repro.errors import ConfigurationError


def minimal_descriptor(**vdb_overrides):
    vdb = {"name": "mydb", "backends": ["node-a", "node-b"]}
    vdb.update(vdb_overrides)
    return {"virtual_databases": [vdb]}


class TestDescriptorParsing:
    def test_minimal_descriptor_defaults(self):
        descriptor = load_descriptor(minimal_descriptor())
        assert descriptor.name == "cluster"
        spec = descriptor.virtual_database("mydb")
        assert spec.replication == "raidb1"
        assert spec.backend_names == ["node-a", "node-b"]
        assert spec.backends[0].engine_name == "node-a"
        # no controllers section -> one default controller hosting everything
        assert [c.name for c in descriptor.controllers] == ["controller0"]
        assert descriptor.controllers[0].virtual_databases == ["mydb"]

    def test_parsing_cache_knob(self):
        # default: on, 1024 statements
        spec = load_descriptor(minimal_descriptor()).virtual_database("mydb")
        assert spec.parsing_cache_size == 1024
        # explicit size flows down to the built request factory
        cluster = load_cluster(minimal_descriptor(parsing_cache_size=7))
        factory = cluster.virtual_database("mydb").request_manager.request_factory
        assert factory.parsing_cache is not None
        assert factory.parsing_cache.max_entries == 7
        # 0 disables the cache entirely
        cluster = load_cluster(minimal_descriptor(parsing_cache_size=0))
        factory = cluster.virtual_database("mydb").request_manager.request_factory
        assert factory.parsing_cache is None

    def test_backend_mapping_form(self):
        descriptor = load_descriptor(
            minimal_descriptor(
                backends=[
                    {"name": "b0", "engine": "shared", "weight": 3, "pool_size": 4,
                     "connection_manager": "failfast"},
                ]
            )
        )
        backend = descriptor.virtual_database("mydb").backends[0]
        assert backend.engine_name == "shared"
        assert backend.weight == 3
        assert backend.pool_size == 4
        assert backend.connection_manager == "failfast"

    def test_cache_section_with_relaxation_rules(self):
        descriptor = load_descriptor(
            minimal_descriptor(
                cache={
                    "granularity": "column",
                    "max_entries": 42,
                    "relaxation_rules": [
                        {"staleness_seconds": 60, "tables": ["items"], "keep_on_write": False}
                    ],
                }
            )
        )
        spec = descriptor.virtual_database("mydb")
        # a present cache section means enabled unless stated otherwise
        assert spec.cache_enabled is True
        assert spec.cache_granularity == "column"
        assert spec.cache_max_entries == 42
        rule = spec.cache_relaxation_rules[0]
        assert rule.staleness_seconds == 60.0
        assert rule.tables == ("items",)
        assert rule.keep_on_write is False

    def test_empty_cache_section_means_enabled(self):
        # README: "a present section defaults to enabled"
        spec = load_descriptor(minimal_descriptor(cache={})).virtual_database("mydb")
        assert spec.cache_enabled is True
        absent = load_descriptor(minimal_descriptor()).virtual_database("mydb")
        assert absent.cache_enabled is False

    def test_multiple_vdbs_and_controllers(self):
        descriptor = load_descriptor(
            {
                "name": "multi",
                "virtual_databases": [
                    {"name": "db1", "backends": ["a"]},
                    {"name": "db2", "backends": ["b"]},
                ],
                "controllers": [
                    {"name": "c1", "virtual_databases": ["db1", "db2"]},
                    {"name": "c2", "virtual_databases": ["db2"]},
                ],
            }
        )
        assert [c.name for c in descriptor.controllers_hosting("db2")] == ["c1", "c2"]
        assert [c.name for c in descriptor.controllers_hosting("db1")] == ["c1"]

    def test_round_trip_dict_to_cluster_to_statistics(self):
        """dict -> cluster -> statistics reflects exactly what was declared."""
        cluster = load_cluster(
            {
                "name": "rt",
                "virtual_databases": [
                    {
                        "name": "rtdb",
                        "replication": "raidb1",
                        "cache": {"enabled": True},
                        "recovery_log": "memory",
                        "users": {"app": "pw"},
                        "backends": ["b0", "b1"],
                    }
                ],
                "controllers": [{"name": "rt-ctrl"}],
            }
        )
        stats = cluster.statistics()
        assert stats["cluster"] == "rt"
        vdb_stats = stats["controllers"]["rt-ctrl"]["virtual_databases"]["rtdb"]
        assert {b["name"] for b in vdb_stats["backends"]} == {"b0", "b1"}
        assert vdb_stats["cache"] is not None
        assert sorted(cluster.engines) == ["b0", "b1"]


class TestDescriptorFiles:
    def test_load_from_json_file(self, tmp_path):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(minimal_descriptor()))
        descriptor = load_descriptor(path)
        assert descriptor.virtual_database("mydb").backend_names == ["node-a", "node-b"]

    def test_load_from_toml_file(self, tmp_path):
        path = tmp_path / "cluster.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "toml-cluster"',
                    "[[virtual_databases]]",
                    'name = "mydb"',
                    'backends = ["node-a"]',
                    "[[controllers]]",
                    'name = "ctrl"',
                ]
            )
        )
        descriptor = load_descriptor(path)
        assert descriptor.name == "toml-cluster"
        assert [c.name for c in descriptor.controllers] == ["ctrl"]

    def test_missing_file_and_bad_json(self, tmp_path):
        with pytest.raises(ConfigurationError, match="does not exist"):
            load_descriptor(tmp_path / "nope.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="invalid JSON"):
            load_descriptor(bad)


class TestDescriptorValidation:
    """Malformed descriptors fail with messages naming the offending key."""

    @pytest.mark.parametrize(
        "document, message",
        [
            ([], "cluster descriptor must be a mapping"),
            ({"virtual_databases": []}, "at least one virtual database"),
            ({"vdbs": []}, r"descriptor: unknown key 'vdbs'"),
            ({"virtual_databases": [{"backends": ["a"]}]},
             r"virtual_databases\[0\]: missing required key 'name'"),
            ({"virtual_databases": [{"name": "d", "backends": []}]},
             "at least one backend"),
            ({"virtual_databases": [{"name": "d", "backends": ["a", "a"]}]},
             "duplicate backend name 'a'"),
            ({"virtual_databases": [{"name": "d", "backends": [{"weight": 1}]}]},
             r"backends\[0\]: missing required key 'name'"),
            ({"virtual_databases": [{"name": "d", "backends": [{"name": "a", "weight": "x"}]}]},
             r"backends\[0\]\.weight: expected an integer"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"], "cache": {"enabled": "yes"}}]},
             r"cache\.enabled: expected true/false"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "cache": {"relaxation_rules": [{}]}}]},
             r"relaxation_rules\[0\]: missing required key 'staleness_seconds'"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "replication_map": {"t": ["ghost"]}}]},
             r"replication_map\.t: unknown backend 'ghost'"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "partition_map": {"t": "ghost"}}]},
             r"partition_map\.t: unknown backend 'ghost'"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"]},
                                    {"name": "D", "backends": ["a"]}]},
             "duplicate virtual database name"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"], "group_name": ""}]},
             r"group_name: must be a non-empty group name"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "parsing_cache_size": -1}]},
             r"parsing_cache_size: expected a non-negative integer"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "parsing_cache_size": "big"}]},
             r"parsing_cache_size: expected a non-negative integer.*got 'big'"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "parsing_cache_size": True}]},
             r"parsing_cache_size: expected a non-negative integer"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"]}],
              "controllers": [{"name": "c", "virtual_databases": ["ghost"]}]},
             r"controllers\[0\]\.virtual_databases: unknown virtual database 'ghost'"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"]}],
              "controllers": [{"name": "c"}, {"name": "c"}]},
             "duplicate controller name 'c'"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"]},
                                    {"name": "e", "backends": ["a"]}],
              "controllers": [{"name": "c", "virtual_databases": ["d"]}]},
             "'e' not hosted by any controller"),
        ],
    )
    def test_malformed_descriptor_messages(self, document, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(document)

    @pytest.mark.parametrize(
        "overrides, path, allowed",
        [
            ({"replication": "raidb9"}, "replication", "raidb0, raidb1, raidb2, single"),
            ({"load_balancing_policy": "zzz"}, "load_balancing_policy", "lprf, rr, wrr"),
            ({"wait_for_completion": "some"}, "wait_for_completion", "all, first, majority"),
            ({"recovery_log": "redis:x"}, "recovery_log", "file:<path>, memory, none"),
            ({"cache": {"granularity": "row"}}, "cache.granularity", "column, database, table"),
            (
                {"backends": [{"name": "a", "connection_manager": "pooled"}]},
                "backends[0].connection_manager",
                "failfast, randomwait, simple, variable",
            ),
        ],
    )
    def test_enum_keys_name_their_path_and_allowed_values(self, overrides, path, allowed):
        # regression: these six passed parse_descriptor unchecked and failed
        # later, at build time, without a key path (or with a ValueError)
        with pytest.raises(ConfigurationError) as raised:
            parse_descriptor(minimal_descriptor(**overrides))
        bad = str(raised.value).rsplit("got ", 1)[1]
        assert str(raised.value) == (
            f"descriptor.virtual_databases[0].{path}: expected one of: {allowed}, got {bad}"
        )

    def test_enum_aliases_and_case_are_still_accepted(self):
        spec = parse_descriptor(
            minimal_descriptor(
                replication="RAIDb-1",
                load_balancing_policy="Round-Robin",
                wait_for_completion="FIRST",
                recovery_log="file:/tmp/recovery.log",
                cache={"granularity": "Column"},
                backends=[{"name": "a", "connection_manager": "fail_fast"}],
            )
        ).virtual_database("mydb")
        assert spec.replication == "RAIDb-1"
        assert spec.backends[0].connection_manager == "fail_fast"

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"virtual_databases": [{"name": "d", "backends": ["a"]}],
              "controllers": [{"name": "c", "listen": {"port": 0, "host": ""}}]},
             r"controllers\[0\]\.listen\.host: expected a non-empty string"),
            ({"virtual_databases": [{"name": "d", "backends": [{"name": "a", "engine": ""}]}]},
             r"backends\[0\]\.engine: expected a non-empty string"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"], "group_name": "g",
                                     "group": {"transport": ""}}]},
             r"group\.transport: expected a non-empty string"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"],
                                     "routing": {"policy": ""}}]},
             r"routing\.policy: expected a non-empty string"),
            ({"virtual_databases": [{"name": "d", "backends": ["a"], "cache": {
                "relaxation_rules": [{"staleness_seconds": -1}]}}]},
             r"relaxation_rules\[0\]\.staleness_seconds: must be >= 0"),
        ],
    )
    def test_values_the_hand_parsers_let_through(self, document, message):
        # regression: empty strings fell back to the default through
        # `... or default`, and a negative staleness was accepted
        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(document)

    def test_unknown_vdb_lookup_lists_known_names(self):
        descriptor = load_descriptor(minimal_descriptor())
        with pytest.raises(ConfigurationError, match="no virtual database 'ghost'.*mydb"):
            descriptor.virtual_database("ghost")


class TestGroupAndRetrySections:
    """``group:`` (transport wiring) and ``retry:`` (client policy) sections."""

    def _descriptor(self, group=None, retry=None, controllers=None):
        vdb = {"name": "gdb", "backends": ["ge0"], "group_name": "g"}
        if group is not None:
            vdb["group"] = group
        if retry is not None:
            vdb["retry"] = retry
        document = {"virtual_databases": [vdb]}
        if controllers is not None:
            document["controllers"] = controllers
        return document

    def test_group_defaults_to_inproc(self):
        spec = parse_descriptor(self._descriptor(group={})).virtual_database("gdb")
        assert spec.group.transport == "inproc"
        assert spec.group.heartbeat_interval == 0.5
        assert spec.group.heartbeat_threshold == 3
        assert spec.group.rpc_timeout == 10.0
        assert spec.group.members == {}

    def test_absent_group_section_means_none(self):
        spec = parse_descriptor(self._descriptor()).virtual_database("gdb")
        assert spec.group is None
        assert spec.retry is None

    def test_tcp_group_with_fixed_members(self):
        document = self._descriptor(
            group={
                "transport": "tcp",
                "heartbeat_interval": 0.1,
                "heartbeat_threshold": 5,
                "rpc_timeout": 2.5,
                "members": {"ca": "127.0.0.1:26001", "cb": "127.0.0.1:26002"},
            },
            controllers=[
                {"name": "ca", "virtual_databases": ["gdb"]},
                {"name": "cb", "virtual_databases": ["gdb"]},
            ],
        )
        spec = parse_descriptor(document).virtual_database("gdb")
        assert spec.group.transport == "tcp"
        assert spec.group.heartbeat_interval == 0.1
        assert spec.group.heartbeat_threshold == 5
        assert spec.group.rpc_timeout == 2.5
        assert spec.group.members == {
            "ca": "127.0.0.1:26001",
            "cb": "127.0.0.1:26002",
        }

    def test_retry_section_builds_a_policy(self):
        document = self._descriptor(
            retry={"attempts": 5, "backoff": 0.1, "timeout": 20, "seed": 3}
        )
        spec = parse_descriptor(document).virtual_database("gdb")
        assert spec.retry.max_attempts == 5
        assert spec.retry.backoff == 0.1
        assert spec.retry.operation_timeout == 20.0
        assert spec.retry.seed == 3

    def test_empty_retry_section_means_defaults(self):
        spec = parse_descriptor(self._descriptor(retry={})).virtual_database("gdb")
        assert spec.retry is not None
        assert spec.retry.max_attempts == 3

    @pytest.mark.parametrize(
        "group, message",
        [
            ("tcp", r"group: expected a mapping"),
            ({"transport": "pigeon"}, r"group\.transport: expected one of"),
            ({"bogus": 1}, r"group: unknown key"),
            ({"heartbeat_interval": -1}, r"heartbeat_interval"),
            ({"heartbeat_threshold": 0}, r"heartbeat_threshold"),
            ({"members": {"ca": "127.0.0.1:26001"}},
             r"members: fixed member addresses only apply to the 'tcp' transport"),
            ({"transport": "tcp", "members": {"ca": "no-port"}},
             r"members\.ca: expected a 'host:port' group address"),
            ({"transport": "tcp", "members": {"ca": "h:99999"}},
             r"members\.ca: expected a 'host:port' group address"),
        ],
    )
    def test_malformed_group_sections(self, group, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(self._descriptor(group=group))

    @pytest.mark.parametrize(
        "retry, message",
        [
            ("fast", r"retry: expected a mapping"),
            ({"bogus": 1}, r"retry: unknown key"),
            ({"attempts": 0}, r"retry: .*max_attempts"),
            ({"attempts": "lots"}, r"retry: invalid retry option"),
            ({"jitter": 2}, r"retry: .*jitter"),
        ],
    )
    def test_malformed_retry_sections(self, retry, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(self._descriptor(retry=retry))

    def test_group_requires_group_name(self):
        document = self._descriptor(group={"transport": "tcp"})
        del document["virtual_databases"][0]["group_name"]
        with pytest.raises(ConfigurationError, match="needs group_name"):
            parse_descriptor(document)

    def test_member_addresses_must_name_known_controllers(self):
        document = self._descriptor(
            group={"transport": "tcp", "members": {"ghost": "127.0.0.1:26001"}},
            controllers=[{"name": "ca", "virtual_databases": ["gdb"]}],
        )
        with pytest.raises(
            ConfigurationError, match=r"group\.members: unknown controller 'ghost'"
        ):
            parse_descriptor(document)


class TestListenSection:
    def _descriptor(self, listen):
        return {
            "virtual_databases": [{"name": "ldb", "backends": ["le0"]}],
            "controllers": [{"name": "ctrl", "listen": listen}],
        }

    def test_listen_defaults(self):
        from repro.cluster.descriptor import parse_descriptor

        descriptor = parse_descriptor(self._descriptor({"port": 0}))
        listen = descriptor.controllers[0].listen
        assert listen.port == 0
        assert listen.host == "127.0.0.1"
        assert listen.max_connections == 64
        assert listen.idle_timeout is None
        assert listen.backlog == 128

    def test_listen_full_form(self):
        from repro.cluster.descriptor import parse_descriptor

        descriptor = parse_descriptor(
            self._descriptor(
                {
                    "port": 25322,
                    "host": "0.0.0.0",
                    "max_connections": 10,
                    "idle_timeout": 30,
                    "backlog": 5,
                }
            )
        )
        listen = descriptor.controllers[0].listen
        assert (listen.host, listen.port) == ("0.0.0.0", 25322)
        assert listen.max_connections == 10
        assert listen.idle_timeout == 30.0
        assert listen.backlog == 5

    def test_controller_without_listen_is_in_process_only(self):
        from repro.cluster.descriptor import parse_descriptor

        document = self._descriptor({"port": 0})
        del document["controllers"][0]["listen"]
        assert parse_descriptor(document).controllers[0].listen is None

    @pytest.mark.parametrize(
        "listen, message",
        [
            ("yes", r"listen.*expected a mapping"),
            ({}, "missing required key 'port'"),
            ({"port": 70000}, "expected a TCP port number"),
            ({"port": True}, "expected a TCP port number"),
            ({"port": "25322"}, "expected a TCP port number"),
            ({"port": 0, "idle_timeout": -1}, "positive number of seconds"),
            ({"port": 0, "idle_timeout": True}, "positive number of seconds"),
            ({"port": 0, "bogus": 1}, r"listen.*unknown key"),
        ],
    )
    def test_malformed_listen_sections(self, listen, message):
        from repro.cluster.descriptor import parse_descriptor

        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(self._descriptor(listen))

    def test_duplicate_fixed_addresses_rejected(self):
        from repro.cluster.descriptor import parse_descriptor

        document = {
            "virtual_databases": [{"name": "ldb", "backends": ["le0"]}],
            "controllers": [
                {"name": "a", "listen": {"port": 25322}},
                {"name": "b", "listen": {"port": 25322}},
            ],
        }
        with pytest.raises(ConfigurationError, match="both listen on 127.0.0.1:25322"):
            parse_descriptor(document)
        # ephemeral ports never collide
        for controller in document["controllers"]:
            controller["listen"]["port"] = 0
        assert parse_descriptor(document).controllers[1].listen.port == 0


class TestRoutingSection:
    """``routing:`` section: cost-based planner policy, validated like group/retry."""

    def _descriptor(self, routing=None):
        vdb = {"name": "rdb", "backends": ["re0", "re1"]}
        if routing is not None:
            vdb["routing"] = routing
        return {"virtual_databases": [vdb]}

    def test_absent_routing_section_means_none(self):
        spec = parse_descriptor(self._descriptor()).virtual_database("rdb")
        assert spec.routing is None
        config = spec.to_config({})
        assert config.routing_policy == "policy"
        assert config.routing_scatter_gather is False
        assert config.routing_weights == {}

    def test_empty_routing_section_means_defaults(self):
        spec = parse_descriptor(self._descriptor(routing={})).virtual_database("rdb")
        assert spec.routing is not None
        assert spec.routing.policy == "policy"
        assert spec.routing.scatter_gather is False
        assert spec.routing.weights == {}

    def test_routing_section_flows_to_the_built_planner(self):
        cluster = load_cluster(
            self._descriptor(
                routing={
                    "policy": "cost",
                    "scatter_gather": True,
                    "weights": {"pending": 2.0, "pool": 0.25},
                }
            )
        )
        planner = cluster.virtual_database("rdb").request_manager.planner
        assert planner.config.policy == "cost"
        assert planner.config.scatter_gather is True
        assert planner.config.weights.pending == 2.0
        assert planner.config.weights.pool == 0.25
        # unspecified weights keep their defaults
        assert planner.config.weights.service_time == 1.0

    @pytest.mark.parametrize(
        "routing, message",
        [
            ("cost", r"routing: expected a mapping"),
            ({"policy": "fastest"}, r"routing\.policy: expected one of: cost, policy"),
            ({"bogus": 1}, r"routing: unknown key 'bogus'"),
            ({"weights": {"bogus": 1}}, r"routing\.weights: unknown key 'bogus'"),
            ({"weights": {"pending": "x"}}, r"routing\.weights\.pending: expected a number"),
            ({"weights": {"pool": -1}}, r"routing\.weights\.pool: must be between 0 and 100"),
            ({"weights": {"pool": 101}}, r"routing\.weights\.pool: must be between 0 and 100"),
        ],
    )
    def test_malformed_routing_sections(self, routing, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(self._descriptor(routing))


class TestSchedulerSection:
    """``scheduler:`` knob: name or options mapping, validated at parse time."""

    def _descriptor(self, scheduler=None):
        vdb = {"name": "sdb", "backends": ["se0", "se1"]}
        if scheduler is not None:
            vdb["scheduler"] = scheduler
        return {"virtual_databases": [vdb]}

    def test_absent_scheduler_defaults_to_optimistic(self):
        spec = parse_descriptor(self._descriptor()).virtual_database("sdb")
        assert spec.scheduler == "optimistic"

    def test_scheduler_name_flows_to_the_built_scheduler(self):
        from repro.core.scheduler import MVCCScheduler, TableLockScheduler

        cluster = load_cluster(self._descriptor(scheduler="mvcc"))
        scheduler = cluster.virtual_database("sdb").request_manager.scheduler
        assert isinstance(scheduler, MVCCScheduler)
        cluster = load_cluster(
            self._descriptor(scheduler={"name": "table_lock", "lock_timeout": 1.5})
        )
        scheduler = cluster.virtual_database("sdb").request_manager.scheduler
        assert isinstance(scheduler, TableLockScheduler)
        assert scheduler.lock_timeout == 1.5

    def test_scheduler_mapping_options_flow_through(self):
        from repro.core.scheduler import MVCCScheduler

        cluster = load_cluster(self._descriptor(scheduler={"name": "snapshot"}))
        scheduler = cluster.virtual_database("sdb").request_manager.scheduler
        assert isinstance(scheduler, MVCCScheduler)

    def test_aliases_are_accepted(self):
        spec = parse_descriptor(
            self._descriptor(scheduler="snapshot")
        ).virtual_database("sdb")
        assert spec.scheduler == "snapshot"

    @pytest.mark.parametrize(
        "scheduler, message",
        [
            ("fifo", r"scheduler\.name: expected one of: .*, got 'fifo'"),
            (17, r"scheduler: expected a mapping, got 17"),
            ({"lock_timeout": 1.0}, r"scheduler: missing required key 'name'"),
            ({"name": "mvcc", "lock_timeout": 1.0}, r"scheduler: lock_timeout only applies"),
            (
                {"name": "table_lock", "conflict_policy": "detect_only"},
                r"scheduler: unknown key 'conflict_policy'",
            ),
            ({"name": "table_lock", "granularity": "row"}, r"scheduler: unknown key"),
            ({"name": "table_lock", "lock_timeout": -2}, r"scheduler\.lock_timeout: must be > 0"),
            (
                {"name": "mvcc", "conflict_policy": "last_write_wins"},
                r"scheduler: unknown key 'conflict_policy'",
            ),
        ],
    )
    def test_malformed_scheduler_sections(self, scheduler, message):
        with pytest.raises(ConfigurationError, match=message):
            parse_descriptor(self._descriptor(scheduler))
