"""Query planner: route plans, cost routing, scatter-gather and EXPLAIN."""

import pytest

from repro.cluster import Cluster
from repro.cluster.fixture import boot, descriptor
from repro.core import BackendConfig, VirtualDatabaseConfig
from repro.core.management import AdminConsole
from repro.core.requestparser import RequestFactory
from repro.errors import CJDBCError, DatabaseError, NotReplicatedError
from repro.planner import (
    BROADCAST,
    MERGE_AGGREGATE,
    MERGE_ORDERED,
    MERGE_UNION,
    PlacementMap,
    RoutingConfig,
    SCATTER_GATHER,
    SINGLE,
)
from repro.sql import DatabaseEngine

factory = RequestFactory()


def build_cluster(
    name,
    replication="raidb2",
    backends=3,
    replication_map=None,
    routing_policy="policy",
    scatter_gather=False,
    **overrides,
):
    configs = [
        BackendConfig(name=f"b{i}", engine=DatabaseEngine(f"{name}-{i}"))
        for i in range(backends)
    ]
    return Cluster.from_configs(
        VirtualDatabaseConfig(
            name=name,
            backends=configs,
            replication=replication,
            replication_map=replication_map or {},
            routing_policy=routing_policy,
            routing_scatter_gather=scatter_gather,
            recovery_log="none",
            **overrides,
        ),
        controller_name=f"{name}-ctrl",
    )


def partial_vdb(name, routing_policy="policy", scatter_gather=False):
    """3 backends: item everywhere, orders/order_line only on b0+b1."""
    cluster = build_cluster(
        name,
        replication_map={
            "item": ["b0", "b1", "b2"],
            "orders": ["b0", "b1"],
            "order_line": ["b0", "b1"],
            "customer": ["b2"],
        },
        routing_policy=routing_policy,
        scatter_gather=scatter_gather,
    )
    vdb = cluster.virtual_database(name)
    manager = vdb.request_manager
    manager.execute("CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(32))")
    manager.execute("CREATE TABLE orders (o_id INT PRIMARY KEY, o_total INT)")
    manager.execute("CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT)")
    manager.execute("CREATE TABLE customer (c_id INT PRIMARY KEY, c_name VARCHAR(32))")
    for key in range(5):
        manager.execute("INSERT INTO item (i_id, i_title) VALUES (?, ?)", (key, f"t{key}"))
        manager.execute("INSERT INTO orders (o_id, o_total) VALUES (?, ?)", (key, key * 10))
        manager.execute(
            "INSERT INTO customer (c_id, c_name) VALUES (?, ?)", (key, f"c{key}")
        )
    return cluster, vdb


class TestStatementClassification:
    """Cost class and merge kind come from the parse tree, not from substrings."""

    def test_point_read_is_simple(self):
        template = factory.get_template("SELECT v FROM kv WHERE k = ?")
        assert template.cost_class == "read_simple"

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM a JOIN b ON a.id = b.id",
            "SELECT v FROM kv ORDER BY v",
            "SELECT COUNT(*) FROM kv",
            "SELECT COUNT (*) FROM t",
            "SELECT a FROM t\nORDER BY a",
        ],
    )
    def test_join_order_by_and_aggregates_are_complex(self, sql):
        assert factory.get_template(sql).cost_class == "read_complex"

    def test_writes_and_batches(self):
        assert factory.get_template("UPDATE kv SET v = 1").cost_class == "write"
        cluster = build_cluster("class-batch", replication="single", backends=1)
        vdb = cluster.virtual_database("class-batch")
        vdb.request_manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v INT)")
        vdb.request_manager.execute_batch("INSERT INTO kv (k, v) VALUES (?, 0)", [(1,), (2,)])
        (backend,) = vdb.backends
        assert backend.planner_inputs("batch")[0] is not None

    @pytest.mark.parametrize(
        "sql, merge",
        [
            ("SELECT * FROM a, b WHERE a.id = b.id", MERGE_UNION),
            ("SELECT * FROM a, b ORDER BY a.id", MERGE_ORDERED),
            ("SELECT a FROM t\nORDER BY a", MERGE_ORDERED),
            ("SELECT COUNT(*) FROM a, b", MERGE_AGGREGATE),
            ("SELECT COUNT (*) FROM t", MERGE_AGGREGATE),
        ],
    )
    def test_merge_strategy(self, sql, merge):
        assert factory.get_template(sql).merge == merge


class TestRoutePlansPerRaidbLevel:
    def test_single_db_plan(self):
        cluster = build_cluster("plan-single", replication="single", backends=1)
        manager = cluster.virtual_database("plan-single").request_manager
        manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(10))")
        plan = manager.explain("SELECT v FROM kv WHERE k = ?")
        assert plan.kind == SINGLE
        assert plan.backend_names == ("b0",)
        assert "SingleDB" in plan.reason

    def test_raidb0_routes_read_to_partition_owner(self):
        cluster = build_cluster(
            "plan-r0", replication="raidb0", backends=2,
            partition_map={"part_a": "b0", "part_b": "b1"},
        )
        manager = cluster.virtual_database("plan-r0").request_manager
        manager.execute("CREATE TABLE part_a (k INT PRIMARY KEY)")
        manager.execute("CREATE TABLE part_b (k INT PRIMARY KEY)")
        plan = manager.explain("SELECT * FROM part_b")
        assert plan.kind == SINGLE
        assert plan.backend_names == ("b1",)
        write_plan = manager.explain("INSERT INTO part_a (k) VALUES (1)")
        assert write_plan.kind == BROADCAST
        assert write_plan.backend_names == ("b0",)

    def test_raidb1_reads_offer_every_backend(self):
        cluster = build_cluster("plan-r1", replication="raidb1", backends=3)
        manager = cluster.virtual_database("plan-r1").request_manager
        manager.execute("CREATE TABLE kv (k INT PRIMARY KEY)")
        plan = manager.explain("SELECT * FROM kv")
        assert plan.kind == SINGLE
        assert set(plan.backend_names) == {"b0", "b1", "b2"}
        assert len(plan.candidates) == 3
        write_plan = manager.explain("INSERT INTO kv (k) VALUES (1)")
        assert write_plan.kind == BROADCAST
        assert set(write_plan.backend_names) == {"b0", "b1", "b2"}

    def test_raidb2_read_pins_co_located_candidates(self):
        _, vdb = partial_vdb("plan-r2")
        plan = vdb.request_manager.explain("SELECT o_total FROM orders WHERE o_id = ?")
        assert plan.kind == SINGLE
        assert set(plan.backend_names) == {"b0", "b1"}
        assert plan.statement_class == "read_simple"
        # policy mode: the read policy still decides per execution
        assert plan.policy == "policy"
        assert plan.chosen is None

    def test_raidb2_write_is_minimal_cover(self):
        _, vdb = partial_vdb("plan-r2w")
        plan = vdb.request_manager.explain("UPDATE customer SET c_name = 'x' WHERE c_id = 1")
        assert plan.kind == BROADCAST
        assert plan.backend_names == ("b2",)
        assert "minimal-cover broadcast" in plan.reason

    def test_cost_policy_pins_cheapest(self):
        _, vdb = partial_vdb("plan-cost", routing_policy="cost")
        plan = vdb.request_manager.explain("SELECT o_total FROM orders WHERE o_id = 1")
        assert plan.policy == "cost"
        assert plan.chosen in {"b0", "b1"}
        # candidates are sorted cheapest first and carry their inputs
        assert plan.candidates[0].backend_name == plan.chosen
        assert plan.candidates[0].cost <= plan.candidates[-1].cost


class TestRaidb2EdgeCases:
    def test_un_co_hosted_read_raises_not_replicated(self):
        _, vdb = partial_vdb("edge-nrep")
        # orders lives on b0+b1, customer only on b2: nobody co-hosts both
        with pytest.raises(NotReplicatedError):
            vdb.request_manager.execute(
                "SELECT * FROM orders, customer WHERE orders.o_id = customer.c_id"
            )
        with pytest.raises(NotReplicatedError):
            vdb.request_manager.explain("SELECT * FROM orders, customer")

    def test_a_refused_write_is_never_logged(self):
        """The planner refuses a write before the recovery log records it,
        so no recovery can replay a write that no backend ran."""
        cluster = boot(
            descriptor(
                "refused",
                4,
                replication="raidb2",
                recovery_log="memory",
                replication_map={"order_line": ["b0", "b1"]},
            )
        )
        try:
            cursor = cluster.connect(cluster.name, "u", "p").cursor()
            cursor.execute("CREATE TABLE order_line (id INT PRIMARY KEY, q INT)")
            cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, q INT)")
            log = cluster.virtual_database(cluster.name).request_manager.recovery_log
            assert len(log) == 2
            # t lives on all four backends, order_line on b0 and b1 only
            with pytest.raises(NotReplicatedError):
                cursor.execute("INSERT INTO t (id, q) SELECT id, q FROM order_line")
            assert len(log) == 2
            assert log.entries()[-1].sql.startswith("CREATE TABLE t")
        finally:
            cluster.shutdown()

    def test_ddl_with_replication_map_targets_mapped_backends(self):
        cluster = build_cluster(
            "edge-ddl-map", replication_map={"mapped": ["b0", "b2"]}
        )
        vdb = cluster.virtual_database("edge-ddl-map")
        plan = vdb.request_manager.explain("CREATE TABLE mapped (k INT PRIMARY KEY)")
        assert plan.kind == BROADCAST
        assert set(plan.backend_names) == {"b0", "b2"}
        vdb.request_manager.execute("CREATE TABLE mapped (k INT PRIMARY KEY)")
        hosts = {b.name for b in vdb.backends if b.has_tables(("mapped",))}
        assert hosts == {"b0", "b2"}

    def test_ddl_without_replication_map_broadcasts_everywhere(self):
        cluster = build_cluster("edge-ddl-nomap")
        vdb = cluster.virtual_database("edge-ddl-nomap")
        plan = vdb.request_manager.explain("CREATE TABLE unmapped (k INT PRIMARY KEY)")
        assert set(plan.backend_names) == {"b0", "b1", "b2"}
        vdb.request_manager.execute("CREATE TABLE unmapped (k INT PRIMARY KEY)")
        assert all(b.has_tables(("unmapped",)) for b in vdb.backends)

    def test_longest_prefix_pattern_wins_regardless_of_order(self):
        from repro.core.loadbalancer import RAIDb2LoadBalancer

        # insertion order puts the generic pattern first; the specific
        # pattern must still win for tables matching both
        balancer = RAIDb2LoadBalancer(
            replication_map={
                "tpcw_%": ["b0", "b1", "b2"],
                "tpcw_bestseller_%": ["b0"],
            }
        )
        assert balancer.backends_for_table("tpcw_bestseller_42") == {"b0"}
        assert balancer.backends_for_table("tpcw_cart_7") == {"b0", "b1", "b2"}
        assert balancer.backends_for_table("unrelated") is None

    def test_placement_map_cover_names_missing_tables(self):
        _, vdb = partial_vdb("edge-cover")
        placement = PlacementMap(vdb.request_manager.enabled_backends())
        assert {b.name for b in placement.hosts("orders")} == {"b0", "b1"}
        cover = placement.cover(("orders", "customer"))
        assert {b.name for b in cover["customer"]} == {"b2"}
        with pytest.raises(NotReplicatedError) as excinfo:
            placement.cover(("orders", "ghost_table"))
        assert "ghost_table" in str(excinfo.value)


class TestPlanCache:
    def test_repeated_statement_hits_template_cache(self):
        _, vdb = partial_vdb("cache-hit")
        manager = vdb.request_manager
        planner = manager.planner
        built_before = planner.plans_built
        for key in range(5):
            manager.execute("SELECT o_total FROM orders WHERE o_id = ?", (key,))
        assert planner.plans_built == built_before + 1
        assert planner.plan_cache_hits >= 4

    def test_set_table_placement_invalidates_cached_plans(self):
        _, vdb = partial_vdb("cache-placement")
        manager = vdb.request_manager
        planner = manager.planner
        manager.execute("SELECT o_total FROM orders WHERE o_id = 1")
        version = planner.version
        built = planner.plans_built
        manager.load_balancer.set_table_placement("orders", ["b0"])
        assert planner.version == version + 1
        # the next execution re-plans instead of reusing the stale plan
        manager.execute("SELECT o_total FROM orders WHERE o_id = 1")
        assert planner.plans_built == built + 1

    def test_ddl_and_membership_changes_invalidate(self):
        _, vdb = partial_vdb("cache-ddl")
        manager = vdb.request_manager
        planner = manager.planner
        version = planner.version
        manager.execute("CREATE TABLE extra (e_id INT PRIMARY KEY)")
        assert planner.version > version
        version = planner.version
        vdb.get_backend("b2").disable()
        assert planner.version > version
        version = planner.version
        vdb.get_backend("b2").enable()
        assert planner.version > version

    def test_write_and_batch_do_not_share_a_cached_plan(self):
        _, vdb = partial_vdb("cache-batch")
        manager = vdb.request_manager
        sql = "INSERT INTO item (i_id, i_title) VALUES (?, ?)"
        manager.execute(sql, (100, "one"))
        manager.execute_batch(sql, [(101, "two"), (102, "three")])
        plan = manager.explain(sql)
        assert plan.category == "write"


class TestCostRouting:
    def test_cost_routing_avoids_slow_backend(self):
        _, vdb = partial_vdb("cost-slow", routing_policy="cost")
        manager = vdb.request_manager
        vdb.fault_injector("b0").inject("latency", latency_ms=5.0, probability=1.0)
        for key in range(120):
            manager.execute("SELECT o_total FROM orders WHERE o_id = ?", (key % 5,))
        b0 = vdb.get_backend("b0").total_reads
        b1 = vdb.get_backend("b1").total_reads
        # the EWMA learns b0 is slow; only exploration probes keep landing on it
        assert b1 > b0 * 3
        assert manager.load_balancer.cost_routed_reads >= 120

    def test_exploration_rotates_over_all_candidates(self):
        from repro.planner.cost import EXPLORATION_INTERVAL, CostEstimator

        class FakeBackend:
            def __init__(self, name, service):
                self.name = name
                self._service = service

            def planner_inputs(self, statement_class):
                return {"read_simple": self._service}.get(statement_class), 0, 0.0

        slow = FakeBackend("slow", 0.5)
        fast = FakeBackend("fast", 0.001)
        estimator = CostEstimator()
        chosen = [
            estimator.choose("read_simple", [slow, fast]).name
            for _ in range(EXPLORATION_INTERVAL * 4)
        ]
        # the slow backend is only ever probed, but it *is* probed: the
        # probes alternate over the candidate list
        assert chosen.count("slow") == 2
        assert estimator.statistics()["explorations"] == 4

    def test_backend_planner_inputs_and_statistics(self):
        _, vdb = partial_vdb("cost-inputs")
        manager = vdb.request_manager
        for key in range(5):
            manager.execute("SELECT i_title FROM item WHERE i_id = ?", (key,))
        backend = vdb.get_backend("b0")
        service_time, pending_requests, pool_pressure = backend.planner_inputs("write")
        assert pending_requests == 0
        assert 0.0 <= pool_pressure <= 1.0
        assert service_time > 0
        assert backend.planner_inputs("batch")[0] is None  # nothing of that class served yet
        stats = backend.statistics()
        assert "pool_pressure" in stats
        assert stats["service_time_ewma_ms"]["write"] > 0
        manager_stats = manager.statistics()
        assert manager_stats["planner"]["plans_built"] > 0
        assert "scatter_gather" in manager_stats


class TestScatterGather:
    def test_union_merge_over_disjoint_partitions(self):
        _, vdb = partial_vdb("scatter-union", scatter_gather=True)
        manager = vdb.request_manager
        result = manager.execute(
            "SELECT orders.o_id, customer.c_name FROM orders, customer"
            " WHERE orders.o_id = customer.c_id"
        )
        assert len(result.rows) == 5
        assert result.backend_name.startswith("scatter:")
        assert manager.scatter_executor.statistics()["scatter_reads"] == 1

    def test_ordered_merge_and_aggregate_plans(self):
        _, vdb = partial_vdb("scatter-merge", scatter_gather=True)
        manager = vdb.request_manager
        ordered = manager.explain(
            "SELECT orders.o_id FROM orders, customer"
            " WHERE orders.o_id = customer.c_id ORDER BY orders.o_total"
        )
        assert ordered.kind == SCATTER_GATHER
        assert ordered.merge == MERGE_ORDERED
        assert {f.table for f in ordered.fragments} == {"orders", "customer"}
        result = manager.execute(
            "SELECT orders.o_id FROM orders, customer"
            " WHERE orders.o_id = customer.c_id ORDER BY orders.o_total DESC"
        )
        assert [row[0] for row in result.rows] == [4, 3, 2, 1, 0]
        aggregate = manager.execute(
            "SELECT COUNT(*) FROM orders, customer WHERE orders.o_id = customer.c_id"
        )
        assert aggregate.rows[0][0] == 5

    def test_scatter_disabled_still_raises(self):
        _, vdb = partial_vdb("scatter-off", scatter_gather=False)
        with pytest.raises(NotReplicatedError):
            vdb.request_manager.execute(
                "SELECT * FROM orders, customer WHERE orders.o_id = customer.c_id"
            )

    def test_co_located_read_never_scatters(self):
        _, vdb = partial_vdb("scatter-coloc", scatter_gather=True)
        plan = vdb.request_manager.explain(
            "SELECT orders.o_id FROM orders, order_line"
            " WHERE orders.o_id = order_line.ol_o_id"
        )
        # orders and order_line are co-located on b0+b1: single-backend plan
        assert plan.kind == SINGLE
        assert set(plan.backend_names) == {"b0", "b1"}


class TestExplainSurfaces:
    def test_virtualdb_explain_route_result(self):
        _, vdb = partial_vdb("explain-vdb", routing_policy="cost")
        result = vdb.explain_route("SELECT o_total FROM orders WHERE o_id = 1")
        assert result.columns == ["property", "value"]
        fields = dict(result.rows)
        assert fields["kind"] == "single"
        assert fields["chosen"] in {"b0", "b1"}
        assert "candidate b0" in fields and "candidate b1" in fields
        assert "cost=" in fields["candidate b0"]

    def test_console_explain_command(self):
        cluster, _ = partial_vdb("explain-console")
        console = AdminConsole(cluster.controller("explain-console-ctrl"))
        output = console.execute(
            "explain explain-console SELECT o_total FROM orders WHERE o_id = 1"
        )
        assert "kind" in output and "single" in output
        assert "candidate b0" in output
        assert console.execute("explain explain-console") == "usage: explain <vdb> <sql>"
        # console stats surface the planner inputs (satellite: live signals)
        stats = console.execute("stats explain-console")
        assert "service_time_ewma_ms" in stats
        assert "pool_pressure" in stats
        assert '"planner"' in stats

    def test_driver_explain_route_prefix(self):
        cluster, _ = partial_vdb("explain-driver")
        connection = cluster.connect("explain-driver", "app", "secret")
        cursor = connection.cursor()
        cursor.execute("EXPLAIN ROUTE SELECT o_total FROM orders WHERE o_id = 1")
        rows = cursor.fetchall()
        fields = {row[0]: row[1] for row in rows}
        assert fields["kind"] == "single"
        assert fields["statement_class"] == "read_simple"
        with pytest.raises(DatabaseError):
            cursor.execute("EXPLAIN ROUTE")

    def test_explain_does_not_execute_or_pollute_the_cache(self):
        _, vdb = partial_vdb("explain-pure")
        manager = vdb.request_manager
        reads_before = sum(b.total_reads for b in vdb.backends)
        manager.explain("SELECT o_total FROM orders WHERE o_id = 1")
        assert sum(b.total_reads for b in vdb.backends) == reads_before

    def test_unplannable_statement_fails_cleanly(self):
        _, vdb = partial_vdb("explain-bad")
        with pytest.raises(CJDBCError):
            vdb.request_manager.explain("COMMIT")
