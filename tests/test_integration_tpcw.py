"""Integration tests: TPC-W and RUBiS running through the full middleware stack.

These tests exercise the complete functional path the paper describes:
client → C-JDBC driver → controller → request manager (scheduler, cache,
load balancer, recovery log) → backends, using the real workload SQL on
small scaled-down databases.
"""

import pytest

from tests.conftest import make_cluster

from repro.core import connect
from repro.workloads.rubis import RUBISDataGenerator, RUBiSInteractions
from repro.workloads.rubis import schema as rubis_schema
from repro.workloads.tpcw import (
    INTERACTION_NAMES,
    SHOPPING_MIX,
    TPCWDataGenerator,
    TPCWInteractions,
)
from repro.workloads.tpcw import schema as tpcw_schema


@pytest.fixture(scope="module")
def tpcw_cluster():
    """A 3-backend RAIDb-1 cluster loaded with a scaled-down TPC-W database."""
    controller, vdb, engines = make_cluster("tpcw", backend_count=3)
    connection = connect(controller, "tpcw", "tpcw", "tpcw")
    tpcw_schema.create_schema(connection)
    scale = tpcw_schema.TPCWScale(items=30, customers=40)
    TPCWDataGenerator(scale, seed=11).populate(connection)
    # schema changed after enable: refresh the backends' known table lists
    for backend in vdb.backends:
        backend.refresh_schema()
    return controller, vdb, engines, scale


class TestTPCWOnCluster:
    def test_data_replicated_on_all_backends(self, tpcw_cluster):
        _, _, engines, scale = tpcw_cluster
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM item").scalar() == scale.items
            assert engine.execute("SELECT COUNT(*) FROM customer").scalar() == scale.customers

    def test_shopping_mix_session_keeps_backends_consistent(self, tpcw_cluster):
        controller, vdb, engines, scale = tpcw_cluster
        connection = connect(controller, "tpcw", "tpcw", "tpcw")
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers, seed=3)
        stream = SHOPPING_MIX.interaction_stream(seed=4)
        executed = 0
        for _ in range(60):
            name = next(stream)
            interactions.run(name)
            executed += 1
        assert executed == 60
        # every backend converged to the same row counts for the write-heavy tables
        for table in ("orders", "order_line", "shopping_cart", "customer", "item"):
            counts = {
                engine.execute(f"SELECT COUNT(*) FROM {table}").scalar() for engine in engines
            }
            assert len(counts) == 1, f"backends diverged on {table}: {counts}"

    def test_every_interaction_through_middleware(self, tpcw_cluster):
        controller, _, _, scale = tpcw_cluster
        connection = connect(controller, "tpcw", "tpcw", "tpcw")
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers, seed=9)
        for name in INTERACTION_NAMES:
            interactions.run(name)

    def test_best_seller_temp_table_is_cleaned_everywhere(self, tpcw_cluster):
        controller, _, engines, scale = tpcw_cluster
        connection = connect(controller, "tpcw", "tpcw", "tpcw")
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers, seed=13)
        tables_before = [set(engine.catalog.table_names()) for engine in engines]
        interactions.best_sellers()
        tables_after = [set(engine.catalog.table_names()) for engine in engines]
        assert tables_before == tables_after

    def test_macro_rewriting_keeps_replicas_identical(self, tpcw_cluster):
        controller, _, engines, scale = tpcw_cluster
        connection = connect(controller, "tpcw", "tpcw", "tpcw")
        customer = 1
        connection.execute(
            "UPDATE customer SET c_login = NOW(), c_expiration = NOW() WHERE c_id = ?",
            (customer,),
        )
        logins = {
            str(engine.execute("SELECT c_login FROM customer WHERE c_id = 1").scalar())
            for engine in engines
        }
        assert len(logins) == 1

    def test_backend_failure_mid_workload(self, tpcw_cluster):
        controller, vdb, engines, scale = tpcw_cluster
        connection = connect(controller, "tpcw", "tpcw", "tpcw")
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers, seed=17)
        vdb.get_backend("backend2").disable()
        for name in ("home", "buy_confirm", "search_results", "shopping_cart"):
            interactions.run(name)
        remaining = [engines[0], engines[1]]
        counts = {engine.execute("SELECT COUNT(*) FROM orders").scalar() for engine in remaining}
        assert len(counts) == 1
        vdb.get_backend("backend2").enable()


class TestRUBiSOnCachedSingleBackend:
    @pytest.fixture(scope="class")
    def rubis_setup(self):
        controller, vdb, engines = make_cluster(
            "rubis", backend_count=1, replication="single", cache_enabled=True
        )
        connection = connect(controller, "rubis", "rubis", "rubis")
        rubis_schema.create_schema(connection)
        scale = rubis_schema.RUBISScale(users=40, items=25, bids_per_item=3)
        RUBISDataGenerator(scale, seed=21).populate(connection)
        for backend in vdb.backends:
            backend.refresh_schema()
        return controller, vdb, scale

    def test_bidding_session_with_cache(self, rubis_setup):
        controller, vdb, scale = rubis_setup
        connection = connect(controller, "rubis", "rubis", "rubis")
        interactions = RUBiSInteractions(connection, users=scale.users, items=scale.items, seed=2)
        from repro.workloads.rubis import BIDDING_MIX

        stream = BIDDING_MIX.interaction_stream(seed=5)
        for _ in range(80):
            interactions.run(next(stream))
        cache_stats = vdb.request_manager.result_cache.statistics
        assert cache_stats.lookups > 0
        assert cache_stats.hits > 0
        assert cache_stats.invalidations >= 0

    def test_browse_interactions_hit_cache_on_repeat(self, rubis_setup):
        controller, vdb, scale = rubis_setup
        connection = connect(controller, "rubis", "rubis", "rubis")
        cursor = connection.cursor()
        cursor.execute("SELECT id, name FROM categories ORDER BY name")
        cursor.execute("SELECT id, name FROM categories ORDER BY name")
        assert cursor.from_cache is True
