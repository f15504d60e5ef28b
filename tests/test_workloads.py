"""Tests for the TPC-W and RUBiS workload generators (schema, data, mixes)."""

import random

import pytest

from repro.cluster.fixture import boot, descriptor
from repro.sql import DatabaseEngine, dbapi
from repro.workloads.rubis import (
    BIDDING_MIX,
    INTERACTION_NAMES,
    RUBISDataGenerator,
    RUBiSInteractions,
    RUBiSMix,
)
from repro.workloads.rubis import schema as rubis_schema
from repro.workloads.tpcw import (
    BROWSING_MIX,
    INTERACTION_NAMES as TPCW_INTERACTION_NAMES,
    ORDERING_MIX,
    SHOPPING_MIX,
    TPCWDataGenerator,
    TPCWInteractions,
    TPCWMix,
)
from repro.workloads.tpcw import schema as tpcw_schema
from repro.workloads.tpcw.interactions import READ_ONLY_INTERACTIONS
from repro.workloads.tpcw.mixes import mix_by_name


class TestTPCWInteractionNames:
    def test_tpcw_has_14_interactions_6_canonical_read_only(self):
        assert len(TPCW_INTERACTION_NAMES) == len(set(TPCW_INTERACTION_NAMES)) == 14
        assert TPCW_INTERACTION_NAMES[:6] == READ_ONLY_INTERACTIONS
        assert all(callable(getattr(TPCWInteractions, name)) for name in TPCW_INTERACTION_NAMES)

    @pytest.fixture(scope="class")
    def one_backend(self):
        cluster = boot(descriptor("read-only", 1, recovery_log="none", cache={"enabled": False}))
        connection = cluster.connect(cluster.name, "tpcw", "tpcw")
        tpcw_schema.create_schema(connection)
        scale = tpcw_schema.TPCWScale(items=30, customers=40)
        TPCWDataGenerator(scale, seed=3).populate(connection)
        client = TPCWInteractions(connection, items=scale.items, customers=scale.customers)
        (backend,) = cluster.virtual_database(cluster.name).backends
        return client, backend

    @pytest.mark.parametrize("name", READ_ONLY_INTERACTIONS)
    def test_read_only_interactions_write_only_the_best_seller_table(self, one_backend, name):
        # best_sellers creates, fills and drops a temporary table: three
        # writes, which every replica of order_line runs (paper §6.3)
        client, backend = one_backend
        writes = backend.total_writes
        client.run(name)
        written = backend.total_writes - writes
        assert written == (3 if name == "best_sellers" else 0)

    def test_unknown_interaction_is_rejected(self):
        with pytest.raises(ValueError, match="unknown interactions"):
            TPCWMix("bad", {"home": 1.0, "checkout": 1.0})


class TestTPCWMixes:
    @pytest.mark.parametrize(
        "mix, expected",
        [(BROWSING_MIX, 0.95), (SHOPPING_MIX, 0.80), (ORDERING_MIX, 0.50)],
    )
    def test_read_only_interaction_fractions_match_paper(self, mix, expected):
        assert mix.read_only_fraction == pytest.approx(expected, abs=0.005)

    def test_weights_are_normalized(self):
        for mix in (BROWSING_MIX, SHOPPING_MIX, ORDERING_MIX):
            assert sum(mix.weights.values()) == pytest.approx(1.0)

    def test_sampling_follows_weights(self):
        rng = random.Random(1)
        samples = [SHOPPING_MIX.sample(rng) for _ in range(5000)]
        observed = samples.count("search_request") / len(samples)
        assert observed == pytest.approx(SHOPPING_MIX.weights["search_request"], abs=0.03)

    def test_think_time_positive(self):
        rng = random.Random(2)
        times = [BROWSING_MIX.sample_think_time(rng) for _ in range(100)]
        assert all(t >= 0 for t in times)
        assert max(t for t in times) <= BROWSING_MIX.mean_think_time * 10

    def test_mix_by_name(self):
        assert mix_by_name("browsing") is BROWSING_MIX
        with pytest.raises(ValueError):
            mix_by_name("banana")

    def test_interaction_stream_is_deterministic(self):
        first = list(zip(range(50), ORDERING_MIX.interaction_stream(seed=3)))
        second = list(zip(range(50), ORDERING_MIX.interaction_stream(seed=3)))
        assert first == second


class TestRUBiSMixes:
    def test_bidding_mix_is_80_20(self):
        assert BIDDING_MIX.read_only_fraction == pytest.approx(0.80, abs=0.005)

    def test_bidding_mix_covers_the_12_interactions(self):
        assert len(INTERACTION_NAMES) == 12
        assert set(BIDDING_MIX.weights) == set(INTERACTION_NAMES)

    def test_unknown_interaction_is_rejected(self):
        with pytest.raises(ValueError, match="unknown interactions"):
            RUBiSMix("typo", {"view_itme": 1.0})


class TestTPCWFunctional:
    @pytest.fixture(scope="class")
    def tpcw_database(self):
        engine = DatabaseEngine("tpcw")
        connection = dbapi.connect(engine)
        tpcw_schema.create_schema(connection)
        generator = TPCWDataGenerator(tpcw_schema.TPCWScale(items=40, customers=60), seed=5)
        counts = generator.populate(connection)
        return engine, counts, generator.scale

    def test_schema_and_population(self, tpcw_database):
        engine, counts, scale = tpcw_database
        assert set(tpcw_schema.TPCW_TABLES) <= set(engine.catalog.table_names())
        assert counts["item"] == scale.items
        assert counts["customer"] == scale.customers
        assert engine.execute("SELECT COUNT(*) FROM item").scalar() == scale.items
        assert counts["order_line"] >= counts["orders"]

    def test_every_interaction_runs(self, tpcw_database):
        engine, _, scale = tpcw_database
        connection = dbapi.connect(engine)
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers)
        for name in TPCW_INTERACTION_NAMES:
            statements = interactions.run(name)
            assert statements >= 1

    def test_best_sellers_cleans_up_temp_table(self, tpcw_database):
        engine, _, scale = tpcw_database
        connection = dbapi.connect(engine)
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers)
        tables_before = set(engine.catalog.table_names())
        interactions.best_sellers()
        assert set(engine.catalog.table_names()) == tables_before

    def test_buy_confirm_changes_state(self, tpcw_database):
        engine, _, scale = tpcw_database
        connection = dbapi.connect(engine)
        interactions = TPCWInteractions(connection, items=scale.items, customers=scale.customers)
        orders_before = engine.execute("SELECT COUNT(*) FROM orders").scalar()
        interactions.buy_confirm()
        assert engine.execute("SELECT COUNT(*) FROM orders").scalar() == orders_before + 1


class TestRUBiSFunctional:
    @pytest.fixture(scope="class")
    def rubis_database(self):
        engine = DatabaseEngine("rubis")
        connection = dbapi.connect(engine)
        rubis_schema.create_schema(connection)
        scale = rubis_schema.RUBISScale(users=50, items=30, bids_per_item=3)
        generator = RUBISDataGenerator(scale, seed=6)
        counts = generator.populate(connection)
        return engine, counts, scale

    def test_population(self, rubis_database):
        engine, counts, scale = rubis_database
        assert counts["users"] == scale.users
        assert counts["items"] == scale.items
        assert engine.execute("SELECT COUNT(*) FROM regions").scalar() == len(
            rubis_schema.REGIONS
        )

    def test_every_interaction_runs(self, rubis_database):
        engine, _, scale = rubis_database
        connection = dbapi.connect(engine)
        interactions = RUBiSInteractions(connection, users=scale.users, items=scale.items)
        for name in BIDDING_MIX.weights:
            assert interactions.run(name) >= 1

    def test_store_bid_updates_item(self, rubis_database):
        engine, _, scale = rubis_database
        connection = dbapi.connect(engine)
        interactions = RUBiSInteractions(connection, users=scale.users, items=scale.items, seed=1)
        bids_before = engine.execute("SELECT COUNT(*) FROM bids").scalar()
        interactions.store_bid()
        assert engine.execute("SELECT COUNT(*) FROM bids").scalar() == bids_before + 1
