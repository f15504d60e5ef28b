"""Tests for the query result cache: granularities, relaxation, LRU, stats."""

import pytest

from repro.core.cache import (
    ColumnGranularity,
    DatabaseGranularity,
    RelaxationRule,
    ResultCache,
    TableGranularity,
)
from repro.core.request import RequestResult, SelectRequest, WriteRequest
from repro.core.requestparser import RequestFactory


def select(sql="SELECT * FROM item WHERE i_id = 1", tables=("item",), params=()):
    return SelectRequest(sql=sql, tables=tuple(tables), parameters=tuple(params))


def write(sql="UPDATE item SET i_stock = 0", tables=("item",)):
    return WriteRequest(sql=sql, tables=tuple(tables))


def parsed(sql):
    """A request carrying its statement analysis, as the controller builds it."""
    return RequestFactory().create_request(sql)


def result(value=1):
    return RequestResult(columns=["v"], rows=[(value,)])


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBasicCaching:
    def test_miss_then_hit(self):
        cache = ResultCache()
        request = select()
        assert cache.get(request) is None
        cache.put(request, result(42))
        hit = cache.get(request)
        assert hit is not None
        assert hit.rows == [(42,)]
        assert hit.from_cache is True

    def test_different_parameters_are_different_entries(self):
        cache = ResultCache()
        first = select(params=(1,))
        second = select(params=(2,))
        cache.put(first, result(1))
        assert cache.get(second) is None

    def test_cached_result_is_a_copy(self):
        """Rows are immutable tuples shared by every hit; each hit's containers are its own."""
        cache = ResultCache()
        request = select()
        cache.put(request, result(1))
        hit = cache.get(request)
        # the row container is per-checkout: draining one client's cursor
        # cannot affect what other clients see
        hit.rows.clear()
        assert cache.get(request).rows == [(1,)]
        # the rows themselves are immutable: in-place mutation is impossible
        other = cache.get(request)
        with pytest.raises(TypeError):
            other.rows[0][0] = 999
        assert cache.get(request).rows == [(1,)]

    def test_lru_eviction(self):
        cache = ResultCache(max_entries=2)
        a, b, c = select("SELECT a", ("t",)), select("SELECT b", ("t",)), select("SELECT c", ("t",))
        cache.put(a, result())
        cache.put(b, result())
        cache.get(a)  # a becomes most-recently used
        cache.put(c, result())
        assert cache.get(a) is not None
        assert cache.get(b) is None
        assert cache.statistics.evictions == 1

    def test_flush(self):
        cache = ResultCache()
        cache.put(select(), result())
        cache.flush()
        assert len(cache) == 0

    def test_statistics(self):
        cache = ResultCache()
        request = select()
        cache.get(request)
        cache.put(request, result())
        cache.get(request)
        stats = cache.statistics.as_dict()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["inserts"] == 1
        assert 0 < stats["hit_ratio"] < 1


class TestGranularities:
    def test_database_granularity_drops_everything(self):
        cache = ResultCache(granularity=DatabaseGranularity())
        cache.put(select("SELECT * FROM item", ("item",)), result())
        cache.put(select("SELECT * FROM author", ("author",)), result())
        dropped = cache.invalidate(write(tables=("customer",)))
        assert dropped == 2
        assert len(cache) == 0

    def test_table_granularity_keeps_unrelated_tables(self):
        cache = ResultCache(granularity=TableGranularity())
        item_request = select("SELECT * FROM item", ("item",))
        author_request = select("SELECT * FROM author", ("author",))
        cache.put(item_request, result())
        cache.put(author_request, result())
        cache.invalidate(write(tables=("item",)))
        assert cache.get(item_request) is None
        assert cache.get(author_request) is not None

    def test_table_granularity_conservative_without_tables(self):
        cache = ResultCache(granularity=TableGranularity())
        request = select("SELECT * FROM item", ("item",))
        cache.put(request, result())
        cache.invalidate(write(sql="UPDATE something", tables=()))
        assert cache.get(request) is None

    def test_column_granularity_keeps_unrelated_columns(self):
        cache = ResultCache(granularity=ColumnGranularity())
        title_request = parsed("SELECT i_title FROM item WHERE i_id = 1")
        stock_request = parsed("SELECT i_stock FROM item WHERE i_id = 1")
        cache.put(title_request, result())
        cache.put(stock_request, result())
        cache.invalidate(parsed("UPDATE item SET i_stock = 5 WHERE i_id = 1"))
        assert cache.get(title_request) is not None
        assert cache.get(stock_request) is None

    def test_column_granularity_falls_back_for_inserts(self):
        cache = ResultCache(granularity=ColumnGranularity())
        request = parsed("SELECT i_title FROM item")
        cache.put(request, result())
        cache.invalidate(parsed("INSERT INTO item (i_id) VALUES (9)"))
        assert cache.get(request) is None

    def test_granularity_factory(self):
        from repro.core.cache.granularity import granularity_from_name

        assert isinstance(granularity_from_name("database"), DatabaseGranularity)
        assert isinstance(granularity_from_name("table"), TableGranularity)
        assert isinstance(granularity_from_name("column"), ColumnGranularity)
        with pytest.raises(ValueError):
            granularity_from_name("row")


class TestRelaxedConsistency:
    def test_stale_entry_survives_within_window(self):
        clock = FakeClock()
        cache = ResultCache(
            relaxation_rules=[RelaxationRule(staleness_seconds=60.0)], clock=clock
        )
        request = select()
        cache.put(request, result(1))
        cache.invalidate(write())
        assert cache.get(request) is not None  # stale but allowed
        assert cache.statistics.stale_hits == 1

    def test_stale_entry_expires_after_window(self):
        clock = FakeClock()
        cache = ResultCache(
            relaxation_rules=[RelaxationRule(staleness_seconds=60.0)], clock=clock
        )
        request = select()
        cache.put(request, result(1))
        cache.invalidate(write())
        clock.advance(61)
        assert cache.get(request) is None

    def test_rule_scoped_to_tables(self):
        clock = FakeClock()
        rule = RelaxationRule(staleness_seconds=60.0, tables=("item",))
        cache = ResultCache(relaxation_rules=[rule], clock=clock)
        item_request = select("SELECT * FROM item", ("item",))
        customer_request = select("SELECT * FROM customer", ("customer",))
        cache.put(item_request, result())
        cache.put(customer_request, result())
        cache.invalidate(write(tables=("item",)))
        cache.invalidate(write("UPDATE customer SET c_balance = 0", ("customer",)))
        assert cache.get(item_request) is not None
        assert cache.get(customer_request) is None

    def test_rule_is_resolved_once_when_stored(self):
        item_rule = RelaxationRule(staleness_seconds=60.0, tables=("item",))
        cache = ResultCache(relaxation_rules=[item_rule, RelaxationRule(staleness_seconds=5.0)])
        cache.put(select("SELECT * FROM item", ("item",)), result())
        cache.put(select("SELECT * FROM customer", ("customer",)), result())
        assert [entry.rule.staleness_seconds for entry in cache.entries()] == [60.0, 5.0]
        coherent = ResultCache()
        coherent.put(select(), result())
        assert [entry.rule for entry in coherent.entries()] == [None]

    def test_rule_with_sql_pattern(self):
        rule = RelaxationRule(staleness_seconds=30.0, sql_pattern=r"best_?seller")
        assert rule.matches(select("SELECT * FROM bestseller_view", ("item",)))
        assert not rule.matches(select("SELECT * FROM item", ("item",)))

    def test_strong_consistency_without_rules(self):
        cache = ResultCache()
        request = select()
        cache.put(request, result())
        cache.invalidate(write())
        assert cache.get(request) is None

    def test_expired_drop_on_invalidate_counts_as_expiration_not_invalidation(self):
        clock = FakeClock()
        cache = ResultCache(
            relaxation_rules=[RelaxationRule(staleness_seconds=60.0)], clock=clock
        )
        request = select()
        cache.put(request, result())
        cache.invalidate(write())  # marks stale, drops nothing
        assert cache.statistics.invalidations == 0
        clock.advance(61)
        dropped = cache.invalidate(write())
        assert dropped == 0  # the expired entry is not a write invalidation
        assert cache.statistics.expirations == 1
        assert cache.statistics.invalidations == 0
        assert len(cache) == 0

    def test_expired_drop_on_get_counts_as_expiration(self):
        clock = FakeClock()
        cache = ResultCache(
            relaxation_rules=[RelaxationRule(staleness_seconds=60.0)], clock=clock
        )
        request = select()
        cache.put(request, result())
        cache.invalidate(write())
        clock.advance(61)
        assert cache.get(request) is None
        assert cache.statistics.expirations == 1
        assert cache.statistics.as_dict()["expirations"] == 1
