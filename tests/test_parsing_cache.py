"""Tests for the controller parsing cache (hit/miss accounting, eviction,
thread safety, macro freshness) and the result-cache invalidation index."""

from __future__ import annotations

import random
import threading

import pytest

from repro.core.cache import (
    DatabaseGranularity,
    FullScanTableGranularity,
    ResultCache,
    TableGranularity,
)
from repro.core.request import RequestResult, SelectRequest, WriteRequest
from repro.core.requestparser import ParsingCache, RequestFactory
from repro.errors import SQLSyntaxError


class TestParsingCacheAccounting:
    def test_miss_then_hit(self):
        factory = RequestFactory(parsing_cache_size=8)
        factory.create_request("SELECT * FROM item WHERE i_id = ?", (1,))
        stats = factory.parsing_cache.statistics
        assert (stats.hits, stats.misses) == (0, 1)
        factory.create_request("SELECT * FROM item WHERE i_id = ?", (2,))
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_ratio == 0.5

    def test_cached_request_matches_uncached(self):
        cached = RequestFactory(parsing_cache_size=8)
        uncached = RequestFactory(parsing_cache_size=0)
        assert uncached.parsing_cache is None
        for sql in (
            "SELECT * FROM item JOIN author ON item.a = author.a",
            "INSERT INTO customer (c_id) VALUES (?)",
            "UPDATE item SET i_stock = 0 WHERE i_id = ?",
            "CREATE TABLE fresh (a INT)",
            "BEGIN",
            "COMMIT",
            "ROLLBACK",
        ):
            cached.create_request(sql, (3,), login="alice", transaction_id=7)  # prime
            first = cached.create_request(sql, (3,), login="alice", transaction_id=7)
            second = uncached.create_request(sql, (3,), login="alice", transaction_id=7)
            assert type(first) is type(second)
            assert first.sql == second.sql
            assert first.tables == second.tables
            assert first.parameters == second.parameters
            assert first.login == second.login
            assert first.transaction_id == second.transaction_id

    def test_request_ids_stay_unique_across_hits(self):
        factory = RequestFactory(parsing_cache_size=8)
        first = factory.create_request("SELECT 1")
        second = factory.create_request("SELECT 1")
        assert first.request_id != second.request_id

    def test_lru_eviction_accounting(self):
        factory = RequestFactory(parsing_cache_size=2)
        factory.create_request("SELECT a FROM t")
        factory.create_request("SELECT b FROM t")
        factory.create_request("SELECT a FROM t")  # refresh a
        factory.create_request("SELECT c FROM t")  # evicts b
        cache = factory.parsing_cache
        assert cache.statistics.evictions == 1
        assert len(cache) == 2
        factory.create_request("SELECT a FROM t")  # still cached
        assert cache.statistics.hits == 2
        factory.create_request("SELECT b FROM t")  # was evicted
        assert cache.statistics.misses == 4

    def test_statistics_as_dict_reports_occupancy(self):
        factory = RequestFactory(parsing_cache_size=4)
        factory.create_request("SELECT 1")
        stats = factory.parsing_cache.as_dict()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 4
        assert set(stats) >= {"hits", "misses", "evictions", "hit_ratio"}

    def test_flush_empties_the_cache(self):
        factory = RequestFactory(parsing_cache_size=4)
        factory.create_request("SELECT 1")
        factory.parsing_cache.flush()
        assert len(factory.parsing_cache) == 0

    def test_invalid_sql_is_not_cached(self):
        factory = RequestFactory(parsing_cache_size=4)
        with pytest.raises(SQLSyntaxError):
            factory.create_request("TRUNCATE item")
        with pytest.raises(SQLSyntaxError):
            factory.create_request("   ")
        assert len(factory.parsing_cache) == 0

    def test_zero_size_cache_rejected_directly(self):
        with pytest.raises(ValueError):
            ParsingCache(max_entries=0)

    def test_spacing_and_a_final_semicolon_share_one_entry(self):
        factory = RequestFactory(parsing_cache_size=8)
        for sql in ("SELECT 1", " SELECT 1", "SELECT 1 ", "SELECT 1\n", "SELECT 1 ;"):
            assert factory.create_request(sql).sql == "SELECT 1"
        stats = factory.parsing_cache.statistics
        assert (stats.misses, stats.hits) == (1, 4)
        assert len(factory.parsing_cache) == 1
        with pytest.raises(SQLSyntaxError):
            factory.create_request(" ; ")


class TestParsingCacheMacroFreshness:
    def test_cached_macro_write_is_rewritten_per_request(self):
        """A cached template must not serve a stale RAND()/NOW() value."""
        factory = RequestFactory(parsing_cache_size=8)
        sql = "INSERT INTO t (x) VALUES (RAND())"
        requests = [factory.create_request(sql) for _ in range(5)]
        assert len({request.parameters for request in requests}) > 1  # a fresh draw each
        assert {request.sql for request in requests} == {"INSERT INTO t (x) VALUES (?)"}
        assert factory.parsing_cache.statistics.hits == 4

    def test_cached_macro_free_write_keeps_its_text(self):
        factory = RequestFactory(parsing_cache_size=8)
        sql = "UPDATE item SET i_stock = ?"
        factory.create_request(sql, (0,))
        request = factory.create_request(sql, (0,))
        assert request.parameters == (0,)
        assert request.sql == sql

    def test_cached_select_macros_left_alone(self):
        factory = RequestFactory(parsing_cache_size=8)
        factory.create_request("SELECT NOW() FROM t")
        request = factory.create_request("SELECT NOW() FROM t")
        assert "NOW()" in request.sql.upper()


class TestParsingCacheThreadSafety:
    def test_concurrent_create_request(self):
        factory = RequestFactory(parsing_cache_size=16)
        statements = [f"SELECT c{i} FROM table{i % 4} WHERE k = ?" for i in range(32)]
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            for _ in range(300):
                sql = rng.choice(statements)
                try:
                    request = factory.create_request(sql, (seed,))
                except Exception as exc:  # pragma: no cover - failure path
                    errors.append(exc)
                    return
                if request.sql != sql or len(request.tables) != 1:
                    errors.append(AssertionError(f"bad parse for {sql!r}: {request}"))
                    return

        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        stats = factory.parsing_cache.statistics
        assert stats.lookups == 8 * 300
        assert len(factory.parsing_cache) <= 16


def _random_workload(rng, tables, operations):
    """A random put/write stream exercising the invalidation index."""
    events = []
    for index in range(operations):
        table = rng.choice(tables)
        if rng.random() < 0.6:
            # some entries have several tables, some none at all
            extra = rng.sample(tables, k=rng.randint(0, 2))
            read_tables = tuple(dict.fromkeys([table, *extra])) if rng.random() > 0.1 else ()
            events.append(("put", f"SELECT {index} FROM {','.join(read_tables) or 'x'}",
                           read_tables))
        else:
            write_tables = (table,) if rng.random() > 0.15 else ()
            events.append(("write", f"UPDATE {table} SET x = {index}", write_tables))
    return events


class TestInvalidationIndexEquivalence:
    """Property-style check: the indexed cache behaves exactly like a full scan."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_workloads_match_full_scan(self, seed):
        rng = random.Random(seed)
        tables = [f"t{i}" for i in range(6)]
        indexed = ResultCache(granularity=TableGranularity(), max_entries=32)
        scanned = ResultCache(granularity=FullScanTableGranularity(), max_entries=32)
        for action, sql, event_tables in _random_workload(rng, tables, 400):
            if action == "put":
                request = SelectRequest(sql=sql, tables=event_tables)
                payload = RequestResult(columns=["v"], rows=[[sql]])
                indexed.put(request, payload)
                scanned.put(request, payload)
            else:
                write = WriteRequest(sql=sql, tables=event_tables)
                assert indexed.invalidate(write) == scanned.invalidate(write)
            assert len(indexed) == len(scanned)
            indexed_keys = {(e.sql, e.parameters) for e in indexed.entries()}
            scanned_keys = {(e.sql, e.parameters) for e in scanned.entries()}
            assert indexed_keys == scanned_keys

    def test_index_tracks_puts_evictions_and_flush(self):
        cache = ResultCache(max_entries=2)
        a = SelectRequest(sql="SELECT a FROM t1", tables=("t1",))
        b = SelectRequest(sql="SELECT b FROM t2", tables=("t2",))
        c = SelectRequest(sql="SELECT c FROM t3", tables=("t3",))
        for request in (a, b, c):  # c evicts a
            cache.put(request, RequestResult(columns=["v"], rows=[[1]]))
        assert cache.indexed_tables() == ["t2", "t3"]
        cache.invalidate(WriteRequest(sql="UPDATE t2 SET x=1", tables=("t2",)))
        assert cache.indexed_tables() == ["t3"]
        cache.flush()
        assert cache.indexed_tables() == []
        assert len(cache) == 0

    def test_untabled_entries_always_candidates(self):
        cache = ResultCache()
        bare = SelectRequest(sql="SELECT 1", tables=())
        cache.put(bare, RequestResult(columns=["v"], rows=[[1]]))
        dropped = cache.invalidate(WriteRequest(sql="UPDATE t9 SET x=1", tables=("t9",)))
        assert dropped == 1  # conservative: no parsed tables ⇒ invalidated

    def test_database_granularity_still_scans_everything(self):
        cache = ResultCache(granularity=DatabaseGranularity())
        request = SelectRequest(sql="SELECT a FROM t1", tables=("t1",))
        cache.put(request, RequestResult(columns=["v"], rows=[[1]]))
        dropped = cache.invalidate(WriteRequest(sql="UPDATE other SET x=1", tables=("other",)))
        assert dropped == 1
