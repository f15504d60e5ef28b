"""Unit tests for the request manager: the scheduler/cache/balancer/log pipeline."""

import pytest

from repro.core.backend import DatabaseBackend
from repro.core.cache import ResultCache
from repro.core.loadbalancer import RAIDb1LoadBalancer, WaitForCompletion
from repro.core.recovery import MemoryRecoveryLog
from repro.core.request_manager import RequestManager
from repro.core.scheduler import OptimisticTransactionLevelScheduler
from repro.errors import CJDBCError
from repro.sql import DatabaseEngine, DatabaseMetaData, dbapi


def make_backend(name, engine):
    backend = DatabaseBackend(
        name=name,
        connection_factory=lambda: dbapi.connect(engine),
        metadata_factory=lambda: DatabaseMetaData(engine),
    )
    backend.enable()
    return backend


@pytest.fixture
def manager():
    engines = [DatabaseEngine(f"rm-{i}") for i in range(2)]
    backends = [make_backend(f"backend{i}", engine) for i, engine in enumerate(engines)]
    request_manager = RequestManager(
        backends=backends,
        scheduler=OptimisticTransactionLevelScheduler(),
        load_balancer=RAIDb1LoadBalancer(),
        result_cache=ResultCache(),
        recovery_log=MemoryRecoveryLog(),
    )
    request_manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    return request_manager, engines


class TestExecutionPipeline:
    def test_write_logged_and_broadcast_and_invalidates_cache(self, manager):
        request_manager, engines = manager
        request_manager.execute("INSERT INTO kv (k, v) VALUES (1, 'a')")
        # logged
        log_sql = [entry.sql for entry in request_manager.recovery_log.entries()]
        assert any("INSERT INTO kv" in sql for sql in log_sql)
        # broadcast
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 1
        # cache interaction
        request_manager.execute("SELECT v FROM kv WHERE k = 1")
        request_manager.execute("UPDATE kv SET v = 'b' WHERE k = 1")
        result = request_manager.execute("SELECT v FROM kv WHERE k = 1")
        # cacheable reads return tuple-frozen rows on miss and hit alike
        assert result.rows == [("b",)]
        assert result.from_cache is False

    def test_reads_are_cached(self, manager):
        request_manager, _ = manager
        request_manager.execute("INSERT INTO kv (k, v) VALUES (2, 'x')")
        first = request_manager.execute("SELECT v FROM kv WHERE k = 2")
        second = request_manager.execute("SELECT v FROM kv WHERE k = 2")
        assert first.from_cache is False
        assert second.from_cache is True

    def test_ddl_updates_backend_schema(self, manager):
        request_manager, _ = manager
        request_manager.execute("CREATE TABLE extra (id INT PRIMARY KEY)")
        for backend in request_manager.backends:
            assert "extra" in backend.tables
        request_manager.execute("DROP TABLE extra")
        for backend in request_manager.backends:
            assert "extra" not in backend.tables

    def test_statement_counters(self, manager):
        request_manager, _ = manager
        before = request_manager.requests_executed
        request_manager.execute("SELECT COUNT(*) FROM kv")
        assert request_manager.requests_executed == before + 1


class TestTransactionLifecycle:
    def test_begin_commit_with_lazy_begin(self, manager):
        request_manager, engines = manager
        transaction_id = request_manager.begin("alice")
        assert transaction_id in request_manager.active_transactions
        # lazy: no backend has started the transaction yet
        assert all(not backend.has_transaction(transaction_id) for backend in request_manager.backends)
        request_manager.execute(
            "INSERT INTO kv (k, v) VALUES (10, 'txn')", transaction_id=transaction_id, login="alice"
        )
        assert all(backend.has_transaction(transaction_id) for backend in request_manager.backends)
        request_manager.commit(transaction_id, "alice")
        assert transaction_id not in request_manager.active_transactions
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM kv WHERE k = 10").scalar() == 1

    def test_rollback_undoes_on_every_backend(self, manager):
        request_manager, engines = manager
        transaction_id = request_manager.begin()
        request_manager.execute(
            "INSERT INTO kv (k, v) VALUES (11, 'nope')", transaction_id=transaction_id
        )
        request_manager.rollback(transaction_id)
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM kv WHERE k = 11").scalar() == 0

    def test_eager_begin_mode(self):
        engines = [DatabaseEngine(f"eager-{i}") for i in range(2)]
        backends = [make_backend(f"b{i}", engine) for i, engine in enumerate(engines)]
        request_manager = RequestManager(backends=backends, lazy_transaction_begin=False)
        request_manager.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        transaction_id = request_manager.begin()
        # eager: every enabled backend has already started the transaction
        assert all(backend.has_transaction(transaction_id) for backend in backends)
        request_manager.rollback(transaction_id)

    def test_begin_with_supplied_transaction_id(self, manager):
        request_manager, _ = manager
        assert request_manager.begin(transaction_id=777000) == 777000
        request_manager.rollback(777000)

    def test_commit_and_rollback_are_logged(self, manager):
        request_manager, _ = manager
        transaction_id = request_manager.begin("bob")
        request_manager.execute(
            "INSERT INTO kv (k, v) VALUES (12, 'y')", transaction_id=transaction_id, login="bob"
        )
        request_manager.commit(transaction_id, "bob")
        types = [entry.entry_type for entry in request_manager.recovery_log.entries()]
        assert "begin" in types and "commit" in types

    def test_commit_without_transaction_marker_raises(self, manager):
        request_manager, _ = manager
        with pytest.raises(CJDBCError):
            request_manager.execute("COMMIT")

    def test_transaction_context_tracks_participants(self, manager):
        request_manager, _ = manager
        transaction_id = request_manager.begin()
        request_manager.execute(
            "INSERT INTO kv (k, v) VALUES (13, 'p')", transaction_id=transaction_id
        )
        context = request_manager._transactions[transaction_id]
        assert set(context.participating_backends) == {"backend0", "backend1"}
        request_manager.rollback(transaction_id)


class TestBackendManagement:
    def test_add_remove_get_backend(self, manager):
        request_manager, _ = manager
        extra_engine = DatabaseEngine("extra")
        extra = make_backend("backend2", extra_engine)
        request_manager.add_backend(extra)
        assert request_manager.get_backend("backend2") is extra
        with pytest.raises(CJDBCError):
            request_manager.add_backend(extra)
        request_manager.remove_backend("backend2")
        with pytest.raises(CJDBCError):
            request_manager.get_backend("backend2")

    def test_failed_backend_is_disabled_and_listener_notified(self, manager):
        request_manager, engines = manager
        disabled = []
        request_manager.failure_detector.add_listener(
            lambda backend, exc, event: disabled.append(backend.name)
        )
        # sabotage backend1
        engines[1].catalog.drop_table("kv")
        request_manager.execute("INSERT INTO kv (k, v) VALUES (20, 'x')")
        assert disabled == ["backend1"]
        assert not request_manager.get_backend("backend1").is_enabled
        assert request_manager.enabled_backends()[0].name == "backend0"

    def test_enabled_backends_snapshot_tracks_state_changes(self, manager):
        """The cached enabled-backend snapshot follows enable/disable/remove."""
        request_manager, _ = manager
        assert [b.name for b in request_manager.enabled_backends()] == [
            "backend0", "backend1",
        ]
        backend1 = request_manager.get_backend("backend1")
        backend1.disable()
        assert [b.name for b in request_manager.enabled_backends()] == ["backend0"]
        backend1.enable()
        assert len(request_manager.enabled_backends()) == 2
        # mutating the returned list must not corrupt the snapshot
        request_manager.enabled_backends().clear()
        assert len(request_manager.enabled_backends()) == 2
        request_manager.remove_backend("backend1")
        assert [b.name for b in request_manager.enabled_backends()] == ["backend0"]
        # a removed backend no longer notifies the manager
        backend1.disable()
        assert [b.name for b in request_manager.enabled_backends()] == ["backend0"]

    def test_statistics_aggregate_components(self, manager):
        request_manager, _ = manager
        request_manager.execute("SELECT COUNT(*) FROM kv")
        stats = request_manager.statistics()
        assert stats["scheduler"]["reads_scheduled"] >= 1
        assert stats["load_balancer"]["raidb_level"] == "RAIDb-1"
        assert "cache" in stats
        assert "parsing_cache" in stats
        assert stats["parsing_cache"]["entries"] >= 1
        assert len(stats["backends"]) == 2


class TestLogReplay:
    def test_replay_log_entries_applies_committed_transactions_only(self, manager):
        request_manager, _ = manager
        log = MemoryRecoveryLog()
        log.log_begin("alice", 1)
        log.log_request("INSERT INTO kv (k, v) VALUES (100, 'committed')", (), "alice", 1)
        log.log_commit("alice", 1)
        log.log_begin("bob", 2)
        log.log_request("INSERT INTO kv (k, v) VALUES (101, 'aborted')", (), "bob", 2)
        log.log_rollback("bob", 2)
        log.log_begin("carol", 3)
        log.log_request("INSERT INTO kv (k, v) VALUES (102, 'unfinished')", (), "carol", 3)
        # no commit for carol, and the manager tracks no such transaction:
        # settling the replay must roll it back

        fresh_engine = DatabaseEngine("replay-target")
        fresh_engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
        target = make_backend("target", fresh_engine)
        request_manager.replay_log_entries(target, log.entries())
        request_manager.settle_replayed_transactions(target)
        keys = sorted(row[0] for row in fresh_engine.execute("SELECT k FROM kv").rows)
        assert keys == [100]

    def test_replay_autocommit_entries(self, manager):
        request_manager, _ = manager
        log = MemoryRecoveryLog()
        log.log_request("INSERT INTO kv (k, v) VALUES (200, 'auto')", (), "", None)
        fresh_engine = DatabaseEngine("replay-auto")
        fresh_engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
        target = make_backend("target2", fresh_engine)
        request_manager.replay_log_entries(target, log.entries())
        assert fresh_engine.execute("SELECT COUNT(*) FROM kv").scalar() == 1
