"""Tests for backends, connection managers and the authentication manager."""

import sys
import threading

import pytest

from repro.core.authentication import AuthenticationManager
from repro.core.backend import BackendState, DatabaseBackend
from repro.core.connection_manager import (
    FailFastPoolConnectionManager,
    RandomWaitPoolConnectionManager,
    SimpleConnectionManager,
    VariablePoolConnectionManager,
)
from repro.core.requestparser import RequestFactory
from repro.errors import AuthenticationError, BackendError, OperationalError
from repro.sql import DatabaseEngine, DatabaseMetaData, dbapi


def make_backend(engine=None, **kwargs):
    engine = engine or DatabaseEngine("backend-test")
    backend = DatabaseBackend(
        name=kwargs.pop("name", "backend0"),
        connection_factory=lambda: dbapi.connect(engine),
        metadata_factory=lambda: DatabaseMetaData(engine),
        **kwargs,
    )
    return backend, engine


class TestConnectionManagers:
    def factory(self):
        engine = DatabaseEngine("pool-test")
        return lambda: dbapi.connect(engine)

    def test_simple_manager_creates_fresh_connections(self):
        manager = SimpleConnectionManager(self.factory())
        first = manager.get_connection()
        second = manager.get_connection()
        assert first is not second
        manager.release_connection(first)
        assert first.closed

    def test_failfast_pool_exhaustion(self):
        manager = FailFastPoolConnectionManager(self.factory(), pool_size=2)
        a = manager.get_connection()
        b = manager.get_connection()
        with pytest.raises(OperationalError):
            manager.get_connection()
        manager.release_connection(a)
        c = manager.get_connection()
        assert c is a
        manager.release_connection(b)
        manager.release_connection(c)

    def test_random_wait_pool_times_out(self):
        manager = RandomWaitPoolConnectionManager(self.factory(), pool_size=1, timeout=0.05)
        a = manager.get_connection()
        with pytest.raises(OperationalError):
            manager.get_connection()
        manager.release_connection(a)

    def test_variable_pool_grows_and_shrinks(self):
        manager = VariablePoolConnectionManager(self.factory(), initial_pool_size=1)
        a = manager.get_connection()
        b = manager.get_connection()
        assert manager.connections_created >= 2
        manager.release_connection(a)
        manager.release_connection(b)
        assert manager.idle_connections <= manager.initial_pool_size + 1

    def test_variable_pool_max_size(self):
        manager = VariablePoolConnectionManager(
            self.factory(), initial_pool_size=1, max_pool_size=1
        )
        manager.get_connection()
        with pytest.raises(OperationalError):
            manager.get_connection()

    def test_close_all(self):
        manager = SimpleConnectionManager(self.factory())
        connection = manager.get_connection()
        manager.close_all()
        assert manager.active_connections == 0


class TestDatabaseBackend:
    def test_initial_state_is_disabled(self):
        backend, _ = make_backend()
        assert backend.state is BackendState.DISABLED
        assert not backend.is_enabled

    def test_enable_gathers_schema(self):
        backend, engine = make_backend()
        engine.execute("CREATE TABLE customers (id INT PRIMARY KEY)")
        engine.execute("CREATE TABLE orders (id INT PRIMARY KEY)")
        backend.enable()
        assert backend.tables == {"customers", "orders"}
        assert backend.has_tables(["customers"])
        assert backend.has_tables(["customers", "orders"])
        assert not backend.has_tables(["customers", "missing"])

    def test_static_schema(self):
        backend, _ = make_backend(static_schema=["a", "b"])
        backend.enable()
        assert backend.tables == {"a", "b"}

    def test_execute_read_and_write(self):
        backend, engine = make_backend()
        engine.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(10))")
        backend.enable()
        factory = RequestFactory()
        write = factory.create_request("INSERT INTO kv (k, v) VALUES (1, 'x')")
        result = backend.execute_request(write)
        assert result.update_count == 1
        read = factory.create_request("SELECT v FROM kv WHERE k = 1")
        result = backend.execute_request(read)
        assert result.rows == [("x",)]
        assert result.backend_name == "backend0"
        assert backend.total_reads == 1
        assert backend.total_writes == 1

    def test_lazy_transaction_begin(self):
        backend, engine = make_backend()
        engine.execute("CREATE TABLE kv (k INT PRIMARY KEY)")
        backend.enable()
        factory = RequestFactory()
        assert not backend.has_transaction(7)
        backend.execute_request(
            factory.create_request("INSERT INTO kv (k) VALUES (1)", transaction_id=7)
        )
        assert backend.has_transaction(7)
        assert backend.total_transactions_begun == 1
        # a second statement reuses the same connection/transaction
        backend.execute_request(
            factory.create_request("INSERT INTO kv (k) VALUES (2)", transaction_id=7)
        )
        assert backend.total_transactions_begun == 1
        backend.rollback(7)
        assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 0

    def test_commit_returns_false_for_unknown_transaction(self):
        backend, _ = make_backend()
        backend.enable()
        assert backend.commit(12345) is False

    def test_commit_persists(self):
        backend, engine = make_backend()
        engine.execute("CREATE TABLE kv (k INT PRIMARY KEY)")
        backend.enable()
        factory = RequestFactory()
        backend.execute_request(
            factory.create_request("INSERT INTO kv (k) VALUES (1)", transaction_id=9)
        )
        assert backend.commit(9) is True
        assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 1

    def test_failed_statement_raises_backend_error(self):
        backend, engine = make_backend()
        backend.enable()
        factory = RequestFactory()
        with pytest.raises(BackendError):
            backend.execute_request(factory.create_request("SELECT * FROM missing_table"))
        assert backend.failures == 1

    def test_concurrent_failures_are_counted_exactly(self):
        """Several threads failing on one backend under a tiny switch
        interval: the failure counter loses no increment."""
        backend, _ = make_backend()
        backend.enable()
        failing = RequestFactory().create_request("SELECT * FROM missing_table")
        threads, per_thread = 4, 200

        def fail_repeatedly():
            for _ in range(per_thread):
                with pytest.raises(BackendError):
                    backend.execute_request(failing)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=fail_repeatedly) for _ in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert backend.failures == threads * per_thread
        assert backend.pending_requests == 0

    def test_disable_aborts_transactions(self):
        backend, engine = make_backend()
        engine.execute("CREATE TABLE kv (k INT PRIMARY KEY)")
        backend.enable()
        factory = RequestFactory()
        backend.execute_request(
            factory.create_request("INSERT INTO kv (k) VALUES (1)", transaction_id=3)
        )
        backend.disable()
        assert backend.active_transactions == []
        assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 0

    def test_note_ddl_updates_schema(self):
        backend, engine = make_backend()
        backend.enable()
        factory = RequestFactory()
        create = factory.create_request("CREATE TABLE brand_new (a INT)")
        backend.note_ddl(create)
        assert "brand_new" in backend.tables
        drop = factory.create_request("DROP TABLE brand_new")
        backend.note_ddl(drop)
        assert "brand_new" not in backend.tables

    def test_statistics_snapshot(self):
        backend, engine = make_backend()
        backend.enable()
        stats = backend.statistics()
        assert stats["name"] == "backend0"
        assert stats["state"] == "ENABLED"


class TestAuthenticationManager:
    def test_valid_and_invalid_login(self):
        manager = AuthenticationManager()
        manager.add_virtual_user("app", "secret")
        assert manager.authenticate("app", "secret").login == "app"
        with pytest.raises(AuthenticationError):
            manager.authenticate("app", "wrong")
        with pytest.raises(AuthenticationError):
            manager.authenticate("ghost", "whatever")

    def test_transparent_mode_accepts_anything(self):
        manager = AuthenticationManager(transparent=True)
        assert manager.is_valid("anyone", "anything")

    def test_real_login_mapping(self):
        manager = AuthenticationManager()
        manager.add_virtual_user("app", "secret")
        manager.add_real_login("app", "backend1", "mysql_user", "mysql_pw")
        mapped = manager.real_login_for("app", "backend1")
        assert mapped.login == "mysql_user"
        fallback = manager.real_login_for("app", "backend2")
        assert fallback.login == "app"

    def test_admin_flag(self):
        manager = AuthenticationManager()
        manager.add_virtual_user("root", "pw", is_admin=True)
        assert manager.authenticate("root", "pw").is_admin
