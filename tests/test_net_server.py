"""Controller TCP front-end: session lifecycle, limits, drain, chaos hook."""

import socket
import time

import pytest

from repro.errors import (
    AuthenticationError,
    ControllerError,
    ProtocolError,
    SQLSyntaxError,
    UnknownVirtualDatabaseError,
)
from repro.net import ControllerServer, RemoteController
from repro.net.protocol import PROTOCOL_VERSION, RESULT_CHUNK_ROWS, FrameSocket, MessageType
from tests.conftest import make_cluster


@pytest.fixture
def served_cluster():
    """A running server over a two-backend cluster; stops itself afterwards."""
    controller, vdb, engines = make_cluster("netdb")
    server = ControllerServer(controller)
    server.start()
    yield server, controller, vdb, engines
    server.stop(drain=False)


def remote_session(server, database="netdb", user="tester", password="secret"):
    controller = RemoteController(server.url_authority, database, user, password)
    return controller.get_virtual_database(database)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return False


class TestSessionLifecycle:
    def test_connect_execute_disconnect(self, served_cluster):
        server, _controller, _vdb, engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        result = session.execute("INSERT INTO t (id) VALUES (?)", (1,))
        assert result.update_count == 1
        result = session.execute("SELECT id FROM t")
        assert result.rows == [(1,)]
        # the write really reached both backends of the virtual database
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM t").rows[0][0] == 1
        session.close()
        assert wait_until(lambda: server.statistics()["connections_active"] == 0)

    def test_transaction_rolled_back_when_session_dies(self, served_cluster):
        server, _controller, vdb, _engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        transaction_id = session.begin()
        session.execute("INSERT INTO t (id) VALUES (?)", (1,), transaction_id=transaction_id)
        # drop the socket without commit: the server must roll back
        session.frames.close()
        assert wait_until(lambda: server.statistics()["connections_active"] == 0)
        check = remote_session(server)
        assert check.execute("SELECT COUNT(*) FROM t").rows == [(0,)]
        check.close()

    def test_typed_sql_errors_cross_the_wire(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        with pytest.raises(SQLSyntaxError):
            session.execute("FLY ME TO THE MOON")
        # the session survives the error and keeps serving
        assert session.ping()
        session.close()

    def test_authentication_failure_with_real_users(self, served_cluster):
        server, _controller, vdb, _engines = served_cluster
        vdb.authentication_manager.transparent = False
        vdb.authentication_manager.add_virtual_user("app", "secret")
        with pytest.raises(AuthenticationError):
            remote_session(server, user="app", password="wrong")
        session = remote_session(server, user="app", password="secret")
        assert session.ping()
        session.close()
        assert server.statistics()["sessions_authenticated"] == 1

    def test_unknown_virtual_database_rejected(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        with pytest.raises(UnknownVirtualDatabaseError):
            remote_session(server, database="nosuchdb")

    def test_protocol_version_mismatch_rejected(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        sock = socket.create_connection(server.address, timeout=5.0)
        frames = FrameSocket(sock)
        try:
            frames.send(
                MessageType.HELLO,
                {"protocol": PROTOCOL_VERSION + 1, "database": "netdb"},
            )
            reply_type, body = frames.recv()
            assert reply_type is MessageType.ERROR
            assert "version mismatch" in body["message"]
        finally:
            frames.close()

    def test_first_frame_must_be_hello(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        sock = socket.create_connection(server.address, timeout=5.0)
        frames = FrameSocket(sock)
        try:
            frames.send(MessageType.PING, {})
            reply_type, body = frames.recv()
            assert reply_type is MessageType.ERROR
            assert "expected HELLO" in body["message"]
        finally:
            frames.close()


class TestLimits:
    def test_max_connections_rejects_with_controller_error(self):
        controller, _vdb, _engines = make_cluster("limitdb")
        server = ControllerServer(controller, max_connections=1)
        server.start()
        try:
            first = remote_session(server, database="limitdb")
            with pytest.raises(ControllerError, match="at capacity"):
                remote_session(server, database="limitdb")
            assert server.statistics()["connections_rejected"] == 1
            first.close()
            # a slot freed: connecting works again
            assert wait_until(lambda: server.statistics()["connections_active"] == 0)
            second = remote_session(server, database="limitdb")
            assert second.ping()
            second.close()
        finally:
            server.stop(drain=False)

    def test_idle_timeout_closes_quiet_sessions(self):
        controller, _vdb, _engines = make_cluster("idledb")
        server = ControllerServer(controller, idle_timeout=0.3)
        server.start()
        try:
            session = remote_session(server, database="idledb")
            assert session.ping()
            assert wait_until(lambda: server.statistics()["idle_closed"] == 1)
            assert server.statistics()["connections_active"] == 0
            # the client notices on its next request and reports failover-able
            with pytest.raises(ControllerError):
                session.execute("SELECT 1")
        finally:
            server.stop(drain=False)


class TestShutdownAndRestart:
    def test_stop_drains_idle_sessions(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        assert session.ping()
        server.stop()  # graceful: the idle session is closed at its next poll
        assert not server.is_running
        assert server.statistics()["connections_active"] == 0
        with pytest.raises(ControllerError):
            session.execute("SELECT 1")

    def test_stopped_server_refuses_new_connections(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        server.stop()
        with pytest.raises(ControllerError, match="cannot reach"):
            remote_session(server)

    def test_restart_after_stop(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        server.stop()
        host, port = server.start()
        assert server.is_running and not server.draining
        session = remote_session(server)
        assert session.ping()
        session.close()

    def test_controller_shutdown_stops_attached_server(self):
        controller, _vdb, _engines = make_cluster("shutdb")
        server = ControllerServer(controller)
        server.start()
        controller.attach_network_server(server)
        assert controller.statistics()["network"]["running"]
        controller.shutdown()
        assert not server.is_running
        assert controller.network_server is None


class TestChaosHook:
    def test_disconnect_fault_severs_the_client_socket(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        injector = server.ensure_fault_injector(seed=42)
        injector.inject("disconnect", operations=("execute",), one_shot=True)
        with pytest.raises(ControllerError, match="lost connection"):
            session.execute("INSERT INTO t (id) VALUES (1)")
        assert server.statistics()["fault_disconnects"] == 1
        # the rule was one-shot: a fresh session works again
        session = remote_session(server)
        assert session.execute("SELECT COUNT(*) FROM t").rows == [(0,)]
        session.close()

    def test_match_sql_fault_fires_on_a_prepared_execute(self, served_cluster):
        """An execution frame names its statement by id; the rule still sees the text."""
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        insert = session.prepare("INSERT INTO t (id) VALUES (?)")
        read = session.prepare("SELECT COUNT(*) FROM t")
        injector = server.ensure_fault_injector(seed=42)
        injector.inject("disconnect", operations=("execute",), match_sql="INSERT", one_shot=True)
        assert read.execute().rows == [(0,)]
        with pytest.raises(ControllerError, match="lost connection"):
            insert.execute((1,))
        assert server.statistics()["fault_disconnects"] == 1


class _RecordingSocket:
    """The session's socket, counting the ``sendall`` and ``recv`` calls made on it."""

    def __init__(self, sock):
        self._sock = sock
        self.sendalls = 0
        self.recvs = 0

    def sendall(self, data):
        self.sendalls += 1
        return self._sock.sendall(data)

    def recv(self, count):
        data = self._sock.recv(count)  # a poll timeout raises past the count
        self.recvs += 1
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestOneSegmentPerResponse:
    def _recorded(self, server, session):
        """Put recorders under both ends of ``session``; returns (server's, client's)."""
        (served,) = server._sessions.values()
        served.frames.sock = _RecordingSocket(served.frames.sock)
        session.frames.sock = _RecordingSocket(session.frames.sock)
        return served.frames.sock, session.frames.sock

    def test_accepted_sockets_have_nodelay(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        (served,) = server._sessions.values()
        assert served.frames.sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0
        session.close()

    def test_point_read_and_update_count_are_one_sendall_each(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16))")
        session.execute("INSERT INTO t (id, name) VALUES (1, 'one')")
        read = session.prepare("SELECT name FROM t WHERE id = ?")
        write = session.prepare("UPDATE t SET name = ? WHERE id = ?")
        served, client = self._recorded(server, session)
        before = server.statistics()

        assert read.execute((1,)).rows == [("one",)]
        assert (served.sendalls, client.sendalls, client.recvs) == (1, 1, 1)
        # the server's recv of that request may have been entered on the bare socket
        served_recvs = served.recvs
        assert write.execute(("uno", 1)).update_count == 1
        assert (served.sendalls, client.sendalls, client.recvs) == (2, 2, 2)
        assert served.recvs == served_recvs + 1  # four socket calls for the statement

        after = server.statistics()
        assert after["responses"] - before["responses"] == 2
        assert after["sends"] - before["sends"] == 2
        assert after["frames_out"] - before["frames_out"] == 1 + 1  # a header holds the rows
        session.close()

    def test_result_above_one_chunk_streams(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16))")
        rows = [(i, f"row{i}") for i in range(RESULT_CHUNK_ROWS + 1)]
        session.execute_batch("INSERT INTO t (id, name) VALUES (?, ?)", rows)
        served, _client = self._recorded(server, session)
        assert session.execute("SELECT id, name FROM t ORDER BY id").rows == rows
        assert served.sendalls > 1
        session.close()

    def test_cached_prepared_reads_do_not_stall(self):
        """200 round trips: 8.8 s behind Nagle + delayed ACK, some 0.05 s without."""
        controller, _vdb, _engines = make_cluster("nostalldb", cache_enabled=True)
        server = ControllerServer(controller)
        server.start()
        try:
            session = remote_session(server, database="nostalldb")
            session.execute("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(16))")
            session.execute("INSERT INTO t (id, name) VALUES (1, 'one')")
            read = session.prepare("SELECT name FROM t WHERE id = ?")
            assert not read.execute((1,)).from_cache
            started = time.perf_counter()
            for _ in range(200):
                assert read.execute((1,)).from_cache
            assert time.perf_counter() - started < 2.0
            session.close()
        finally:
            server.stop(drain=False)


class TestStatistics:
    def test_counters_track_traffic(self, served_cluster):
        server, _controller, _vdb, _engines = served_cluster
        session = remote_session(server)
        session.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        session.execute("INSERT INTO t (id) VALUES (1)")
        stats = server.statistics()
        assert stats["connections_accepted"] == 1
        assert stats["connections_active"] == 1
        assert stats["requests"] == 2
        assert stats["bytes_in"] > 0 and stats["bytes_out"] > 0
        # hello, two statements: one sendall each
        assert stats["responses"] == stats["sends"] == 3
        (active,) = stats["active_sessions"]
        assert active["database"] == "netdb"
        assert active["requests"] == 2
        session.close()
        assert wait_until(lambda: server.statistics()["connections_active"] == 0)
        # totals survive the session's departure
        assert server.statistics()["requests"] == 2
