"""The controller network front-end: a TCP server speaking the wire protocol.

One :class:`ControllerServer` serves one
:class:`repro.core.controller.Controller` — thread-per-connection on a
shared acceptor, which is the architecture of the original C-JDBC
controller (one ``ControllerWorkerThread`` per driver connection).  Each
accepted connection becomes a :class:`_Session`:

* the first frame must be a HELLO naming a virtual database plus
  credentials; the session authenticates against that database's
  authentication manager and then maps one-to-one onto the per-connection
  state an in-process :class:`repro.core.driver.VirtualConnection` would
  hold (open transactions, prepared statement handles);
* every later frame dispatches into the same request-manager entry points
  the in-process driver uses, so the pipeline, scheduler, cache and
  recovery log see no difference between local and remote clients;
* errors cross back as typed error frames; results stream back as
  a header frame holding the first rows, then a frame per further chunk.

Limits and lifecycle: ``max_connections`` rejects excess connections with a
:class:`~repro.errors.ControllerError` frame (the remote driver treats that
as a failover signal), ``idle_timeout`` closes connections idle between
frames, and :meth:`stop` drains — the acceptor closes, in-flight requests
finish, idle sessions close, and stragglers are severed after the drain
timeout.  A session consults the server's fault injector before dispatching
each frame, so a ``disconnect`` fault rule (:mod:`repro.core.faults`) can
sever a live client socket deterministically — the network-level chaos hook.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.faults import ConnectionDropError, FaultInjector
from repro.errors import (
    AuthenticationError,
    CJDBCError,
    ControllerError,
    ProtocolError,
    ReproError,
)
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameSocket,
    MessageType,
    encode_error,
    result_frames,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.controller import Controller

#: front-end defaults, declared once: ``ControllerServer`` and the descriptor's
#: ``listen:`` section (:class:`repro.cluster.descriptor.ListenSpec`) read these
DEFAULT_HOST = "127.0.0.1"
DEFAULT_MAX_CONNECTIONS = 64
DEFAULT_BACKLOG = 128

#: how often a blocked session wakes up to check idle/drain state
_POLL_INTERVAL = 0.2

#: wire operation -> fault-injector operation category
_FAULT_OPERATIONS = {
    MessageType.EXECUTE: "execute",
    MessageType.EXECUTE_PREPARED: "execute",
    MessageType.PREPARE: "execute",
    MessageType.EXECUTE_BATCH: "executemany",
    MessageType.BEGIN: "begin",
    MessageType.COMMIT: "commit",
    MessageType.ROLLBACK: "rollback",
}


class _SessionIdle(Exception):
    """Internal: the session sat idle past the configured idle timeout."""


class _SessionDrained(Exception):
    """Internal: the server is draining and the session is between frames."""


class _Session:
    """One client connection: socket, identity, and driver-equivalent state."""

    _ids = 0
    _ids_lock = threading.Lock()

    def __init__(self, server: "ControllerServer", sock: socket.socket, peer):
        with _Session._ids_lock:
            _Session._ids += 1
            self.session_id = _Session._ids
        self.server = server
        self.frames = FrameSocket(sock)
        self.peer = peer
        self.database: Optional[str] = None
        self.login = ""
        self.virtual_database = None
        #: transaction ids begun by this session and not yet ended
        self.transactions: set = set()
        #: statement id -> controller-side PreparedStatementHandle
        self.statements: Dict[int, object] = {}
        self._statement_ids = 0
        self.requests = 0
        self.responses = 0
        self.errors = 0
        self.last_activity = time.monotonic()

    def reply(self, frames) -> None:
        """Send one response: its frames leave together when they fit one segment."""
        self.responses += 1
        self.frames.send_frames(frames)

    def next_statement_id(self) -> int:
        self._statement_ids += 1
        return self._statement_ids

    def counts(self) -> dict:
        """What this session adds to the server's totals."""
        frames = self.frames
        return {
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "bytes_in": frames.bytes_in,
            "bytes_out": frames.bytes_out,
            "frames_out": frames.frames_out,
            "sends": frames.sends,
        }

    def describe(self) -> dict:
        return {
            "session_id": self.session_id,
            "peer": f"{self.peer[0]}:{self.peer[1]}" if self.peer else "?",
            "database": self.database,
            "login": self.login,
            "open_transactions": len(self.transactions),
            "prepared_statements": len(self.statements),
            **self.counts(),
        }


class ControllerServer:
    """Thread-per-connection TCP front-end over one controller."""

    def __init__(
        self,
        controller: "Controller",
        host: str = DEFAULT_HOST,
        port: int = 0,
        max_connections: int = DEFAULT_MAX_CONNECTIONS,
        idle_timeout: Optional[float] = None,
        backlog: int = DEFAULT_BACKLOG,
        drain_timeout: float = 5.0,
    ):
        if max_connections < 1:
            raise ProtocolError(f"max_connections must be >= 1, got {max_connections}")
        self.controller = controller
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.backlog = backlog
        self.drain_timeout = drain_timeout
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._lock = threading.Lock()
        self._sessions: Dict[int, _Session] = {}
        self._threads: List[threading.Thread] = []
        self._started = False
        self._draining = False
        self._stopped = threading.Event()
        self._fault_injector: Optional[FaultInjector] = None
        # statistics (under _lock unless monotonic counters)
        self._accepted = 0
        self._rejected = 0
        self._sessions_authenticated = 0
        self._idle_closed = 0
        self._fault_disconnects = 0
        #: :meth:`_Session.counts` of every closed session, summed
        self._closed: Counter = Counter(
            requests=0, responses=0, errors=0, bytes_in=0, bytes_out=0, frames_out=0, sends=0
        )

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, listen and start the acceptor; returns the bound address.

        Binding to port 0 picks an ephemeral port; read the actual one from
        the returned address (or :attr:`address`).
        """
        if self._started:
            return self.address
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(self.backlog)
        listener.settimeout(_POLL_INTERVAL)
        self.host, self.port = listener.getsockname()[:2]
        self._listener = listener
        self._started = True
        self._draining = False
        self._stopped.clear()
        self._acceptor = threading.Thread(
            target=self._accept_loop,
            name=f"cjdbc-acceptor-{self.controller.name}",
            daemon=True,
        )
        self._acceptor.start()
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    @property
    def url_authority(self) -> str:
        """The ``host:port`` to put in a remote ``cjdbc://`` URL."""
        return f"{self.host}:{self.port}"

    @property
    def is_running(self) -> bool:
        return self._started and not self._stopped.is_set()

    @property
    def draining(self) -> bool:
        return self._draining

    def stop(self, drain: bool = True, drain_timeout: Optional[float] = None) -> None:
        """Stop the server: close the acceptor, then end every session.

        With ``drain`` (the default) sessions finish their in-flight request
        and close at the next idle point; sessions still alive after the
        drain timeout — and all sessions when ``drain=False`` — have their
        sockets severed immediately.
        """
        if not self._started:
            return
        self._draining = True
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:  # pragma: no cover
                pass
        budget = self.drain_timeout if drain_timeout is None else drain_timeout
        if drain and budget > 0:
            deadline = time.monotonic() + budget
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._sessions:
                        break
                time.sleep(0.02)
        # sever whatever is left
        with self._lock:
            leftovers = list(self._sessions.values())
        for session in leftovers:
            self._sever(session)
        if self._acceptor is not None:
            self._acceptor.join(timeout=2.0)
            self._acceptor = None
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=2.0)
        self._stopped.set()
        self._started = False

    def kill(self) -> None:
        """Abrupt stop: sever every client socket without draining.

        The chaos-suite way to "kill the primary controller's server
        mid-session" — remote drivers observe a dead socket and fail over.
        """
        self.stop(drain=False)

    # -- chaos hook ----------------------------------------------------------------------

    def ensure_fault_injector(self, seed: int = 0) -> FaultInjector:
        """The server's fault injector, created idle on first access.

        Armed ``disconnect`` rules sever the client socket before the
        matching frame is dispatched; ``error`` rules surface as typed error
        frames; ``latency``/``hang`` rules delay dispatch.
        """
        with self._lock:
            if self._fault_injector is None:
                self._fault_injector = FaultInjector(seed=seed)
            return self._fault_injector

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        return self._fault_injector

    # -- monitoring ----------------------------------------------------------------------

    def statistics(self) -> dict:
        with self._lock:
            sessions = [session.describe() for session in self._sessions.values()]
            counts = Counter(self._closed)
            for session in self._sessions.values():
                counts.update(session.counts())
            return {
                "address": f"{self.host}:{self.port}",
                "running": self.is_running,
                "draining": self._draining,
                "max_connections": self.max_connections,
                "idle_timeout": self.idle_timeout,
                "connections_accepted": self._accepted,
                "connections_rejected": self._rejected,
                "connections_active": len(self._sessions),
                "sessions_authenticated": self._sessions_authenticated,
                "idle_closed": self._idle_closed,
                "fault_disconnects": self._fault_disconnects,
                **counts,
                "active_sessions": sessions,
            }

    # -- acceptor ------------------------------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None or self._draining:
                return
            try:
                sock, peer = listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed under us: shutting down
            # a reply is written whole; waiting for the client's ACK before
            # sending a small one (Nagle) only adds its delayed-ACK timer
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with self._lock:
                self._accepted += 1
                if self._draining or len(self._sessions) >= self.max_connections:
                    self._rejected += 1
                    reject = True
                else:
                    session = _Session(self, sock, peer)
                    self._sessions[session.session_id] = session
                    reject = False
            if reject:
                self._reject(sock)
                continue
            thread = threading.Thread(
                target=self._session_loop,
                args=(session,),
                name=f"cjdbc-session-{session.session_id}",
                daemon=True,
            )
            with self._lock:
                self._threads.append(thread)
            thread.start()

    def _reject(self, sock: socket.socket) -> None:
        try:
            frames = FrameSocket(sock)
            frames.send(
                MessageType.ERROR,
                encode_error(
                    ControllerError(
                        f"controller {self.controller.name!r} is"
                        f" {'draining' if self._draining else 'at capacity'}"
                        f" ({self.max_connections} connections)"
                    )
                ),
            )
        except OSError:
            pass
        finally:
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass

    def _sever(self, session: _Session) -> None:
        try:
            session.frames.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        session.frames.close()

    # -- session loop --------------------------------------------------------------------

    def _session_loop(self, session: _Session) -> None:
        sock = session.frames.sock
        sock.settimeout(_POLL_INTERVAL)
        try:
            self._run_session(session)
        except (ConnectionClosed, OSError):
            pass  # peer went away; cleanup below
        except _SessionIdle:
            with self._lock:
                self._idle_closed += 1
        except _SessionDrained:
            pass
        except ProtocolError as exc:
            self._try_send(session, MessageType.ERROR, encode_error(exc))
        finally:
            self._finish_session(session)

    def _finish_session(self, session: _Session) -> None:
        # roll back whatever the session left open, then drop it
        for transaction_id in sorted(session.transactions):
            try:
                session.virtual_database.rollback(transaction_id, session.login)
            except ReproError:
                pass
        session.transactions.clear()
        session.statements.clear()
        session.frames.close()
        with self._lock:
            self._sessions.pop(session.session_id, None)
            self._closed.update(session.counts())
            self._threads = [t for t in self._threads if t.is_alive()]

    def _idle_callback(self, session: _Session) -> None:
        if self._draining:
            raise _SessionDrained()
        # heartbeats count as liveness: a client blocked on a long-running
        # statement keeps the session alive by beaconing between frames
        last_alive = max(session.last_activity, session.frames.last_heartbeat_at)
        if (
            self.idle_timeout is not None
            and time.monotonic() - last_alive > self.idle_timeout
        ):
            raise _SessionIdle()

    def _try_send(self, session: _Session, message_type, body) -> None:
        try:
            session.reply([(message_type, body)])
        except OSError:
            pass

    def _run_session(self, session: _Session) -> None:
        self._handshake(session)
        while True:
            message_type, body = session.frames.recv(
                idle_callback=lambda: self._idle_callback(session)
            )
            session.last_activity = time.monotonic()
            if message_type is MessageType.GOODBYE:
                self._try_send(session, MessageType.OK, {})
                return
            session.requests += 1
            try:
                self._inject_faults(session, message_type, body)
                replies = self._dispatch(session, message_type, body)
            except ConnectionDropError:
                with self._lock:
                    self._fault_disconnects += 1
                self._sever(session)
                return
            except ReproError as exc:
                session.errors += 1
                replies = [(MessageType.ERROR, encode_error(exc))]
            session.reply(replies)
            session.last_activity = time.monotonic()

    def _handshake(self, session: _Session) -> None:
        message_type, body = session.frames.recv(
            idle_callback=lambda: self._idle_callback(session)
        )
        session.last_activity = time.monotonic()
        try:
            if message_type is not MessageType.HELLO:
                raise ProtocolError(
                    f"expected HELLO as the first frame, got {message_type.name}"
                )
            version = body.get("protocol")
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"protocol version mismatch: server speaks {PROTOCOL_VERSION},"
                    f" client sent {version!r}"
                )
            database = body.get("database")
            if not isinstance(database, str) or not database:
                raise ProtocolError("HELLO frame is missing the virtual database name")
            virtual_database = self.controller.get_virtual_database(database)
            login = str(body.get("user", ""))
            virtual_database.check_credentials(login, str(body.get("password", "")))
        except (ProtocolError, CJDBCError) as exc:
            session.errors += 1
            self._try_send(session, MessageType.ERROR, encode_error(exc))
            raise ConnectionClosed(str(exc))
        session.database = database
        session.login = login
        session.virtual_database = virtual_database
        with self._lock:
            self._sessions_authenticated += 1
        welcome = {
            "controller": self.controller.name,
            "database": virtual_database.name,
            "protocol": PROTOCOL_VERSION,
        }
        session.reply([(MessageType.WELCOME, welcome)])

    def _inject_faults(self, session: _Session, message_type, body) -> None:
        injector = self._fault_injector
        if injector is None:
            return
        operation = _FAULT_OPERATIONS.get(message_type)
        if operation is None:
            return
        # a prepared statement's text stays with its handle, not in each frame
        handle = session.statements.get(body.get("statement_id"))
        sql = handle.sql if handle is not None else body.get("sql", "")
        injector.invoke(operation, str(sql))

    # -- dispatch ------------------------------------------------------------------------

    def _dispatch(self, session: _Session, message_type, body):
        if self.controller.is_shutdown:
            raise ControllerError(f"controller {self.controller.name!r} is shut down")
        if message_type is MessageType.PING:
            return [(MessageType.OK, {"controller": self.controller.name})]
        if message_type is MessageType.EXECUTE:
            result = session.virtual_database.execute(
                str(body.get("sql", "")),
                tuple(body.get("parameters") or ()),
                login=session.login,
                transaction_id=body.get("transaction_id"),
            )
            return result_frames(result)
        if message_type is MessageType.PREPARE:
            handle = session.virtual_database.prepare(str(body.get("sql", "")))
            statement_id = session.next_statement_id()
            session.statements[statement_id] = handle
            return [
                (
                    MessageType.PREPARED,
                    {
                        "statement_id": statement_id,
                        "is_write": handle.is_write,
                        "is_read_only": handle.is_read_only,
                    },
                )
            ]
        if message_type is MessageType.EXECUTE_PREPARED:
            handle = self._statement(session, body)
            result = handle.execute(
                tuple(body.get("parameters") or ()),
                login=session.login,
                transaction_id=body.get("transaction_id"),
            )
            return result_frames(result)
        if message_type is MessageType.EXECUTE_BATCH:
            handle = self._statement(session, body)
            parameter_sets = tuple(
                tuple(parameters) for parameters in (body.get("parameter_sets") or ())
            )
            result = handle.execute_batch(
                parameter_sets,
                login=session.login,
                transaction_id=body.get("transaction_id"),
            )
            return result_frames(result)
        if message_type is MessageType.BEGIN:
            transaction_id = session.virtual_database.begin(session.login)
            session.transactions.add(transaction_id)
            return [(MessageType.OK, {"transaction_id": transaction_id})]
        if message_type is MessageType.COMMIT:
            transaction_id = body.get("transaction_id")
            session.virtual_database.commit(transaction_id, session.login)
            session.transactions.discard(transaction_id)
            return [(MessageType.OK, {})]
        if message_type is MessageType.ROLLBACK:
            transaction_id = body.get("transaction_id")
            session.virtual_database.rollback(transaction_id, session.login)
            session.transactions.discard(transaction_id)
            return [(MessageType.OK, {})]
        if message_type is MessageType.CLOSE_STATEMENT:
            session.statements.pop(body.get("statement_id"), None)
            return [(MessageType.OK, {})]
        raise ProtocolError(f"unexpected frame {message_type.name} on the server")

    @staticmethod
    def _statement(session: _Session, body):
        statement_id = body.get("statement_id")
        handle = session.statements.get(statement_id)
        if handle is None:
            raise ProtocolError(f"unknown statement id {statement_id!r}")
        return handle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.is_running else "stopped"
        return (
            f"ControllerServer({self.controller.name!r}, {self.host}:{self.port},"
            f" {state})"
        )


__all__ = ["ControllerServer"]
