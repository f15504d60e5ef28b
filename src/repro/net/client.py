"""The remote driver mode: ``cjdbc://host:port/db`` over real sockets.

The in-process driver (:mod:`repro.core.driver`) talks to controllers
through direct method calls; this module substitutes socket transport
behind the exact same duck-typed surface, so the whole driver stack —
:class:`~repro.core.driver.VirtualConnection` failover, prepared statement
re-prepare after failover, cursor semantics, batching — runs unmodified
over the network:

* :class:`RemoteController` stands in for a
  :class:`repro.core.controller.Controller`: ``get_virtual_database()``
  lazily dials the TCP address, performs the HELLO handshake (which
  authenticates), and returns a :class:`RemoteVirtualDatabase` session.
  The same session object is returned while the connection lives, so the
  driver's identity-based handle cache re-prepares statements exactly when
  a reconnect produced a fresh session — transparent re-prepare on
  failover, the paper's §2.3 behaviour;
* :class:`RemoteVirtualDatabase` speaks request/response frames for the
  full request API; socket death maps to
  :class:`~repro.errors.ControllerError`, the signal the driver's failover
  loop rotates on, while typed server-side errors (authentication, SQL
  errors, no backend left) re-raise as the same class the in-process path
  raises;
* :func:`connect_remote` assembles ordered :class:`RemoteController`
  handles into an ordinary :class:`~repro.core.driver.VirtualConnection`.
"""

from __future__ import annotations

import socket
import threading
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import ControllerError, InterfaceError
from repro.net.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    FrameSocket,
    MessageType,
    ProtocolError,
    decode_error,
    result_from_frames,
)

#: how long a remote controller dial may take before counting as unreachable
DEFAULT_CONNECT_TIMEOUT = 5.0


def looks_like_address(name: str) -> bool:
    """True when a controller name in a URL is a ``host:port`` address."""
    host, sep, port = name.rpartition(":")
    return bool(sep) and bool(host) and port.isdigit()


def parse_address(name: str) -> Tuple[str, int]:
    """Split ``host:port`` and validate the port."""
    host, sep, port_text = name.rpartition(":")
    if not sep or not host or not port_text.isdigit():
        raise InterfaceError(f"not a host:port controller address: {name!r}")
    port = int(port_text)
    if not 0 < port < 65536:
        raise InterfaceError(f"port out of range in controller address {name!r}")
    return host, port


class _RemoteTemplate:
    """Client-side stand-in for the controller's parsed template.

    Carries only what the driver consults locally — the statement shape —
    so ``add_batch`` can reject non-batchable statements without a network
    round trip, mirroring :meth:`ParsedTemplate.require_batchable`.
    """

    __slots__ = ("sql", "is_write", "is_read_only")

    def __init__(self, sql: str, is_write: bool, is_read_only: bool):
        self.sql = sql
        self.is_write = is_write
        self.is_read_only = is_read_only

    def require_batchable(self, error_class: type = ControllerError) -> None:
        if not self.is_write:
            raise error_class(
                f"only INSERT/UPDATE/DELETE statements can be batched,"
                f" got: {self.sql[:80]!r}"
            )


class RemotePreparedHandle:
    """Client half of a server-side prepared statement.

    Mirrors :class:`repro.core.request_manager.PreparedStatementHandle`
    (``execute`` / ``execute_batch`` / ``is_write`` / ``is_read_only`` /
    ``template``) so the driver's :class:`PreparedStatement` machinery works
    over it unchanged.  The handle is bound to one session: after a failover
    the driver's handle cache notices the new session identity and prepares
    a fresh handle there.
    """

    __slots__ = ("session", "sql", "statement_id", "template")

    def __init__(
        self, session: "RemoteVirtualDatabase", sql: str, statement_id: int, body: dict
    ):
        self.session = session
        self.sql = sql
        self.statement_id = statement_id
        self.template = _RemoteTemplate(
            sql, bool(body.get("is_write")), bool(body.get("is_read_only"))
        )

    @property
    def is_write(self) -> bool:
        return self.template.is_write

    @property
    def is_read_only(self) -> bool:
        return self.template.is_read_only

    def execute(
        self,
        parameters: Sequence[Any] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ):
        return self.session._result_request(
            MessageType.EXECUTE_PREPARED,
            {
                "statement_id": self.statement_id,
                "parameters": list(parameters),
                "transaction_id": transaction_id,
            },
        )

    def execute_batch(
        self,
        parameter_sets: Sequence[Sequence[Any]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ):
        return self.session._result_request(
            MessageType.EXECUTE_BATCH,
            {
                "statement_id": self.statement_id,
                "parameter_sets": [list(parameters) for parameters in parameter_sets],
                "transaction_id": transaction_id,
            },
        )

    def close(self) -> None:
        """Release the server-side handle (best effort)."""
        try:
            self.session._request(
                MessageType.CLOSE_STATEMENT, {"statement_id": self.statement_id}
            )
        except ControllerError:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemotePreparedHandle({self.sql!r}, id={self.statement_id})"


class RemoteVirtualDatabase:
    """One authenticated wire session, quacking like a VirtualDatabase.

    Exposes the request API surface the driver calls —
    ``check_credentials`` / ``execute`` / ``prepare`` / ``execute_batch`` /
    ``begin`` / ``commit`` / ``rollback`` — as framed request/response
    exchanges.  One request is in flight at a time (the driver serializes
    per-connection work anyway); any transport failure marks the session
    dead and surfaces as :class:`~repro.errors.ControllerError` so the
    driver fails over.
    """

    def __init__(self, controller: "RemoteController", frames: FrameSocket, name: str):
        self.controller = controller
        self.frames = frames
        self.name = name
        self._lock = threading.RLock()
        self._alive = True

    @property
    def alive(self) -> bool:
        return self._alive

    # -- transport ---------------------------------------------------------------------

    def _dead(self, why: Exception) -> ControllerError:
        self._alive = False
        self.frames.close()
        return ControllerError(
            f"lost connection to controller {self.controller.name}: {why}"
        )

    def _request(self, message_type: MessageType, body: dict):
        """One request frame out, one reply frame in; ERROR frames re-raise."""
        with self._lock:
            if not self._alive:
                raise ControllerError(
                    f"connection to controller {self.controller.name} is closed"
                )
            try:
                self.frames.send(message_type, body)
                reply_type, reply = self.frames.recv()
            except (ConnectionClosed, OSError) as exc:
                raise self._dead(exc) from exc
            if reply_type is MessageType.ERROR:
                raise decode_error(reply)
            return reply_type, reply

    def _result_request(self, message_type: MessageType, body: dict):
        """A request whose reply is a result: its header, then a chunk while ``more``."""
        with self._lock:
            reply_type, reply = self._request(message_type, body)
            if reply_type is not MessageType.RESULT_HEADER:
                raise self._dead(
                    ProtocolError(f"expected RESULT_HEADER, got {reply_type.name}")
                )
            header = reply
            chunks: List[List[List[Any]]] = []
            while reply.get("more"):
                try:
                    reply_type, reply = self.frames.recv()
                except (ConnectionClosed, OSError) as exc:
                    raise self._dead(exc) from exc
                if reply_type is not MessageType.RESULT_ROWS:
                    raise self._dead(
                        ProtocolError(
                            f"unexpected {reply_type.name} frame inside a result stream"
                        )
                    )
                chunks.append(reply.get("rows") or [])
            return result_from_frames(header, iter(chunks))

    # -- request API -------------------------------------------------------------------

    def check_credentials(self, login: str, password: str) -> bool:
        # Authentication happened during the HELLO handshake that produced
        # this session; an invalid pair never gets this far.
        return True

    def execute(
        self,
        sql: str,
        parameters: Sequence[Any] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ):
        return self._result_request(
            MessageType.EXECUTE,
            {
                "sql": sql,
                "parameters": list(parameters),
                "transaction_id": transaction_id,
            },
        )

    def prepare(self, sql: str) -> RemotePreparedHandle:
        _reply_type, body = self._request(MessageType.PREPARE, {"sql": sql})
        return RemotePreparedHandle(self, sql, int(body["statement_id"]), body)

    def execute_batch(
        self,
        sql: str,
        parameter_sets: Sequence[Sequence[Any]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ):
        handle = self.prepare(sql)
        try:
            return handle.execute_batch(
                parameter_sets, login=login, transaction_id=transaction_id
            )
        finally:
            handle.close()

    def begin(self, login: str = "") -> int:
        _reply_type, body = self._request(MessageType.BEGIN, {})
        return int(body["transaction_id"])

    def commit(self, transaction_id: int, login: str = "") -> None:
        self._request(MessageType.COMMIT, {"transaction_id": transaction_id})

    def rollback(self, transaction_id: int, login: str = "") -> None:
        self._request(MessageType.ROLLBACK, {"transaction_id": transaction_id})

    def ping(self) -> bool:
        """Liveness probe; False (after marking the session dead) on failure."""
        try:
            self._request(MessageType.PING, {})
            return True
        except ControllerError:
            return False

    def heartbeat(self) -> None:
        """One-way liveness beacon: keeps the server's idle timeout at bay.

        Unlike :meth:`ping` there is no reply to wait for, so a heartbeater
        thread can beacon while this session sits between frames.
        """
        with self._lock:
            if not self._alive:
                raise ControllerError(
                    f"connection to controller {self.controller.name} is closed"
                )
            try:
                self.frames.send_heartbeat({})
            except (ConnectionClosed, OSError) as exc:
                raise self._dead(exc) from exc

    def close(self) -> None:
        """Say goodbye and drop the socket; the session cannot be reused."""
        with self._lock:
            if not self._alive:
                return
            self._alive = False
            try:
                self.frames.send(MessageType.GOODBYE, {})
                self.frames.recv()
            except (ConnectionClosed, OSError, ProtocolError):
                pass
            self.frames.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "dead"
        return f"RemoteVirtualDatabase({self.name!r} @ {self.controller.name}, {state})"


class RemoteController:
    """A controller reachable over TCP, duck-typed like the in-process one.

    The driver only ever calls ``get_virtual_database(name)`` (plus reads
    ``name`` for messages); here that call dials the address on first use —
    or after the previous session died — and performs the HELLO handshake.
    Re-dialing on a dead session is precisely what makes driver failover
    *back* to a recovered controller work: the controller object stays in
    the driver's rotation list and simply reconnects when its turn returns.
    """

    def __init__(
        self,
        address: str,
        database: str,
        user: str = "",
        password: str = "",
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        self.host, self.port = parse_address(address)
        self.name = f"{self.host}:{self.port}"
        self.database = database
        self.user = user
        self.password = password
        self.connect_timeout = connect_timeout
        self._lock = threading.RLock()
        self._session: Optional[RemoteVirtualDatabase] = None
        self.connects = 0

    def get_virtual_database(self, name: str) -> RemoteVirtualDatabase:
        with self._lock:
            session = self._session
            if session is not None and session.alive:
                return session
            session = self._connect(name)
            self._session = session
            return session

    def _connect(self, name: str) -> RemoteVirtualDatabase:
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise ControllerError(
                f"cannot reach controller at {self.name}: {exc}"
            ) from exc
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        frames = FrameSocket(sock)
        try:
            frames.send(
                MessageType.HELLO,
                {
                    "protocol": PROTOCOL_VERSION,
                    "database": name,
                    "user": self.user,
                    "password": self.password,
                },
            )
            reply_type, body = frames.recv()
        except (ConnectionClosed, OSError) as exc:
            frames.close()
            raise ControllerError(
                f"handshake with controller {self.name} failed: {exc}"
            ) from exc
        if reply_type is MessageType.ERROR:
            frames.close()
            # Typed errors re-raise as themselves: AuthenticationError and
            # UnknownVirtualDatabaseError propagate to the caller (as
            # in-process), while a ControllerError (draining, at capacity,
            # shut down) keeps its type and drives the failover loop.
            raise decode_error(body)
        if reply_type is not MessageType.WELCOME:
            frames.close()
            raise ControllerError(
                f"controller {self.name} answered the handshake with"
                f" {reply_type.name}, expected WELCOME"
            )
        self.connects += 1
        return RemoteVirtualDatabase(self, frames, str(body.get("database") or name))

    def release_connection(self) -> None:
        """Close the live session, if any; the driver calls this on close()."""
        with self._lock:
            session, self._session = self._session, None
        if session is not None:
            session.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteController({self.name!r}, database={self.database!r})"


def connect_remote(
    addresses: Sequence[str],
    database: str,
    user: str = "",
    password: str = "",
    connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    retry_policy=None,
):
    """Open a DB-API connection to controllers listening on TCP addresses.

    ``addresses`` is the ordered failover list from the URL authority
    (``cjdbc://host:port,host2:port2/db``).  The returned connection is a
    plain :class:`repro.core.driver.VirtualConnection`; every driver feature
    — transactions, prepared statements, batching, controller failover with
    transparent re-prepare — works identically to the in-process mode.
    ``retry_policy`` (a :class:`repro.core.retry.RetryPolicy`) upgrades the
    failover loop from one rotation pass to bounded retries with backoff.
    """
    from repro.core.driver import VirtualConnection

    if not addresses:
        raise InterfaceError("at least one controller address is required")
    if not database:
        raise InterfaceError("a virtual database name is required")
    controllers = [
        RemoteController(address, database, user, password, connect_timeout)
        for address in addresses
    ]
    return VirtualConnection(
        controllers, database, user, password, retry_policy=retry_policy
    )


__all__ = [
    "DEFAULT_CONNECT_TIMEOUT",
    "RemoteController",
    "RemotePreparedHandle",
    "RemoteVirtualDatabase",
    "connect_remote",
    "looks_like_address",
    "parse_address",
]
