"""The C-JDBC client driver (paper §2.3).

"The client application uses a C-JDBC driver that replaces the
database-specific JDBC driver but offers the same interface."  Here the
"same interface" is DB-API 2.0, the Python equivalent: applications written
against :mod:`repro.sql.dbapi` work unchanged when pointed at a virtual
database through this module.

Like the JDBC original, the driver implements the *full* statement surface:
besides one-shot ``cursor.execute(sql, params)``,
:meth:`VirtualConnection.prepare` returns a :class:`PreparedStatement` bound
to a controller-side parsed template — repeated executions skip SQL
classification entirely — with JDBC-style ``add_batch``/``execute_batch``
shipping every queued parameter set through the controller pipeline as a
single server-side batch (one scheduler ticket, one recovery-log group, one
cache-invalidation pass, one broadcast task per backend).
``cursor.executemany`` is a thin shim over the same batch path.

The driver also implements transparent controller failover: it can be given
several controllers hosting the same virtual database (horizontal
scalability) and it re-routes a connection to the next controller when the
current one fails (§2.3, §4.1).  A full result set is materialized on the
controller and handed to the driver, so clients browse results locally.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from repro.core.controller import Controller
from repro.core.request import RequestResult
from repro.core.retry import RetryPolicy
from repro.core.virtualdb import VirtualDatabase
from repro.errors import (
    CJDBCError,
    ControllerError,
    DatabaseError,
    InterfaceError,
    NoMoreBackendError,
)
from repro.sql.dbapi import ResultCursor

apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"


def connect(
    controllers: Union[Controller, Sequence[Controller]],
    database: str,
    user: str = "",
    password: str = "",
    retry_policy: Optional[RetryPolicy] = None,
) -> "VirtualConnection":
    """Open a connection to a virtual database.

    ``controllers`` may be a single controller or an ordered list of
    controllers hosting the same (distributed) virtual database; the driver
    uses the first reachable one and transparently fails over to the others.
    ``retry_policy`` tunes that failover (attempts, exponential backoff,
    per-operation timeout); without one, each operation makes a single pass
    over the controller list.

    To connect by ``cjdbc://`` URL instead, use :func:`repro.connect`.
    """
    if isinstance(controllers, Controller):
        controllers = [controllers]
    if not controllers:
        raise InterfaceError("at least one controller is required")
    return VirtualConnection(
        list(controllers), database, user, password, retry_policy=retry_policy
    )


class VirtualConnection:
    """A DB-API connection to a virtual database through one or more controllers."""

    def __init__(
        self,
        controllers: List[Controller],
        database: str,
        user: str,
        password: str,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self._controllers = controllers
        self.database = database
        self.user = user
        self.password = password
        self._lock = threading.RLock()
        #: a plain attribute, so a cursor's open check is no extra call
        self.closed = False
        self._autocommit = True
        self._transaction_id: Optional[int] = None
        self._controller_index = 0
        self.failovers = 0
        self.retries = 0
        self._retry_policy = retry_policy
        self._retry_rng = retry_policy.rng() if retry_policy is not None else None
        # Validate credentials against the first reachable controller now, the
        # way the JDBC driver authenticates when the connection is opened.
        self._virtual_database().check_credentials(user, password)

    # -- controller selection / failover -------------------------------------------------

    def _virtual_database(self) -> VirtualDatabase:
        """Current controller's virtual database, failing over when needed."""
        with self._lock:
            attempts = 0
            while attempts < len(self._controllers):
                controller = self._controllers[self._controller_index]
                try:
                    return controller.get_virtual_database(self.database)
                except ControllerError:
                    self._controller_index = (self._controller_index + 1) % len(
                        self._controllers
                    )
                    self.failovers += 1
                    attempts += 1
            raise ControllerError(
                f"no controller can serve virtual database {self.database!r}"
            )

    @property
    def current_controller(self) -> Controller:
        with self._lock:
            return self._controllers[self._controller_index]

    # -- DB-API surface ------------------------------------------------------------------------

    @property
    def autocommit(self) -> bool:
        return self._autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self._check_open()
        value = bool(value)
        if value and self._transaction_id is not None:
            self.commit()
        self._autocommit = value

    def begin(self) -> Optional[int]:
        """Explicitly start a transaction.

        The transaction ends at the next :meth:`commit` or :meth:`rollback`;
        afterwards the connection returns to its ``autocommit`` setting (so a
        ``begin()``/``commit()`` block on an autocommit connection does not
        silently leave every later statement inside implicit transactions —
        which would in particular make them ineligible for the query result
        cache).
        """
        self._check_open()
        with self._lock:
            if self._transaction_id is None:
                self._transaction_id = self._virtual_database().begin(self.user)
            return self._transaction_id

    def commit(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction_id is None:
                return
            transaction_id, self._transaction_id = self._transaction_id, None
        self._virtual_database().commit(transaction_id, self.user)

    def rollback(self) -> None:
        self._check_open()
        with self._lock:
            if self._transaction_id is None:
                return
            transaction_id, self._transaction_id = self._transaction_id, None
        self._virtual_database().rollback(transaction_id, self.user)

    def close(self) -> None:
        if self.closed:
            return
        if self._transaction_id is not None:
            try:
                self.rollback()
            except CJDBCError:
                pass
        self.closed = True
        # Remote controllers hold live sockets; release them.  In-process
        # controllers have no per-connection resources and no such method.
        for controller in self._controllers:
            release = getattr(controller, "release_connection", None)
            if release is not None:
                try:
                    release()
                except CJDBCError:  # pragma: no cover - best-effort cleanup
                    pass

    def cursor(self) -> "VirtualCursor":
        self._check_open()
        return VirtualCursor(self)

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "VirtualCursor":
        cursor = self.cursor()
        cursor.execute(sql, parameters)
        return cursor

    def prepare(self, sql: str) -> "PreparedStatement":
        """Prepare ``sql`` once; the statement re-executes without re-parsing.

        The returned :class:`PreparedStatement` binds a controller-side
        parsed template, offers DB-API cursor semantics for its results, and
        adds JDBC-style batching (``add_batch``/``execute_batch``).
        """
        self._check_open()
        return PreparedStatement(self, sql)

    # -- internals ----------------------------------------------------------------------------

    def _ensure_transaction(self) -> Optional[int]:
        with self._lock:
            if self._transaction_id is not None:
                return self._transaction_id
            if self._autocommit:
                return None
            self._transaction_id = self._virtual_database().begin(self.user)
            return self._transaction_id

    def _execute_with_failover(
        self,
        operation: Callable[[VirtualDatabase], RequestResult],
        transaction_id: Optional[int],
    ) -> RequestResult:
        """Run ``operation`` against the current controller, failing over.

        Shared by one-shot, prepared and batch execution.  A controller dying
        mid-request rotates to the next one; in-flight transactions cannot be
        transparently migrated (the paper's driver aborts them), so those
        surface an error instead of retrying.

        Without a retry policy each operation makes a single pass over the
        controller list: no sleeping, and only a controller failure earns
        the next try.  With one, attempts continue (rotating controllers,
        sleeping the policy's backoff between tries) until an attempt
        succeeds, ``max_attempts`` is exhausted, or the per-operation
        timeout expires — the window a restarting controller needs to come
        back is covered by the later, longer delays.
        """
        policy = self._retry_policy
        attempts = len(self._controllers) if policy is None else policy.max_attempts
        deadline = (
            time.monotonic() + policy.operation_timeout
            if policy is not None and policy.operation_timeout is not None
            else None
        )
        last_error: Optional[Exception] = None
        for attempt in range(attempts):
            if attempt and policy is not None:
                delay = policy.delay(attempt, self._retry_rng)
                if deadline is not None:
                    delay = min(delay, max(0.0, deadline - time.monotonic()))
                if delay > 0:
                    time.sleep(delay)
                with self._lock:
                    self.retries += 1
            virtual_database = None
            try:
                # controller selection belongs inside the attempt: under a
                # policy "no controller can serve" is retryable too — the
                # controllers may be restarting
                virtual_database = self._virtual_database()
                return operation(virtual_database)
            except CJDBCError as exc:
                if policy is not None:
                    retryable = RetryPolicy.is_retryable(exc)
                else:
                    # a pass that never sleeps cannot outwait a restart:
                    # when selection itself found nobody, that error is final
                    retryable = (
                        isinstance(exc, ControllerError) and virtual_database is not None
                    )
                if not retryable:
                    raise
                last_error = exc
                with self._lock:
                    self._controller_index = (self._controller_index + 1) % len(
                        self._controllers
                    )
                    self.failovers += 1
                if transaction_id is not None:
                    self._transaction_id = None
                    raise DatabaseError(
                        "controller failed during a transaction; transaction aborted"
                    ) from exc
                if deadline is not None and time.monotonic() >= deadline:
                    raise DatabaseError(
                        f"operation timed out after {policy.operation_timeout}s"
                        f" ({attempt + 1} attempts): {last_error}"
                    ) from exc
        if policy is None:
            raise DatabaseError(f"all controllers failed: {last_error}")
        raise DatabaseError(f"all {attempts} attempts failed: {last_error}")

    # _run, _run_batch and _run_prepared are the cursors'; each cursor call
    # has checked that the cursor and this connection are open

    def _run(self, sql: str, parameters: Sequence[Any]) -> RequestResult:
        stripped = sql.lstrip()
        if stripped[:13].upper() == "EXPLAIN ROUTE":
            # a planning-only request: nothing executes, so it joins no
            # transaction and needs no demarcation
            return self._execute_with_failover(
                lambda virtual_database: self._explain_route(
                    virtual_database, stripped[13:].strip()
                ),
                None,
            )
        transaction_id = self._ensure_transaction()
        return self._execute_with_failover(
            lambda virtual_database: virtual_database.execute(
                sql, parameters, login=self.user, transaction_id=transaction_id
            ),
            transaction_id,
        )

    def _explain_route(self, virtual_database, sql: str) -> RequestResult:
        explain = getattr(virtual_database, "explain_route", None)
        if explain is None:
            raise DatabaseError(
                "EXPLAIN ROUTE is not supported over this connection"
                " (the remote protocol does not expose route planning)"
            )
        if not sql:
            raise DatabaseError("EXPLAIN ROUTE needs a statement to plan")
        return explain(sql, login=self.user)

    def _run_batch(
        self,
        sql: str,
        parameter_sets: Sequence[Sequence[Any]],
        handles: Optional["_HandleCache"] = None,
    ) -> RequestResult:
        """Ship a whole batch through the controller pipeline in one pass.

        ``handles`` carries an already-resolved controller-side template
        (from a prepared statement or a just-classified ``executemany``), so
        the batch never re-parses the SQL; it is resolved here only when no
        caller prepared one.
        """
        if not parameter_sets:
            # an empty batch executes nothing and reports zero affected rows
            return RequestResult(update_count=0)
        if handles is None:
            handles = _HandleCache(sql)
        transaction_id = self._ensure_transaction()
        return self._execute_with_failover(
            lambda virtual_database: handles.handle_for(virtual_database).execute_batch(
                parameter_sets, login=self.user, transaction_id=transaction_id
            ),
            transaction_id,
        )

    def _run_prepared(
        self, statement: "PreparedStatement", parameters: Sequence[Any]
    ) -> RequestResult:
        transaction_id = self._ensure_transaction()
        return self._execute_with_failover(
            lambda virtual_database: statement._handle_for(virtual_database).execute(
                parameters, login=self.user, transaction_id=transaction_id
            ),
            transaction_id,
        )

    def _check_open(self) -> None:
        if self.closed:
            raise InterfaceError("connection is closed")

    def __enter__(self) -> "VirtualConnection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An already-closed connection must not raise here: commit()/rollback()
        # would throw InterfaceError and mask the exception that is already
        # propagating out of the ``with`` block.
        if self.closed:
            return
        if exc_type is None:
            try:
                self.commit()
            finally:
                self.close()
        else:
            try:
                self.rollback()
            finally:
                self.close()


class _HandleCache:
    """The controller-side statement handle, re-resolved after failover.

    Parsed templates carry no controller state, but the handle binds the
    request manager of one virtual database; when failover routes the
    connection to a different controller the handle is prepared again there
    (a parsing-cache hit at worst).  One instance serves one driver-side
    statement for its whole lifetime, so steady-state executions pay a single
    identity check.
    """

    __slots__ = ("sql", "handle", "database")

    def __init__(self, sql: str):
        self.sql = sql
        self.handle = None
        self.database = None

    def handle_for(self, virtual_database):
        if self.handle is None or self.database is not virtual_database:
            self.handle = virtual_database.prepare(self.sql)
            self.database = virtual_database
        return self.handle


class VirtualCursor(ResultCursor):
    """DB-API cursor over a virtual connection; results are fully materialized."""

    @property
    def from_cache(self) -> bool:
        """Extension: True when the last result came from the query result cache."""
        return bool(self._result and self._result.from_cache)

    @property
    def backend_name(self) -> Optional[str]:
        """Extension: name of the backend that served the last read."""
        return self._result.backend_name if self._result else None

    # -- execution -------------------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "VirtualCursor":
        self._check_open()
        self._result = self._connection._run(sql, tuple(parameters))
        self._position = 0
        return self

    def executemany(self, sql: str, seq_of_parameters: Sequence[Sequence[Any]]) -> "VirtualCursor":
        """Execute ``sql`` for every parameter set.

        INSERT/UPDATE/DELETE statements take the server-side batch path: the
        whole sequence traverses the controller pipeline *once* and the
        cursor reports the aggregate update count.  Other statement shapes
        (SELECT, DDL) keep the legacy per-set loop.  An empty sequence
        executes nothing and leaves a fresh zero-count result — not the
        previous statement's stale result — on the cursor.
        """
        self._check_open()
        parameter_sets = [tuple(parameters) for parameters in seq_of_parameters]
        if not parameter_sets:
            self._result = RequestResult(update_count=0)
            self._position = 0
            return self
        handles = _HandleCache(sql)
        if handles.handle_for(self._connection._virtual_database()).is_write:
            # hand the resolved template along: the batch run re-parses
            # nothing (and re-prepares only across a failover)
            self._result = self._connection._run_batch(sql, parameter_sets, handles)
            self._position = 0
            return self
        total = 0
        for parameters in parameter_sets:
            self.execute(sql, parameters)
            if self._result is not None and self._result.update_count > 0:
                total += self._result.update_count
        if self._result is not None:
            # The last result may be a shared cached RequestResult; report the
            # accumulated count on a private copy instead of mutating it.
            self._result = dataclasses.replace(self._result, update_count=total)
        return self


class PreparedStatement(VirtualCursor):
    """A reusable statement handle bound to one SQL template (paper §2.3).

    The JDBC driver's ``PreparedStatement``, ported to DB-API idiom: the SQL
    is parsed (classified, tables extracted) once on the controller, and
    every later execution instantiates a request straight from that template.
    The statement *is* a cursor — ``fetchall``, ``rowcount``, ``description``
    and iteration work on its last result — plus JDBC-style batching:

    >>> statement = connection.prepare("INSERT INTO t (a, b) VALUES (?, ?)")
    >>> statement.execute((1, "x"))              # one row, one pipeline pass
    >>> for row in rows:
    ...     statement.add_batch(row)
    >>> statement.execute_batch()                # N rows, ONE pipeline pass
    >>> statement.rowcount                       # aggregate update count

    The controller-side handle is re-prepared transparently after a
    controller failover (templates carry no controller state).
    """

    def __init__(self, connection: VirtualConnection, sql: str):
        super().__init__(connection)
        self.sql = sql
        self._batch: List[Tuple[Any, ...]] = []
        self._handles = _HandleCache(sql)
        # parse eagerly so malformed SQL fails at prepare() time, like JDBC
        self._handle_for(connection._virtual_database())

    def _handle_for(self, virtual_database):
        """The controller-side handle, re-prepared after a failover."""
        return self._handles.handle_for(virtual_database)

    # -- statement surface -------------------------------------------------------------

    @property
    def is_write(self) -> bool:
        """True when the template is an INSERT/UPDATE/DELETE (batchable)."""
        return self._handles.handle.is_write

    @property
    def is_read_only(self) -> bool:
        return self._handles.handle.is_read_only

    def execute(self, parameters: Sequence[Any] = ()) -> "PreparedStatement":  # type: ignore[override]
        """Execute the prepared template with one parameter set."""
        self._check_open()
        self._result = self._connection._run_prepared(self, tuple(parameters))
        self._position = 0
        return self

    def executemany(self, seq_of_parameters: Sequence[Sequence[Any]]) -> "PreparedStatement":  # type: ignore[override]
        """DB-API spelling of ``add_batch`` + ``execute_batch``."""
        for parameters in seq_of_parameters:
            self.add_batch(parameters)
        return self.execute_batch()

    # -- batching ----------------------------------------------------------------------

    def add_batch(self, parameters: Sequence[Any] = ()) -> "PreparedStatement":
        """Queue one parameter set for the next :meth:`execute_batch`."""
        self._check_open()
        self._handles.handle.template.require_batchable(InterfaceError)
        self._batch.append(tuple(parameters))
        return self

    @property
    def batch_size(self) -> int:
        """Parameter sets queued for the next :meth:`execute_batch`."""
        return len(self._batch)

    def clear_batch(self) -> None:
        """Drop every queued parameter set without executing."""
        self._batch.clear()

    def execute_batch(self) -> "PreparedStatement":
        """Ship every queued parameter set through the pipeline as one batch.

        The queue is consumed whatever the outcome (JDBC ``executeBatch``
        semantics); an empty queue executes nothing and reports an update
        count of zero.
        """
        self._check_open()
        parameter_sets, self._batch = self._batch, []
        # through the bound template: the batch never re-classifies the SQL
        self._result = self._connection._run_batch(self.sql, parameter_sets, self._handles)
        self._position = 0
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        text = self.sql if len(self.sql) <= 60 else self.sql[:57] + "..."
        return f"PreparedStatement({text!r}, queued={len(self._batch)})"
