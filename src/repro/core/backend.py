"""Database backend wrapper.

A :class:`DatabaseBackend` is the controller-side representation of one real
database (paper Figure 1, "Database Backend" + "Connection Manager").  It
knows how to open connections through the backend's *native driver* (a
connection factory — either :func:`repro.sql.dbapi.connect` for a local
engine, or a C-JDBC driver connection for a nested controller), keeps the
dynamically gathered schema used by partial-replication load balancers, maps
in-flight transactions to connections (implementing *lazy transaction
begin*, paper §2.4.4) and tracks the counters used by the
least-pending-requests-first load balancer.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.connection_manager import (
    ConnectionManager,
    VariablePoolConnectionManager,
)
from repro.core.faults import FaultInjector
from repro.core.request import AbstractRequest, RequestResult
from repro.core.requestparser import CREATE_TABLE, DROP_TABLE
from repro.errors import BackendError, DatabaseError
from repro.planner.plan import BATCH


class BackendState(Enum):
    ENABLED = "ENABLED"
    DISABLED = "DISABLED"
    RECOVERING = "RECOVERING"
    DISABLING = "DISABLING"


class DatabaseBackend:
    """One backend database as seen by a virtual database."""

    def __init__(
        self,
        name: str,
        connection_factory: Callable[[], object],
        connection_manager: Optional[ConnectionManager] = None,
        weight: int = 1,
        static_schema: Optional[Iterable[str]] = None,
        metadata_factory: Optional[Callable[[], object]] = None,
    ):
        self.name = name
        self.weight = weight
        self._connection_factory = connection_factory
        self.connection_manager = connection_manager or VariablePoolConnectionManager(
            connection_factory
        )
        self._metadata_factory = metadata_factory
        self._state = BackendState.DISABLED
        self._state_lock = threading.RLock()
        #: callbacks invoked with this backend after every state change; the
        #: request manager uses this to invalidate its enabled-backend snapshot
        self._state_listeners: List[Callable[["DatabaseBackend"], None]] = []
        #: table names hosted by this backend (lower-cased)
        self._tables: Set[str] = {t.lower() for t in (static_schema or ())}
        self._static_schema = static_schema is not None
        #: transaction id -> dedicated connection (lazy transaction begin)
        self._transaction_connections: Dict[int, object] = {}
        self._transaction_lock = threading.RLock()
        # counters
        self._pending_requests = 0
        self._counters_lock = threading.Lock()
        self.total_requests = 0
        self.total_reads = 0
        self.total_writes = 0
        self.total_batches = 0
        self.total_batched_statements = 0
        self.total_transactions_begun = 0
        self.failures = 0
        #: EWMA of measured service time (seconds) keyed by planner
        #: statement class — the live input behind cost-based routing
        self._service_time_ewma: Dict[str, float] = {}
        self.last_known_checkpoint: Optional[str] = None
        #: optional deterministic fault source wrapped around the connection
        #: layer (chaos testing); None costs nothing on the hot path
        self._fault_injector: Optional[FaultInjector] = None

    # -- state --------------------------------------------------------------------

    @property
    def state(self) -> BackendState:
        # a single attribute read is atomic; taking the lock here would put
        # two lock acquisitions on every request's hot path
        return self._state

    @property
    def is_enabled(self) -> bool:
        return self._state is BackendState.ENABLED

    def add_state_listener(self, listener: Callable[["DatabaseBackend"], None]) -> None:
        with self._state_lock:
            if listener not in self._state_listeners:
                self._state_listeners.append(listener)

    def remove_state_listener(self, listener: Callable[["DatabaseBackend"], None]) -> None:
        with self._state_lock:
            if listener in self._state_listeners:
                self._state_listeners.remove(listener)

    def _notify_state_change(self) -> None:
        with self._state_lock:
            listeners = list(self._state_listeners)
        for listener in listeners:
            listener(self)

    def enable(self) -> None:
        with self._state_lock:
            self._state = BackendState.ENABLED
        try:
            if not self._static_schema:
                self.refresh_schema()
        finally:
            # listeners must see the new state even if schema refresh fails
            self._notify_state_change()

    def disable(self) -> None:
        with self._state_lock:
            self._state = BackendState.DISABLED
        try:
            self.abort_all_transactions()
        finally:
            self._notify_state_change()

    def set_recovering(self) -> None:
        with self._state_lock:
            self._state = BackendState.RECOVERING
        self._notify_state_change()

    # -- fault injection -----------------------------------------------------------

    @property
    def fault_injector(self) -> Optional[FaultInjector]:
        return self._fault_injector

    def set_fault_injector(self, injector: Optional[FaultInjector]) -> None:
        """Wrap this backend's connection layer with a fault source."""
        self._fault_injector = injector

    def ensure_fault_injector(self, seed: int = 0) -> FaultInjector:
        """The installed injector, creating an idle one on first use."""
        if self._fault_injector is None:
            self._fault_injector = FaultInjector(seed=seed)
        return self._fault_injector

    def _fault(self, operation: str, sql: str = "") -> None:
        injector = self._fault_injector
        if injector is not None:
            injector.invoke(operation, sql)

    # -- schema -------------------------------------------------------------------

    def refresh_schema(self) -> None:
        """Gather the backend schema through its metadata interface.

        Mirrors the dynamic schema gathering of §2.4.3: "When a backend is
        enabled, the appropriate methods are called on the JDBC
        DatabaseMetaData information of the backend native driver."
        """
        if self._metadata_factory is None:
            return
        metadata = self._metadata_factory()
        names = metadata.get_table_names()
        with self._state_lock:
            self._tables = {name.lower() for name in names}

    def note_ddl(self, request: AbstractRequest) -> None:
        """Update the known schema after a CREATE/DROP TABLE statement."""
        kind = request.template.ddl_kind
        with self._state_lock:
            if kind == CREATE_TABLE:
                self._tables.add(request.tables[0].lower())
            elif kind == DROP_TABLE:
                self._tables.discard(request.tables[0].lower())

    @property
    def tables(self) -> Set[str]:
        with self._state_lock:
            return set(self._tables)

    def has_tables(self, tables: Iterable[str]) -> bool:
        """True when every table in ``tables`` is hosted by this backend."""
        wanted = {t.lower() for t in tables}
        with self._state_lock:
            return wanted.issubset(self._tables) if wanted else True

    def has_any_table(self, tables: Iterable[str]) -> bool:
        wanted = {t.lower() for t in tables}
        with self._state_lock:
            return bool(wanted & self._tables)

    # -- load metrics ---------------------------------------------------------------

    #: smoothing factor for the per-class service-time EWMA; 0.2 lets a
    #: changed backend (new load, injected latency) dominate the estimate
    #: within roughly a dozen measurements without tracking per-request noise
    SERVICE_TIME_EWMA_ALPHA = 0.2

    @property
    def pending_requests(self) -> int:
        with self._counters_lock:
            return self._pending_requests

    def _request_started(self, is_read: bool) -> None:
        with self._counters_lock:
            self._pending_requests += 1
            self.total_requests += 1
            if is_read:
                self.total_reads += 1
            else:
                self.total_writes += 1

    def _request_finished(
        self,
        statement_class: Optional[str] = None,
        elapsed: Optional[float] = None,
    ) -> None:
        with self._counters_lock:
            self._pending_requests = max(0, self._pending_requests - 1)
            if statement_class is None or elapsed is None:
                return
            previous = self._service_time_ewma.get(statement_class)
            if previous is None:
                self._service_time_ewma[statement_class] = elapsed
            else:
                alpha = self.SERVICE_TIME_EWMA_ALPHA
                self._service_time_ewma[statement_class] = (
                    alpha * elapsed + (1.0 - alpha) * previous
                )

    @property
    def service_time_ewma(self) -> Dict[str, float]:
        """Per statement class EWMA of measured service time, in seconds."""
        with self._counters_lock:
            return dict(self._service_time_ewma)

    def pool_pressure(self) -> float:
        """Fraction of the connection pool currently checked out (0.0–1.0)."""
        pool_size = getattr(self.connection_manager, "pool_size", 0)
        if not pool_size:
            return 0.0
        checked_out = getattr(self.connection_manager, "_checked_out", 0)
        return min(1.0, max(0, checked_out) / pool_size)

    def planner_inputs(self, statement_class: str) -> Tuple[Optional[float], int, float]:
        """What one cost estimate reads: ``(service time, pending, pool pressure)``.

        The service time is this backend's EWMA for ``statement_class``, None
        until it has served one.  Called per candidate on every cost-routed
        read, so it builds nothing but the tuple and takes no lock: each read
        is atomic and an estimate needs no snapshot across the three.
        """
        return (
            self._service_time_ewma.get(statement_class),
            self._pending_requests,
            self.pool_pressure(),
        )

    # -- execution --------------------------------------------------------------------

    def execute_request(self, request: AbstractRequest) -> RequestResult:
        """Execute a read or write request on this backend.

        Autocommit requests borrow a pooled connection for the duration of the
        statement.  Requests inside a transaction run on the connection
        dedicated to that transaction, which is only created (and the
        transaction only begun) on the backend's first statement — lazy
        transaction begin.
        """
        self._request_started(request.is_read_only)
        statement_class = request.template.cost_class
        started = time.perf_counter()
        try:
            if request.transaction_id is None:
                connection = self.connection_manager.get_connection()
                try:
                    return self._execute_on(connection, request)
                finally:
                    self.connection_manager.release_connection(connection)
            connection = self._connection_for_transaction(request.transaction_id)
            return self._execute_on(connection, request)
        except DatabaseError as exc:
            with self._counters_lock:
                self.failures += 1
            raise BackendError(f"backend {self.name!r}: {exc}") from exc
        finally:
            self._request_finished(statement_class, time.perf_counter() - started)

    def execute_batch(self, request) -> RequestResult:
        """Execute every parameter set of a batch on a single connection.

        The batch counts as *one* request against this backend: one
        connection checkout (or the transaction's dedicated connection), one
        pending-request increment, and the parameter sets run back to back
        on that connection.  The returned update count aggregates all sets.
        Like JDBC batches, a mid-batch failure does not undo the sets that
        already executed in autocommit mode; inside a transaction the
        client's rollback covers them.
        """
        self._request_started(is_read=False)
        started = time.perf_counter()
        try:
            if request.transaction_id is None:
                connection = self.connection_manager.get_connection()
                try:
                    return self._execute_batch_on(connection, request)
                finally:
                    self.connection_manager.release_connection(connection)
            connection = self._connection_for_transaction(request.transaction_id)
            return self._execute_batch_on(connection, request)
        except DatabaseError as exc:
            with self._counters_lock:
                self.failures += 1
            raise BackendError(f"backend {self.name!r}: {exc}") from exc
        finally:
            self._request_finished(BATCH, time.perf_counter() - started)

    def _execute_batch_on(self, connection, request) -> RequestResult:
        # the native driver's executemany parses the template once and
        # re-executes the plan per set (and a nested controller forwards the
        # whole batch downstream), so per-row cost is execution only
        self._fault("executemany", request.sql)
        cursor = connection.cursor()
        cursor.executemany(request.sql, request.parameter_sets)
        total = cursor.rowcount
        with self._counters_lock:
            self.total_batches += 1
            self.total_batched_statements += len(request.parameter_sets)
        result = RequestResult(update_count=max(total, 0))
        result.backend_name = self.name
        return result

    def _execute_on(self, connection, request: AbstractRequest) -> RequestResult:
        self._fault("execute", request.sql)
        cursor = connection.cursor()
        cursor.execute(request.sql, request.parameters)
        description = cursor.description
        if description is None:
            return RequestResult(update_count=cursor.rowcount, backend_name=self.name)
        # the native driver's rows are the engine's tuples: kept as they are
        return RequestResult(
            columns=[column[0] for column in description],
            rows=cursor.fetchall(),
            backend_name=self.name,
        )

    # -- transaction management ----------------------------------------------------------

    def has_transaction(self, transaction_id: int) -> bool:
        with self._transaction_lock:
            return transaction_id in self._transaction_connections

    def _connection_for_transaction(self, transaction_id: int):
        with self._transaction_lock:
            connection = self._transaction_connections.get(transaction_id)
            if connection is None:
                self._fault("begin")
                connection = self.connection_manager.get_connection()
                connection.begin()
                self._transaction_connections[transaction_id] = connection
                self.total_transactions_begun += 1
            return connection

    def begin_transaction(self, transaction_id: int) -> None:
        """Eagerly start a transaction (used when lazy begin is disabled)."""
        self._connection_for_transaction(transaction_id)

    def commit(self, transaction_id: int) -> bool:
        """Commit ``transaction_id`` if it ever touched this backend.

        Returns True when a transaction was actually committed here.
        """
        with self._transaction_lock:
            connection = self._transaction_connections.pop(transaction_id, None)
        if connection is None:
            return False
        try:
            self._fault("commit")
            connection.commit()
        except DatabaseError as exc:
            with self._counters_lock:
                self.failures += 1
            raise BackendError(f"backend {self.name!r} commit failed: {exc}") from exc
        finally:
            self._restore_autocommit(connection)
            self.connection_manager.release_connection(connection)
        return True

    def rollback(self, transaction_id: int) -> bool:
        with self._transaction_lock:
            connection = self._transaction_connections.pop(transaction_id, None)
        if connection is None:
            return False
        try:
            self._fault("rollback")
            connection.rollback()
        except DatabaseError as exc:
            with self._counters_lock:
                self.failures += 1
            raise BackendError(f"backend {self.name!r} rollback failed: {exc}") from exc
        finally:
            self._restore_autocommit(connection)
            self.connection_manager.release_connection(connection)
        return True

    def abort_all_transactions(self) -> None:
        with self._transaction_lock:
            connections = dict(self._transaction_connections)
            self._transaction_connections.clear()
        for connection in connections.values():
            try:
                connection.rollback()
            except Exception:  # noqa: BLE001 - best effort during disable
                pass
            self._restore_autocommit(connection)
            self.connection_manager.release_connection(connection)

    @staticmethod
    def _restore_autocommit(connection) -> None:
        """Return a transaction connection to autocommit before pooling it.

        ``commit()``/``rollback()`` on a manual-commit connection re-open a
        transaction (the JDBC contract the driver follows).  Handing such a
        connection back to the pool poisons it: the next statement that
        borrows it for an autocommit request would silently run inside that
        open transaction and hold its table locks until the pool rotates it
        out — stalling every later write on the backend.  Chaos scenario
        workloads (mixed transactions + autocommit writes) surfaced this.

        The open transaction is rolled back, never committed: on the
        failure paths (an injected or real error raised before the
        connection's own commit/rollback ran) the transaction's writes are
        still pending, and setting ``autocommit = True`` directly would
        durably commit work the client was just told failed.  On the
        success paths the freshly re-opened transaction is empty, so the
        rollback is a no-op.
        """
        try:
            if getattr(connection, "autocommit", True) is False:
                try:
                    connection.rollback()
                except Exception:  # noqa: BLE001 - reset must be best-effort
                    pass
                connection.autocommit = True
        except Exception:  # noqa: BLE001 - a broken connection is the pool's problem
            pass

    @property
    def active_transactions(self) -> List[int]:
        with self._transaction_lock:
            return sorted(self._transaction_connections)

    # -- direct access (checkpointing / recovery) -----------------------------------------

    def raw_connection(self):
        """A connection outside of any pool bookkeeping, for admin tasks."""
        return self._connection_factory()

    def statistics(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "state": self.state.value,
            "weight": self.weight,
            "pending_requests": self.pending_requests,
            "total_requests": self.total_requests,
            "total_reads": self.total_reads,
            "total_writes": self.total_writes,
            "total_batches": self.total_batches,
            "total_batched_statements": self.total_batched_statements,
            "total_transactions": self.total_transactions_begun,
            "failures": self.failures,
            "pool_pressure": round(self.pool_pressure(), 4),
            "service_time_ewma_ms": {
                statement_class: round(seconds * 1000.0, 4)
                for statement_class, seconds in sorted(self.service_time_ewma.items())
            },
            "tables": sorted(self.tables),
            "last_known_checkpoint": self.last_known_checkpoint,
            "faults": (
                self._fault_injector.statistics()
                if self._fault_injector is not None
                else None
            ),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseBackend({self.name!r}, {self.state.value})"
