"""The request manager: the core of the C-JDBC controller (paper §2.4).

"The request manager contains the core functionality of the C-JDBC
controller.  It is composed of a scheduler, a load balancer and two optional
components: a recovery log and a query result cache.  Each of these
components can be superseded by a user-specified implementation."

The flow implemented here follows the paper:

* reads: scheduler → query result cache (on miss) → load balancer;
* writes / commits / aborts: scheduler (total order) → recovery log →
  load balancer broadcast → cache invalidation;
* a backend failing a write, commit or abort is disabled (no 2-phase
  commit); re-integration goes through the recovery subsystem;
* optimizations: parallel transactions (per-transaction backend
  connections), early response to update/commit/abort (wait-for-completion
  policy in the load balancer) and lazy transaction begin.

That flow is realised by the composable pipeline of
:mod:`repro.core.pipeline`: the entry points here (:meth:`execute`,
:meth:`execute_request`, :meth:`begin`, :meth:`commit`, :meth:`rollback`)
are thin shims that wrap the request in a
:class:`repro.core.pipeline.RequestContext` and run it through the stage
chain; the methods prefixed ``_execute_*_on_backends`` and the transaction
bookkeeping helpers are the stage callbacks.  Cross-cutting behaviour
(metrics, tracing, slow-query logging, rate limiting, ...) attaches as
interceptors on :attr:`pipeline` instead of being patched into this class.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.core.backend import DatabaseBackend
from repro.core.cache import ResultCache
from repro.core.loadbalancer.base import AbstractLoadBalancer
from repro.core.pipeline import (
    InterceptorSpec,
    MetricsInterceptor,
    Pipeline,
    RequestContext,
    build_interceptors,
)
from repro.core.recovery.recovery_log import RecoveryLog
from repro.core.request import (
    AbstractRequest,
    BatchWriteRequest,
    BeginRequest,
    CommitRequest,
    RequestResult,
    RollbackRequest,
)
from repro.core.requestparser import ParsedTemplate, RequestFactory
from repro.core.scheduler import AbstractScheduler, OptimisticTransactionLevelScheduler
from repro.errors import CJDBCError
from repro.planner import (
    SCATTER_GATHER,
    QueryPlanner,
    RoutePlan,
    RoutingConfig,
    ScatterGatherExecutor,
)


class PreparedStatementHandle:
    """Controller-side prepared statement: a parsed template bound to a manager.

    Obtained from :meth:`RequestManager.prepare` (or
    :meth:`repro.core.virtualdb.VirtualDatabase.prepare`); repeated
    executions instantiate requests straight from the template, skipping SQL
    classification and table extraction entirely — the statement is parsed
    once for the lifetime of the handle, not once per execution.
    """

    __slots__ = ("_manager", "sql", "template")

    def __init__(self, manager: "RequestManager", sql: str, template: ParsedTemplate):
        self._manager = manager
        self.sql = sql
        self.template = template

    @property
    def is_write(self) -> bool:
        """True for INSERT/UPDATE/DELETE — the statements that can batch."""
        return self.template.is_write

    @property
    def is_read_only(self) -> bool:
        return self.template.is_read_only

    @property
    def tables(self):
        return self.template.tables

    def execute(
        self,
        parameters: Sequence[object] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        request = self.template.instantiate(parameters, login, transaction_id)
        return self._manager.execute_request(request)

    def execute_batch(
        self,
        parameter_sets: Sequence[Sequence[object]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        """Run every parameter set through the pipeline as one batch.

        Non-write templates and empty batches are rejected by
        :meth:`ParsedTemplate.instantiate_batch`.
        """
        request = self.template.instantiate_batch(parameter_sets, login, transaction_id)
        return self._manager.execute_request(request)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        text = self.sql if len(self.sql) <= 60 else self.sql[:57] + "..."
        return f"PreparedStatementHandle({text!r})"


#: upper bounds of the ``statements_per_batch`` histogram buckets
_BATCH_HISTOGRAM_BOUNDS = (1, 4, 16, 64, 256, 1024)


def _batch_histogram_bucket(size: int) -> str:
    lower = 1
    for bound in _BATCH_HISTOGRAM_BOUNDS:
        if size <= bound:
            return str(bound) if bound == lower else f"{lower}-{bound}"
        lower = bound + 1
    return f">{_BATCH_HISTOGRAM_BOUNDS[-1]}"


@dataclass
class TransactionContext:
    """Controller-side state of one client transaction."""

    transaction_id: int
    login: str
    begun: bool = False
    #: backends that have started this transaction (lazy transaction begin)
    participating_backends: List[str] = field(default_factory=list)


class RequestManager:
    """Schedules, caches, balances, logs and executes client requests."""

    def __init__(
        self,
        backends: Sequence[DatabaseBackend],
        scheduler: Optional[AbstractScheduler] = None,
        load_balancer: Optional[AbstractLoadBalancer] = None,
        result_cache: Optional[ResultCache] = None,
        recovery_log: Optional[RecoveryLog] = None,
        request_factory: Optional[RequestFactory] = None,
        lazy_transaction_begin: bool = True,
        interceptors: Sequence[InterceptorSpec] = (),
        routing: Optional[RoutingConfig] = None,
    ):
        from repro.core.loadbalancer import RAIDb1LoadBalancer  # avoid import cycle

        self._backends = list(backends)
        self._backends_by_name: Dict[str, DatabaseBackend] = {
            backend.name: backend for backend in self._backends
        }
        #: cached list of enabled backends, dropped whenever a backend is
        #: added/removed or changes state (see _on_backend_state_change); the
        #: version counter prevents a concurrent state change during snapshot
        #: computation from being masked by the stale result being published
        self._enabled_snapshot: Optional[List[DatabaseBackend]] = None
        self._backends_version = 0
        self._snapshot_lock = threading.Lock()
        for backend in self._backends:
            backend.add_state_listener(self._on_backend_state_change)
        self.scheduler = scheduler or OptimisticTransactionLevelScheduler()
        self.load_balancer = load_balancer or RAIDb1LoadBalancer()
        self.result_cache = result_cache
        self.recovery_log = recovery_log
        self.request_factory = request_factory or RequestFactory()
        self.lazy_transaction_begin = lazy_transaction_begin
        self._transactions: Dict[int, TransactionContext] = {}
        self._transactions_lock = threading.RLock()
        self._transaction_ids = itertools.count(1)
        self.load_balancer.on_backend_failure = self._handle_backend_failure
        self.load_balancer.on_backend_read_failure = self._handle_backend_read_failure
        #: the query planner turning each read/write into an explicit
        #: RoutePlan before load balancing (the pipeline's ``plan`` stage)
        self.planner = QueryPlanner(self, routing or RoutingConfig())
        self.scatter_executor = ScatterGatherExecutor(self)
        self.load_balancer.cost_estimator = self.planner.cost_estimator
        self.load_balancer.on_placement_change = self.planner.invalidate
        #: optional listener invoked with the disabled backend (used by the
        #: virtual database to log and by tests to observe failover)
        self.on_backend_disabled: Optional[Callable[[DatabaseBackend, Exception], None]] = None
        #: optional :class:`repro.core.failover.FailureDetector` owning the
        #: disable decision; installed by the virtual database.  Without one
        #: the manager falls back to the paper's bare rule: any write-path
        #: failure disables the backend immediately.
        self.failure_detector = None
        # statistics
        self.transactions_started = 0
        self.transactions_committed = 0
        self.transactions_aborted = 0
        #: transactions re-run by run_in_transaction after an MVCC conflict
        self.serialization_retries = 0
        self.batches_executed = 0
        self.statements_batched = 0
        #: bucket label -> number of batches whose size fell in the bucket
        self._batch_histogram: Dict[str, int] = {}
        self._stats_lock = threading.Lock()
        # the execution pipeline; the metrics interceptor is always installed
        # (it carries the per-request-type counters behind requests_executed)
        built = build_interceptors(interceptors)
        self.metrics = next(
            (i for i in built if isinstance(i, MetricsInterceptor)), None
        )
        if self.metrics is None:
            self.metrics = MetricsInterceptor()
        else:
            built.remove(self.metrics)
        # metrics always sits first so its after hook runs for every request,
        # including those rejected by interceptors further down the list
        built.insert(0, self.metrics)
        self.pipeline = Pipeline(self, interceptors=built)

    # -- backend management ----------------------------------------------------------

    @property
    def backends(self) -> List[DatabaseBackend]:
        return list(self._backends)

    def add_backend(self, backend: DatabaseBackend) -> None:
        if backend.name in self._backends_by_name:
            raise CJDBCError(f"backend {backend.name!r} already registered")
        self._backends.append(backend)
        self._backends_by_name[backend.name] = backend
        backend.add_state_listener(self._on_backend_state_change)
        self._drop_enabled_snapshot()

    def remove_backend(self, backend_name: str) -> None:
        removed = self._backends_by_name.pop(backend_name, None)
        if removed is not None:
            removed.remove_state_listener(self._on_backend_state_change)
        self._backends = [b for b in self._backends if b.name != backend_name]
        self._drop_enabled_snapshot()

    def get_backend(self, backend_name: str) -> DatabaseBackend:
        backend = self._backends_by_name.get(backend_name)
        if backend is None:
            raise CJDBCError(f"unknown backend {backend_name!r}")
        return backend

    def _on_backend_state_change(self, backend: DatabaseBackend) -> None:
        self._drop_enabled_snapshot()

    def _drop_enabled_snapshot(self) -> None:
        with self._snapshot_lock:
            self._backends_version += 1
            self._enabled_snapshot = None
        # cached route plans pin candidate sets against a membership version;
        # getattr guards the state-listener path during construction
        planner = getattr(self, "planner", None)
        if planner is not None:
            planner.invalidate()

    def enabled_backends(self) -> List[DatabaseBackend]:
        with self._snapshot_lock:
            version = self._backends_version
            snapshot = self._enabled_snapshot
        if snapshot is None:
            snapshot = [backend for backend in self._backends if backend.is_enabled]
            with self._snapshot_lock:
                # publish only if no membership/state change raced the filter
                if self._backends_version == version:
                    self._enabled_snapshot = snapshot
        # callers get a copy so the cached snapshot cannot be mutated
        return list(snapshot)

    def _handle_backend_failure(self, backend: DatabaseBackend, exc: Exception) -> None:
        """Disable a backend that failed a write/commit/abort (paper §2.4.1)."""
        detector = self.failure_detector
        if detector is not None:
            # the detector inserts the failover marker, disables, notifies
            # on_backend_disabled and kicks off resynchronization
            detector.record_write_failure(backend, exc)
            return
        backend.disable()
        if self.on_backend_disabled is not None:
            self.on_backend_disabled(backend, exc)

    def _handle_backend_read_failure(self, backend: DatabaseBackend, exc: Exception) -> None:
        """Count a read failure against the detector's error threshold."""
        detector = self.failure_detector
        if detector is not None:
            detector.record_read_failure(backend, exc)

    # -- statement entry point ----------------------------------------------------------

    def execute(
        self,
        sql: str,
        parameters: Sequence[object] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        """Parse and execute one SQL statement."""
        request = self.request_factory.create_request(
            sql, parameters, login=login, transaction_id=transaction_id
        )
        context = RequestContext(request, manager=self)
        self.pipeline.execute(context)
        return context.result

    def execute_request(self, request: AbstractRequest) -> RequestResult:
        """Run one request through the execution pipeline."""
        context = RequestContext(request, manager=self)
        self.pipeline.execute(context)
        return context.result

    def prepare(self, sql: str) -> PreparedStatementHandle:
        """Parse ``sql`` once and return a reusable statement handle."""
        return PreparedStatementHandle(self, sql, self.request_factory.get_template(sql))

    def explain(self, sql: str, login: str = "") -> RoutePlan:
        """Plan ``sql`` against live placement and costs without executing it.

        Powers the console ``explain`` command and the driver's ``EXPLAIN
        ROUTE`` prefix; always builds a fresh plan (bypassing the template
        plan cache) so the output reflects this instant's estimates.
        """
        request = self.request_factory.create_request(sql, login=login)
        return self.planner.explain(request)

    def execute_batch(
        self,
        sql: str,
        parameter_sets: Sequence[Sequence[object]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> RequestResult:
        """Execute one write template with N parameter sets as a single batch.

        The batch traverses the pipeline once: one scheduler ticket, one
        recovery-log group entry, one cache-invalidation pass, and one
        broadcast task per backend executing all N sets on one connection.
        """
        request = self.request_factory.create_batch_request(
            sql, parameter_sets, login=login, transaction_id=transaction_id
        )
        return self.execute_request(request)

    # -- stage callbacks (invoked by the pipeline's load-balance stage) ----------------

    def _execute_read_on_backends(self, context: RequestContext) -> RequestResult:
        request, plan = context.request, context.route_plan
        if plan is not None and plan.kind == SCATTER_GATHER:
            result = self.scatter_executor.execute(request, plan)
        else:
            result = self.load_balancer.execute_read_request(
                request, self._backends, plan
            )
        self._note_transaction_participant(request)
        context.backend_name = result.backend_name
        return result

    def _execute_write_on_backends(self, context: RequestContext) -> RequestResult:
        request = context.request
        outcome = self.load_balancer.execute_write_request(
            request, self._backends, context.route_plan
        )
        if request.alters_schema:
            for backend in self.enabled_backends():
                if backend.name in outcome.successes:
                    backend.note_ddl(request)
            # the schema just changed under every cached plan
            self.planner.invalidate()
        self._note_transaction_participant(request)
        result = outcome.result
        result.backends_executed = outcome.backends_executed
        context.backends_executed = outcome.backends_executed
        return result

    def _execute_batch_on_backends(self, context: RequestContext) -> RequestResult:
        request: BatchWriteRequest = context.request
        outcome = self.load_balancer.execute_batch_request(
            request, self._backends, context.route_plan
        )
        self._note_transaction_participant(request)
        result = outcome.result
        result.backends_executed = outcome.backends_executed
        context.backends_executed = outcome.backends_executed
        batch_size = request.batch_size
        bucket = _batch_histogram_bucket(batch_size)
        with self._stats_lock:
            self.batches_executed += 1
            self.statements_batched += batch_size
            self._batch_histogram[bucket] = self._batch_histogram.get(bucket, 0) + 1
        return result

    def _execute_begin_on_backends(self, context: RequestContext) -> RequestResult:
        transaction_id = context.transaction_id
        if not self.lazy_transaction_begin:
            self.load_balancer.broadcast_transaction_operation(
                self.enabled_backends(),
                lambda backend: backend.begin_transaction(transaction_id),
            )
        return RequestResult(update_count=0, transaction_id=transaction_id)

    def _execute_commit_on_backends(self, context: RequestContext) -> RequestResult:
        transaction_id = context.request.transaction_id
        participants = self._participants(transaction_id)
        if participants:
            self.load_balancer.broadcast_transaction_operation(
                participants, lambda backend: backend.commit(transaction_id)
            )
        with self._stats_lock:
            self.transactions_committed += 1
        return RequestResult(update_count=0)

    def _execute_rollback_on_backends(self, context: RequestContext) -> RequestResult:
        transaction_id = context.request.transaction_id
        participants = self._participants(transaction_id)
        if participants:
            self.load_balancer.broadcast_transaction_operation(
                participants, lambda backend: backend.rollback(transaction_id)
            )
        with self._stats_lock:
            self.transactions_aborted += 1
        return RequestResult(update_count=0)

    def _note_transaction_participant(self, request: AbstractRequest) -> None:
        if request.transaction_id is None:
            return
        with self._transactions_lock:
            context = self._transactions.get(request.transaction_id)
            if context is None:
                return
            for backend in self._backends:
                if (
                    backend.has_transaction(request.transaction_id)
                    and backend.name not in context.participating_backends
                ):
                    context.participating_backends.append(backend.name)

    # -- transaction demarcation -------------------------------------------------------------

    def begin(self, login: str = "", transaction_id: Optional[int] = None) -> int:
        """Start a transaction and return its identifier.

        With lazy transaction begin (default), no backend work happens here:
        each backend will open its transaction when it executes the first
        statement of this transaction (paper §2.4.4).  When the optimization
        is disabled, the begin is broadcast to every enabled backend
        immediately, as described in §2.4.1.

        ``transaction_id`` may be supplied by a distributed request manager so
        that every controller of a replicated virtual database uses the same
        identifier for a given client transaction (paper §4.1).
        """
        request = BeginRequest(sql="begin", login=login)
        context = RequestContext(request, manager=self)
        context.requested_transaction_id = transaction_id
        self.pipeline.execute(context)
        return context.result.transaction_id

    def commit(self, transaction_id: int, login: str = "") -> None:
        """Commit on every backend that participated in the transaction."""
        request = CommitRequest(sql="commit", login=login, transaction_id=transaction_id)
        self.pipeline.execute(RequestContext(request, manager=self))

    def rollback(self, transaction_id: int, login: str = "") -> None:
        """Abort on every backend that participated in the transaction."""
        request = RollbackRequest(sql="rollback", login=login, transaction_id=transaction_id)
        self.pipeline.execute(RequestContext(request, manager=self))

    def run_in_transaction(
        self,
        operation: Callable[[int], object],
        login: str = "",
        retry_policy=None,
    ):
        """Run ``operation(transaction_id)`` inside a transaction, retrying
        serialization conflicts.

        The MVCC scheduler aborts first-committer-wins losers with
        :class:`~repro.errors.SerializationConflictError` *before* the
        conflicting statement or commit reaches any backend, so the whole
        transaction can safely be rolled back and re-run.  ``retry_policy``
        (a :class:`~repro.core.retry.RetryPolicy`; a default one is used when
        omitted) bounds the attempts and paces them with its backoff/jitter
        schedule.  Conflicts under other schedulers simply never occur, so
        the operation runs exactly once there.
        """
        import time as _time

        from repro.core.retry import RetryPolicy
        from repro.errors import SerializationConflictError

        policy = retry_policy or RetryPolicy()
        rng = policy.rng()
        last_exc: Optional[Exception] = None
        for attempt in range(policy.max_attempts):
            if attempt:
                _time.sleep(policy.delay(attempt, rng))
                with self._stats_lock:
                    self.serialization_retries += 1
            transaction_id = self.begin(login=login)
            try:
                outcome = operation(transaction_id)
            except SerializationConflictError as exc:
                last_exc = exc
                self._rollback_quietly(transaction_id, login)
                continue
            except BaseException:
                self._rollback_quietly(transaction_id, login)
                raise
            try:
                self.commit(transaction_id, login=login)
            except SerializationConflictError as exc:
                last_exc = exc
                self._rollback_quietly(transaction_id, login)
                continue
            return outcome
        raise last_exc

    def _rollback_quietly(self, transaction_id: int, login: str) -> None:
        try:
            self.rollback(transaction_id, login=login)
        except CJDBCError:
            pass

    def _register_transaction(
        self, login: str, transaction_id: Optional[int] = None
    ) -> int:
        """Allocate (or adopt) a transaction id and register its context."""
        if transaction_id is None:
            transaction_id = next(self._transaction_ids)
        context = TransactionContext(transaction_id=transaction_id, login=login, begun=True)
        with self._transactions_lock:
            self._transactions[transaction_id] = context
        with self._stats_lock:
            self.transactions_started += 1
        return transaction_id

    def _participants(self, transaction_id: int) -> List[DatabaseBackend]:
        return [
            backend
            for backend in self._backends
            if backend.is_enabled and backend.has_transaction(transaction_id)
        ]

    def _pop_transaction(self, transaction_id: int) -> Optional[TransactionContext]:
        with self._transactions_lock:
            return self._transactions.pop(transaction_id, None)

    @property
    def active_transactions(self) -> List[int]:
        with self._transactions_lock:
            return sorted(self._transactions)

    # -- recovery support -------------------------------------------------------------------

    def replay_log_entries(self, backend: DatabaseBackend, entries) -> None:
        """Replay recovery-log entries on one backend (used by recovery).

        Transactions are replayed faithfully: begin/commit/rollback entries
        drive per-transaction connections on the backend, and a statement
        joins its transaction when the backend holds it open (its begin was
        replayed), so a replay may stop anywhere and a later one resumes.
        ``batch`` group entries replay atomically as one server-side batch
        on the backend (one connection, every parameter set), mirroring how
        they originally executed.  Transactions left open at the end are
        settled by :meth:`settle_replayed_transactions`.
        """
        demarcation = {
            "begin": backend.begin_transaction,
            "commit": backend.commit,
            "rollback": backend.rollback,
        }
        for entry in entries:
            transaction_id = entry.transaction_id
            if entry.entry_type == "checkpoint":
                continue
            if entry.entry_type in demarcation:
                if transaction_id is not None:
                    demarcation[entry.entry_type](transaction_id)
                continue
            if transaction_id is not None and not backend.has_transaction(transaction_id):
                transaction_id = None
            if entry.entry_type == "batch":
                backend.execute_batch(
                    self.request_factory.create_batch_request(
                        entry.sql,
                        entry.parameter_sets,
                        login=entry.login,
                        transaction_id=transaction_id,
                    )
                )
                continue
            backend.execute_request(
                self.request_factory.create_request(
                    entry.sql, entry.parameters, login=entry.login, transaction_id=transaction_id
                )
            )

    def settle_replayed_transactions(self, backend: DatabaseBackend) -> None:
        """Decide the transactions a replay left open on ``backend``.

        One this manager still tracks belongs to a live client: it stays
        open, the backend is a participant, and the client's own COMMIT or
        ROLLBACK reaches it through the normal broadcast.  Any other has a
        ``begin`` in the log and no outcome — it never committed — and is
        rolled back, so it cannot hold engine locks on the recovered
        backend.  Call it with the log fully replayed and no commit in
        flight (under the write barrier).
        """
        tracked = set(self.active_transactions)
        for transaction_id in backend.active_transactions:
            if transaction_id not in tracked:
                backend.rollback(transaction_id)

    # -- statistics ---------------------------------------------------------------------------

    @property
    def requests_executed(self) -> int:
        """Total requests processed by the pipeline (all categories).

        Kept for backward compatibility; the per-category breakdown lives on
        the ``metrics`` interceptor (``statistics()["requests"]``).
        """
        return self.metrics.total_requests

    def batch_statistics(self) -> dict:
        """Server-side batching counters and the batch-size histogram."""
        with self._stats_lock:
            return {
                "batches_executed": self.batches_executed,
                "statements_batched": self.statements_batched,
                "statements_per_batch": dict(self._batch_histogram),
            }

    def statistics(self) -> dict:
        stats = {
            "requests_executed": self.requests_executed,
            "requests": self.metrics.statistics(),
            "pipeline": self.pipeline.statistics(),
            "batches": self.batch_statistics(),
            "transactions_started": self.transactions_started,
            "transactions_committed": self.transactions_committed,
            "transactions_aborted": self.transactions_aborted,
            "serialization_retries": self.serialization_retries,
            "active_transactions": len(self.active_transactions),
            "scheduler": self.scheduler.statistics(),
            "load_balancer": self.load_balancer.statistics(),
            "planner": self.planner.statistics(),
            "scatter_gather": self.scatter_executor.statistics(),
            "backends": [backend.statistics() for backend in self._backends],
        }
        if self.failure_detector is not None:
            stats["failure_detector"] = self.failure_detector.statistics()
        if self.recovery_log is not None:
            recorded, floor = len(self.recovery_log), self.recovery_log.floor
            stats["recovery_log"] = dict(recorded=recorded, retained=recorded - floor, floor=floor)
        if self.result_cache is not None:
            stats["cache"] = self.result_cache.statistics.as_dict()
        parsing_cache = getattr(self.request_factory, "parsing_cache", None)
        if parsing_cache is not None:
            stats["parsing_cache"] = parsing_cache.as_dict()
        return stats
