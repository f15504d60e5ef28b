"""Composable request execution pipeline (the controller's middleware stack).

The paper describes the C-JDBC controller as a stack of cooperating stages —
scheduler, query result cache, load balancer, recovery log (§2.4, Figure 1).
This module makes that stack *explicit*: every client request flows through
an ordered chain of :class:`Stage` objects as a :class:`RequestContext`, and
cross-cutting concerns (tracing, metrics, slow-query logging, rate limiting)
attach as :class:`Interceptor` objects that wrap the whole chain with
before/after hooks, observe the context, or short-circuit execution.

Stage order (each request category runs only the stages that do something
for it — see the table below)::

    classify ─ authenticate ─ schedule ─ cache-lookup ─ transaction
        ─ recovery-log ─ cache-invalidate ─ plan ─ load-balance

* **classify** validates transaction demarcation (the category itself —
  read/write/batch/begin/commit/rollback — is derived by
  :meth:`Pipeline.execute` from the request's class, to pick the chain);
* **authenticate** resolves the virtual login against the authentication
  manager when one is attached to the pipeline;
* **schedule** acquires the scheduler ticket appropriate for the category
  and *guarantees* its release on every exit path (success, short-circuit
  below it, or exception);
* **cache-lookup** serves cacheable reads from the result cache
  (short-circuiting the rest of the chain on a hit) and stores the result
  on a miss;
* **transaction** allocates/derives the transaction id for ``BEGIN`` and
  pops the controller-side transaction context for ``COMMIT``/``ROLLBACK``;
* **recovery-log** records writes and demarcation before they reach any
  backend, so recovery can replay them;
* **cache-invalidate** runs result-cache invalidation after a successful
  write;
* **plan** asks the query planner for the request's
  :class:`~repro.planner.plan.RoutePlan` (template-cached, so repeated
  statement shapes skip planning);
* **load-balance** is the terminal stage: it executes the route plan — one
  backend for reads (scatter-gather for multi-table reads over disjoint
  RAIDb-2 partitions), broadcast for writes — or broadcasts demarcation to
  the participating backends.

The stage list is *compiled once per request category*: each stage
contributes a closure wrapping the next, or nothing at all when it has no
work for that category, and :meth:`Pipeline.execute` looks the request's
category up by class and calls that category's chain.  With the default
stages and a transparent authentication manager the six chains are::

    read            schedule ─ cache-lookup ─ plan ─ load-balance
    write, batch    schedule ─ recovery-log ─ cache-invalidate ─ plan
                        ─ load-balance
    begin           transaction ─ recovery-log ─ load-balance
                        (schedule first when lazy begin is off)
    commit,         classify ─ schedule ─ transaction ─ recovery-log
      rollback          ─ load-balance

(an enforcing authentication manager puts **authenticate** in front of
**schedule** in all six).  There is one mechanism, not a general chain plus
a special-cased copy: tracing, a custom stage list or an enforcing login
check change which closures are in a chain, never which code path runs.
Steady-state execution allocates nothing beyond the context object.

Interceptors are declaratively configurable: a cluster descriptor's
``interceptors:`` section names built-ins from :data:`BUILTIN_INTERCEPTORS`
(``tracing``, ``slow_query_log``, ``metrics``, ``rate_limit``) with their
options; :func:`build_interceptor` validates names and options so
``check-config`` can reject typos before a cluster boots.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.request import (
    AbstractRequest,
    BatchWriteRequest,
    BeginRequest,
    CommitRequest,
    DDLRequest,
    RequestResult,
    RollbackRequest,
    RequestType,
    SelectRequest,
    WriteRequest,
)
from repro.errors import CJDBCError, ConfigurationError, RateLimitExceededError

#: request categories flowed through the pipeline (string constants rather
#: than an Enum: identity comparison on interned strings is the hot path)
READ = "read"
WRITE = "write"
BATCH = "batch"
BEGIN = "begin"
COMMIT = "commit"
ROLLBACK = "rollback"
#: every category; the pipeline compiles one stage chain for each
CATEGORIES = (READ, WRITE, BATCH, BEGIN, COMMIT, ROLLBACK)

_CATEGORY_BY_TYPE = {
    RequestType.SELECT: READ,
    RequestType.WRITE: WRITE,
    RequestType.DDL: WRITE,
    RequestType.BEGIN: BEGIN,
    RequestType.COMMIT: COMMIT,
    RequestType.ROLLBACK: ROLLBACK,
}

#: fast path for the concrete request classes; subclasses fall back to the
#: request_type property lookup above
_CATEGORY_BY_CLASS = {
    SelectRequest: READ,
    WriteRequest: WRITE,
    BatchWriteRequest: BATCH,
    DDLRequest: WRITE,
    BeginRequest: BEGIN,
    CommitRequest: COMMIT,
    RollbackRequest: ROLLBACK,
}


class RequestContext:
    """Everything the pipeline knows about one in-flight request.

    The context is created by the request manager, threaded through every
    stage and interceptor, and read back for the final result.  Interceptors
    may stash private state in :attr:`data` (keyed by interceptor name).

    Construction is on the hottest path the controller has, so every field
    except the request itself defaults at class level and is only written
    when a stage actually sets it.
    """

    #: one of CATEGORIES, set by Pipeline.execute once the before hooks pass
    category: Optional[str] = None
    result: Optional[RequestResult] = None
    error: Optional[BaseException] = None
    #: pipeline entry/exit clocks; 0.0 unless a timing interceptor is installed
    started_at: float = 0.0
    finished_at: float = 0.0
    #: scheduler ticket held while the request executes (schedule stage)
    ticket = None
    #: "hit" | "miss" | "bypass" — how the result cache saw this request
    cache_verdict: str = "bypass"
    backend_name: Optional[str] = None
    backends_executed: int = 0
    #: transaction id allocated for a BEGIN (reads/writes use request.transaction_id)
    transaction_id: Optional[int] = None
    #: id supplied by a distributed request manager for BEGIN (§4.1)
    requested_transaction_id: Optional[int] = None
    #: name of the stage or interceptor that ended execution early
    short_circuited_by: Optional[str] = None
    #: RoutePlan built by the plan stage (reads/writes/batches only)
    route_plan = None
    #: per-stage seconds, populated only when the pipeline is timed
    stage_timings: Optional[Dict[str, float]] = None
    _data: Optional[Dict[str, Any]] = None

    def __init__(self, request: AbstractRequest, manager=None):
        self.request = request
        self.manager = manager

    @property
    def data(self) -> Dict[str, Any]:
        """Scratch space for interceptors, keyed by interceptor name (lazy)."""
        scratch = self._data
        if scratch is None:
            scratch = self._data = {}
        return scratch

    @property
    def duration(self) -> float:
        """Wall-clock seconds from pipeline entry to completion."""
        return max(0.0, self.finished_at - self.started_at)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestContext({self.category or '?'}, {self.request!r},"
            f" cache={self.cache_verdict})"
        )


Handler = Callable[[RequestContext], None]


# ---------------------------------------------------------------------------
# stages
# ---------------------------------------------------------------------------


class Stage:
    """One step of the execution chain.

    A stage *compiles*, once per request category, into a handler closing
    over the request manager and the rest of that category's chain: work
    before ``proceed(context)`` happens on the way in (in stage order), work
    after it happens on the way out (in reverse order), and ``try/finally``
    around ``proceed`` gives guaranteed cleanup.  A stage with nothing to do
    for a category returns ``proceed`` itself: it then costs that category
    no frame and leaves no span in ``stage_timings``.  Stages that keep no
    per-request state are shared by every request, so they must not store
    anything on ``self`` at run time.
    """

    name = "stage"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        raise NotImplementedError


class ClassifyStage(Stage):
    """Validate transaction demarcation for the request's category.

    The category itself is derived by :meth:`Pipeline.execute`, which needs
    it to pick the chain; what is left to check here is that a ``COMMIT`` or
    ``ROLLBACK`` names the transaction it ends.
    """

    name = "classify"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is not COMMIT and category is not ROLLBACK:
            return proceed
        message = f"{category.upper()} outside of a transaction"

        def classify(context: RequestContext) -> None:
            if context.request.transaction_id is None:
                raise CJDBCError(message)
            proceed(context)

        return classify


class AuthenticateStage(Stage):
    """Check the request's virtual login when authentication is enforced.

    The C-JDBC driver authenticates once, when the connection opens; this
    stage re-validates per request only when the pipeline was built with a
    non-transparent authentication manager, so middleware deployments that
    accept raw requests (no driver handshake) still reject unknown logins.
    """

    name = "authenticate"

    def __init__(self, authentication_manager=None):
        self.authentication_manager = authentication_manager

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        auth = self.authentication_manager
        if auth is None or getattr(auth, "transparent", True):
            return proceed

        def authenticate(context: RequestContext) -> None:
            login = context.request.login
            if login and login not in auth.virtual_logins:
                from repro.errors import AuthenticationError

                raise AuthenticationError(f"unknown virtual login {login!r}")
            proceed(context)

        return authenticate


class ScheduleStage(Stage):
    """Acquire the scheduler ticket; release it on *every* exit path.

    Whether ``BEGIN`` is lazy is read from the manager when the chains
    compile, like the authenticate stage's manager: it is fixed at
    construction, and a lazy ``BEGIN`` then has no schedule stage at all.
    """

    name = "schedule"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is BEGIN and manager.lazy_transaction_begin:
            # lazy begin does no backend work: nothing to order (§2.4.4)
            return proceed
        reads = category is READ

        def schedule(context: RequestContext) -> None:
            scheduler = manager.scheduler
            if reads:
                ticket = scheduler.schedule_read(context.request)
            else:
                ticket = scheduler.schedule_write(context.request)
            context.ticket = ticket
            try:
                proceed(context)
            finally:
                ticket.release()

        return schedule


class CacheLookupStage(Stage):
    """Serve cacheable reads from the result cache; store misses."""

    name = "cache_lookup"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is not READ:
            return proceed

        def cache_lookup(context: RequestContext) -> None:
            cache = manager.result_cache
            request = context.request
            if cache is None or request.transaction_id is not None:
                proceed(context)
                return
            cached = cache.get(request)
            if cached is not None:
                context.cache_verdict = "hit"
                context.short_circuited_by = self.name
                context.result = cached
                return
            context.cache_verdict = "miss"
            proceed(context)
            if context.result is not None:
                # hand the client the same tuple-frozen row shape later
                # cache hits will see, never list rows on the miss only
                context.result = cache.put(request, context.result)

        return cache_lookup


class TransactionStage(Stage):
    """Controller-side transaction bookkeeping around demarcation requests."""

    name = "transaction"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is BEGIN:

            def transaction(context: RequestContext) -> None:
                context.transaction_id = manager._register_transaction(
                    context.request.login, context.requested_transaction_id
                )
                proceed(context)

        elif category is COMMIT or category is ROLLBACK:

            def transaction(context: RequestContext) -> None:
                manager._pop_transaction(context.request.transaction_id)
                proceed(context)

        else:
            return proceed
        return transaction


#: category -> what the recovery log records for it (reads are not logged)
_LOG_ENTRY_WRITERS: Dict[str, Callable[[Any, AbstractRequest, RequestContext], Any]] = {
    WRITE: lambda log, request, context: log.log_request(
        request.sql, request.parameters, request.login, request.transaction_id
    ),
    # one replayable group entry for the whole batch: recovery re-executes
    # it as a single server-side batch too
    BATCH: lambda log, request, context: log.log_batch(
        request.sql, request.parameter_sets, request.login, request.transaction_id
    ),
    BEGIN: lambda log, request, context: log.log_begin(
        request.login, context.transaction_id
    ),
    COMMIT: lambda log, request, context: log.log_commit(
        request.login, request.transaction_id
    ),
    ROLLBACK: lambda log, request, context: log.log_rollback(
        request.login, request.transaction_id
    ),
}


class RecoveryLogStage(Stage):
    """Record writes and demarcation in the recovery log before execution."""

    name = "recovery_log"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is READ:
            return proceed
        write_entry = _LOG_ENTRY_WRITERS[category]

        def recovery_log(context: RequestContext) -> None:
            log = manager.recovery_log
            if log is not None:
                write_entry(log, context.request, context)
            proceed(context)

        return recovery_log


class CacheInvalidateStage(Stage):
    """Invalidate result-cache entries after a successful write."""

    name = "cache_invalidate"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is not WRITE and category is not BATCH:
            return proceed

        def cache_invalidate(context: RequestContext) -> None:
            proceed(context)
            cache = manager.result_cache
            if cache is not None:
                # for a batch this is ONE pass over the union of written
                # tables (request.tables), not one pass per parameter set
                cache.invalidate(context.request)

        return cache_invalidate


class PlanStage(Stage):
    """Build (or fetch from the template cache) the request's route plan.

    Runs only for the categories the planner routes — reads, writes and
    batches; transaction demarcation goes straight to the balancer.  Cache
    hits never reach this stage (the cache-lookup stage short-circuits
    above it), so warm-cache reads pay no planning cost at all.
    """

    name = "plan"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        if category is not READ and category is not WRITE and category is not BATCH:
            return proceed

        def plan(context: RequestContext) -> None:
            context.route_plan = manager.planner.plan_for_request(context.request)
            proceed(context)

        return plan


class LoadBalanceStage(Stage):
    """Terminal stage: execute on the backends through the load balancer."""

    name = "load_balance"

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        # one RequestManager callback per category: _execute_read_on_backends,
        # _execute_write_on_backends, ... _execute_rollback_on_backends
        execute = getattr(manager, f"_execute_{category}_on_backends")

        def load_balance(context: RequestContext) -> None:
            context.result = execute(context)

        return load_balance


#: default stage chain, in execution order
def default_stages(authentication_manager=None) -> List[Stage]:
    return [
        ClassifyStage(),
        AuthenticateStage(authentication_manager),
        ScheduleStage(),
        CacheLookupStage(),
        TransactionStage(),
        RecoveryLogStage(),
        CacheInvalidateStage(),
        PlanStage(),
        LoadBalanceStage(),
    ]


# ---------------------------------------------------------------------------
# interceptors
# ---------------------------------------------------------------------------


class Interceptor:
    """A cross-cutting hook wrapped around the whole stage chain.

    ``before`` runs on the way in (interceptor order); returning a
    :class:`RequestResult` short-circuits everything below, and raising
    rejects the request.  ``after`` runs on the way out in reverse order,
    whatever happened below — success, cache short-circuit or error (the
    error, if any, is on ``context.error``) — for every interceptor *at or
    before the one that ended execution*: when an interceptor's ``before``
    rejects or short-circuits, interceptors positioned after it were never
    entered and their ``after`` hooks are skipped, exactly like stages below
    a short-circuit (so order interceptors that must see every request,
    e.g. audit, before gating ones like ``rate_limit``).  Set
    :attr:`needs_timing` to make the pipeline stamp
    ``context.started_at``/``finished_at`` (so ``context.duration`` is
    meaningful), and :attr:`needs_stage_timings` to additionally record
    per-stage durations in ``context.stage_timings``.
    """

    name = "interceptor"
    #: request True to get wall-clock stamps on the context (duration)
    needs_timing = False
    #: request True to additionally get per-stage timings (implies timing)
    needs_stage_timings = False

    def before(self, context: RequestContext) -> Optional[RequestResult]:
        return None

    def after(self, context: RequestContext) -> None:
        return None

    def statistics(self) -> dict:
        return {}


class MetricsInterceptor(Interceptor):
    """Per-request-type counters: the controller's primary request metrics.

    Replaces the old single ``requests_executed`` counter with a breakdown
    by category plus cache hits and errors; totals are derived, never
    double-counted.

    The counters are *thread-striped*: each thread increments its own
    per-thread dict (no lock, no contention on the hot path) and readers
    sum the stripes under a lock, so counts stay exact under concurrency
    without taxing every request.  A dead thread's stripe is folded into a
    base counter when its Thread object is collected, so thread churn does
    not grow the stripe list without bound.
    """

    name = "metrics"

    _COUNTER_BY_CATEGORY = {
        READ: "reads",
        WRITE: "writes",
        BATCH: "batches",
        BEGIN: "begins",
        COMMIT: "commits",
        ROLLBACK: "rollbacks",
    }
    _FIELDS = (
        "reads",
        "writes",
        "batches",
        "begins",
        "commits",
        "rollbacks",
        #: requests served by an interceptor's before-hook short-circuit,
        #: never classified into a category (still part of the total)
        "intercepted",
        "cache_hits",
        "errors",
    )

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        #: every live stripe, appended once per thread under the lock
        self._stripes: List[Dict[str, int]] = []
        #: totals folded in from threads that have since died
        self._retired: Dict[str, int] = {field: 0 for field in self._FIELDS}

    def _stripe(self) -> Dict[str, int]:
        try:
            return self._local.counters
        except AttributeError:
            stripe = {field: 0 for field in self._FIELDS}
            with self._lock:
                self._stripes.append(stripe)
            self._local.counters = stripe
            weakref.finalize(threading.current_thread(), self._retire_stripe, stripe)
            return stripe

    def _retire_stripe(self, stripe: Dict[str, int]) -> None:
        """Fold a dead thread's stripe into the retired totals."""
        with self._lock:
            try:
                self._stripes.remove(stripe)
            except ValueError:
                return
            for field in self._FIELDS:
                self._retired[field] += stripe[field]

    def after(self, context: RequestContext) -> None:
        try:
            counters = self._local.counters
        except AttributeError:
            counters = self._stripe()
        counter = self._COUNTER_BY_CATEGORY.get(context.category)
        if counter is not None:
            counters[counter] += 1
        elif context.error is None:
            # served by an interceptor before classification could run
            counters["intercepted"] += 1
        if context.cache_verdict == "hit":
            counters["cache_hits"] += 1
        if context.error is not None:
            counters["errors"] += 1

    @property
    def counters(self) -> Dict[str, int]:
        """Aggregated view over every thread's stripe plus retired totals."""
        with self._lock:
            totals = dict(self._retired)
            stripes = list(self._stripes)
        for stripe in stripes:
            for field in self._FIELDS:
                totals[field] += stripe[field]
        return totals

    _TOTAL_FIELDS = (
        "reads",
        "writes",
        "batches",
        "begins",
        "commits",
        "rollbacks",
        "intercepted",
    )

    @property
    def total_requests(self) -> int:
        counters = self.counters
        return sum(counters[field] for field in self._TOTAL_FIELDS)

    def statistics(self) -> dict:
        stats = self.counters
        stats["total"] = sum(stats[field] for field in self._TOTAL_FIELDS)
        return stats


class TracingInterceptor(Interceptor):
    """Record a span per request (category, SQL, per-stage timings, outcome).

    Spans land in a bounded ring buffer for the admin console and tests; the
    pipeline switches on per-stage timing collection when this interceptor
    is installed.
    """

    name = "tracing"
    needs_timing = True
    needs_stage_timings = True

    def __init__(self, max_traces: int = 128):
        if max_traces < 1:
            raise ConfigurationError("tracing: max_traces must be >= 1")
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: deque = deque(maxlen=max_traces)
        self.traces_recorded = 0

    def after(self, context: RequestContext) -> None:
        span = {
            "category": context.category,
            "sql": context.request.sql,
            "duration_ms": round(context.duration * 1000.0, 3),
            "cache": context.cache_verdict,
            "backend": context.backend_name,
            "stages": {
                name: round(seconds * 1000.0, 3)
                for name, seconds in (context.stage_timings or {}).items()
            },
            "error": type(context.error).__name__ if context.error else None,
        }
        with self._lock:
            self._traces.append(span)
            self.traces_recorded += 1

    def traces(self) -> List[dict]:
        with self._lock:
            return list(self._traces)

    def statistics(self) -> dict:
        with self._lock:
            return {
                "traces_recorded": self.traces_recorded,
                "traces_kept": len(self._traces),
                "max_traces": self.max_traces,
            }


class SlowQueryLogInterceptor(Interceptor):
    """Keep the slowest offenders: every request over a latency threshold."""

    name = "slow_query_log"
    needs_timing = True

    def __init__(self, threshold_ms: float = 100.0, max_entries: int = 64):
        if threshold_ms < 0:
            raise ConfigurationError("slow_query_log: threshold_ms must be >= 0")
        if max_entries < 1:
            raise ConfigurationError("slow_query_log: max_entries must be >= 1")
        self.threshold_seconds = threshold_ms / 1000.0
        self.max_entries = max_entries
        self._lock = threading.Lock()
        self._entries: deque = deque(maxlen=max_entries)
        self.slow_queries = 0

    def after(self, context: RequestContext) -> None:
        duration = context.duration
        if duration < self.threshold_seconds:
            return
        entry = {
            "sql": context.request.sql,
            "category": context.category,
            "duration_ms": round(duration * 1000.0, 3),
            "cache": context.cache_verdict,
            "login": context.request.login,
        }
        with self._lock:
            self._entries.append(entry)
            self.slow_queries += 1

    def entries(self) -> List[dict]:
        with self._lock:
            return list(self._entries)

    def statistics(self) -> dict:
        with self._lock:
            return {
                "threshold_ms": round(self.threshold_seconds * 1000.0, 3),
                "slow_queries": self.slow_queries,
                "entries_kept": len(self._entries),
            }


class RateLimitInterceptor(Interceptor):
    """Reject logins exceeding a sliding-window request budget.

    Admission control at the controller door: each login (or the whole
    virtual database with ``per_login=False``) gets ``max_requests`` per
    ``window_seconds``; excess requests are rejected with
    :class:`repro.errors.RateLimitExceededError` before they reach the
    scheduler, so an abusive client cannot queue work.
    """

    name = "rate_limit"

    def __init__(
        self,
        max_requests: int = 1000,
        window_seconds: float = 1.0,
        per_login: bool = True,
        clock: Optional[Callable[[], float]] = None,
    ):
        if max_requests < 1:
            raise ConfigurationError("rate_limit: max_requests must be >= 1")
        if window_seconds <= 0:
            raise ConfigurationError("rate_limit: window_seconds must be > 0")
        self.max_requests = max_requests
        self.window_seconds = float(window_seconds)
        self.per_login = per_login
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        #: login -> deque of request timestamps inside the current window
        self._windows: Dict[str, deque] = {}
        #: requests until the next sweep of idle logins' windows
        self._sweep_countdown = self._SWEEP_EVERY
        self.allowed = 0
        self.rejected = 0

    #: amortized cleanup period: with per-login windows and clients that
    #: rotate login names, windows of idle logins would otherwise accumulate
    #: forever; every N admissions, fully-expired windows are dropped
    _SWEEP_EVERY = 1024

    def before(self, context: RequestContext) -> Optional[RequestResult]:
        request = context.request
        # demarcation of already-admitted work is never gated: a client over
        # budget must still be able to commit or roll back its transaction
        # (blocking those would strand backend transactions for the window)
        if isinstance(request, (CommitRequest, RollbackRequest)):
            return None
        key = request.login if self.per_login else "*"
        now = self._clock()
        horizon = now - self.window_seconds
        with self._lock:
            self._sweep_countdown -= 1
            if self._sweep_countdown <= 0:
                self._sweep_countdown = self._SWEEP_EVERY
                for login in [
                    login
                    for login, window in self._windows.items()
                    if not window or window[-1] <= horizon
                ]:
                    if login != key:
                        del self._windows[login]
            window = self._windows.get(key)
            if window is None:
                window = self._windows[key] = deque()
            while window and window[0] <= horizon:
                window.popleft()
            if len(window) >= self.max_requests:
                self.rejected += 1
                raise RateLimitExceededError(
                    f"login {key!r} exceeded {self.max_requests} requests"
                    f" per {self.window_seconds:g}s"
                )
            window.append(now)
            self.allowed += 1
        return None

    def statistics(self) -> dict:
        with self._lock:
            return {
                "max_requests": self.max_requests,
                "window_seconds": self.window_seconds,
                "per_login": self.per_login,
                "allowed": self.allowed,
                "rejected": self.rejected,
                "active_logins": len(self._windows),
            }


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """An ordered stage list, compiled into one chain per request category,
    wrapped by an ordered interceptor list."""

    def __init__(
        self,
        manager,
        stages: Optional[Sequence[Stage]] = None,
        interceptors: Sequence[Interceptor] = (),
    ):
        self._manager = manager
        self.stages: List[Stage] = list(stages) if stages is not None else default_stages()
        self._interceptors: List[Interceptor] = []
        self._lock = threading.Lock()
        for interceptor in interceptors:
            _check_interceptor(interceptor)
            self._check_duplicate_name(interceptor)
            self._interceptors.append(interceptor)
        self._recompile()

    # -- composition ---------------------------------------------------------------

    @property
    def interceptors(self) -> List[Interceptor]:
        with self._lock:
            return list(self._interceptors)

    @property
    def stage_names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    @property
    def interceptor_names(self) -> List[str]:
        return [interceptor.name for interceptor in self.interceptors]

    def interceptor(self, name: str) -> Interceptor:
        for interceptor in self.interceptors:
            if interceptor.name == name:
                return interceptor
        known = ", ".join(self.interceptor_names) or "none installed"
        raise ConfigurationError(f"no interceptor {name!r} in pipeline ({known})")

    def has_interceptor(self, name: str) -> bool:
        return any(i.name == name for i in self.interceptors)

    def _check_duplicate_name(self, interceptor: Interceptor) -> None:
        if any(existing.name == interceptor.name for existing in self._interceptors):
            raise ConfigurationError(
                f"an interceptor named {interceptor.name!r} is already installed"
                f" (names identify interceptors for lookup and removal)"
            )

    def add_interceptor(self, interceptor: Interceptor, index: Optional[int] = None) -> None:
        _check_interceptor(interceptor)
        with self._lock:
            self._check_duplicate_name(interceptor)
            if index is None:
                self._interceptors.append(interceptor)
            else:
                self._interceptors.insert(index, interceptor)
        self._recompile()

    def remove_interceptor(self, name: str) -> Interceptor:
        with self._lock:
            for index, interceptor in enumerate(self._interceptors):
                if interceptor.name == name:
                    if interceptor is getattr(self._manager, "metrics", None):
                        raise ConfigurationError(
                            "the metrics interceptor is built in and cannot be"
                            " removed (requests_executed and statistics depend"
                            " on it)"
                        )
                    del self._interceptors[index]
                    break
            else:
                known = ", ".join(i.name for i in self._interceptors) or "none installed"
                raise ConfigurationError(
                    f"no interceptor {name!r} in pipeline ({known})"
                )
        self._recompile()
        return interceptor

    def use_authentication_manager(self, authentication_manager) -> None:
        """Point the authenticate stage at a (possibly enforcing) manager."""
        for stage in self.stages:
            if isinstance(stage, AuthenticateStage):
                stage.authentication_manager = authentication_manager
        self._recompile()

    def _recompile(self) -> None:
        """Rebuild the per-category handler chains and interceptor hook tables.

        Each category gets its own chain holding only the stages that do
        something for it.  Hooks are filtered at compile time — an
        interceptor that does not override ``before`` (or ``after``) costs
        nothing per request — and wall clocks are only read when some
        interceptor asked for timing.
        """
        with self._lock:
            interceptors = self._interceptors
            clocked = any(i.needs_timing or i.needs_stage_timings for i in interceptors)
            timed = any(i.needs_stage_timings for i in interceptors)
            chains: Dict[str, Handler] = {}
            for category in CATEGORIES:
                handler: Handler = _noop_handler
                for stage in reversed(self.stages):
                    compiled = stage.compile(self._manager, category, handler)
                    if timed and compiled is not handler:
                        compiled = _timed_handler(stage.name, compiled)
                    handler = compiled
                chains[category] = handler
            #: (position, name, bound hook) for interceptors overriding before
            befores = tuple(
                (position, interceptor.name, interceptor.before)
                for position, interceptor in enumerate(interceptors)
                if type(interceptor).before is not Interceptor.before
            )
            #: (position, bound hook) in reverse order for overridden afters
            afters = tuple(
                (position, interceptor.after)
                for position, interceptor in reversed(list(enumerate(interceptors)))
                if type(interceptor).after is not Interceptor.after
            )
            # one atomically-swapped snapshot of everything execute() needs:
            # an in-flight request must never see a half-recompiled mixture
            # of old and new hook tables when interceptors change at runtime
            self._compiled = (clocked, timed, chains, befores, afters, len(interceptors))

    # -- execution -----------------------------------------------------------------

    def execute(self, context: RequestContext) -> RequestContext:
        """Run one request through interceptors and stages.

        Interceptor ``before`` hooks run in order (any may short-circuit by
        returning a result, or reject by raising); the request is then
        classified and its category's stage chain runs; ``after`` hooks then
        run in reverse order whatever happened — for every interceptor whose
        ``before`` was reached — and the error, if any, is on the context and
        propagates after the last hook.
        """
        clocked, timed, chains, befores, afters, full_barrier = self._compiled
        if clocked:
            context.started_at = time.perf_counter()
            if timed:
                context.stage_timings = {}
        # afters run for interceptor positions <= barrier: everything when
        # the chain is reached, only the attempted prefix when a before
        # raises or short-circuits
        barrier = full_barrier
        try:
            for position, name, before in befores:
                barrier = position
                early = before(context)
                if early is not None:
                    context.result = early
                    context.short_circuited_by = name
                    return context
            barrier = full_barrier
            request = context.request
            try:
                category = _CATEGORY_BY_CLASS[type(request)]
            except KeyError:
                category = _CATEGORY_BY_TYPE[request.request_type]
            context.category = category
            chains[category](context)
            return context
        except BaseException as exc:
            context.error = exc
            raise
        finally:
            if clocked:
                context.finished_at = time.perf_counter()
            hook_error: Optional[BaseException] = None
            for position, after in afters:
                if position > barrier:
                    continue
                try:
                    after(context)
                except BaseException as exc:  # noqa: BLE001 - isolated per hook
                    if hook_error is None:
                        hook_error = exc
            # a failing hook must not mask the request's own error, and must
            # not stop outer hooks; re-raise only on an otherwise-clean request
            if hook_error is not None and context.error is None:
                raise hook_error

    # -- monitoring ----------------------------------------------------------------

    def statistics(self) -> dict:
        return {
            "stages": self.stage_names,
            "interceptors": {
                interceptor.name: interceptor.statistics()
                for interceptor in self.interceptors
            },
        }


def _noop_handler(context: RequestContext) -> None:
    return None


def _timed_handler(name: str, handler: Handler) -> Handler:
    def timed(context: RequestContext) -> None:
        start = time.perf_counter()
        try:
            handler(context)
        finally:
            timings = context.stage_timings
            if timings is not None:
                # inclusive span: time from stage entry to exit, inner stages
                # included (the nesting mirrors the chain structure)
                timings[name] = time.perf_counter() - start

    return timed


def _check_interceptor(interceptor: Interceptor) -> Interceptor:
    if not isinstance(interceptor, Interceptor):
        raise ConfigurationError(
            f"expected an Interceptor instance, got {type(interceptor).__name__}"
        )
    return interceptor


# ---------------------------------------------------------------------------
# declarative interceptor construction (descriptor `interceptors:` section)
# ---------------------------------------------------------------------------

#: name -> (constructor, allowed option keys)
BUILTIN_INTERCEPTORS: Dict[str, Tuple[Callable[..., Interceptor], frozenset]] = {
    "metrics": (MetricsInterceptor, frozenset()),
    "tracing": (TracingInterceptor, frozenset({"max_traces"})),
    "slow_query_log": (
        SlowQueryLogInterceptor,
        frozenset({"threshold_ms", "max_entries"}),
    ),
    "rate_limit": (
        RateLimitInterceptor,
        frozenset({"max_requests", "window_seconds", "per_login"}),
    ),
}

InterceptorSpec = Union[str, Mapping, Interceptor]


def build_interceptor(spec: InterceptorSpec, where: str = "interceptors") -> Interceptor:
    """Materialize one interceptor from a descriptor entry.

    Accepts a bare built-in name (``"tracing"``), a mapping with a ``name``
    and options (``{"name": "slow_query_log", "threshold_ms": 50}``) or an
    already-constructed :class:`Interceptor` (programmatic configs).  Raises
    :class:`ConfigurationError` naming ``where`` for unknown names, unknown
    options and bad option values.
    """
    if isinstance(spec, Interceptor):
        return spec
    if isinstance(spec, str):
        name, options = spec, {}
    elif isinstance(spec, Mapping):
        options = dict(spec)
        name = options.pop("name", None)
        if not isinstance(name, str) or not name.strip():
            raise ConfigurationError(
                f"{where}: an interceptor mapping needs a non-empty 'name' key"
            )
    else:
        raise ConfigurationError(
            f"{where}: expected an interceptor name or mapping,"
            f" got {type(spec).__name__}"
        )
    builder = BUILTIN_INTERCEPTORS.get(name.lower())
    if builder is None:
        known = ", ".join(sorted(BUILTIN_INTERCEPTORS))
        raise ConfigurationError(
            f"{where}: unknown interceptor {name!r} (built-ins: {known})"
        )
    constructor, allowed = builder
    unknown = sorted(set(options) - allowed)
    if unknown:
        expected = ", ".join(sorted(allowed)) or "no options"
        raise ConfigurationError(
            f"{where}.{name}: unknown option{'s' if len(unknown) > 1 else ''}"
            f" {', '.join(map(repr, unknown))} (expected: {expected})"
        )
    try:
        return constructor(**options)
    except TypeError as exc:
        raise ConfigurationError(f"{where}.{name}: {exc}") from exc


def build_interceptors(
    specs: Sequence[InterceptorSpec], where: str = "interceptors"
) -> List[Interceptor]:
    """Materialize a whole ``interceptors:`` list, pinpointing bad entries."""
    interceptors = []
    for index, spec in enumerate(specs):
        interceptors.append(build_interceptor(spec, where=f"{where}[{index}]"))
    return interceptors


__all__ = [
    "BUILTIN_INTERCEPTORS",
    "AuthenticateStage",
    "CacheInvalidateStage",
    "CacheLookupStage",
    "ClassifyStage",
    "Interceptor",
    "InterceptorSpec",
    "LoadBalanceStage",
    "MetricsInterceptor",
    "Pipeline",
    "PlanStage",
    "RateLimitInterceptor",
    "RequestContext",
    "RecoveryLogStage",
    "ScheduleStage",
    "SlowQueryLogInterceptor",
    "Stage",
    "TracingInterceptor",
    "TransactionStage",
    "build_interceptor",
    "build_interceptors",
    "default_stages",
]
