"""Composable request execution pipeline (the controller's middleware stack).

The paper describes the C-JDBC controller as a stack of cooperating stages —
scheduler, query result cache, load balancer, recovery log (§2.4, Figure 1).
This module makes that stack *explicit*: every client request flows through
an ordered chain of :class:`Stage` objects as a :class:`RequestContext`, and
cross-cutting concerns (metrics, tracing, slow-query logging, rate limiting)
are :class:`Interceptor` objects — stages with ``before``/``after`` hooks
that sit outside the stages in the same chain, observe the context, or
short-circuit execution.

Stage order (each request category runs only the stages that do something
for it — see the table below)::

    classify ─ authenticate ─ schedule ─ cache-lookup ─ transaction
        ─ plan ─ recovery-log ─ cache-invalidate ─ load-balance

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
* **plan** asks the query planner for the request's
  :class:`~repro.planner.plan.RoutePlan` (template-cached, so repeated
  statement shapes skip planning); a write the planner refuses (e.g. a
  RAIDb-2 write whose replicas do not host every table it reads) stops
  here, so it is never logged;
* **recovery-log** records writes and demarcation before they reach any
  backend, so recovery can replay them;
* **cache-invalidate** runs result-cache invalidation after a successful
  write;
* **load-balance** is the terminal stage: it executes the route plan — one
  backend for reads (scatter-gather for multi-table reads over disjoint
  RAIDb-2 partitions), broadcast for writes — or broadcasts demarcation to
  the participating backends.

The interceptor list and the stage list are *compiled once per request
category* into one closure chain, interceptors outermost: each contributes
a closure wrapping the next, or nothing at all when it has no work for that
category, and :meth:`Pipeline.execute` looks the request's category up by
class, stamps the clocks when an interceptor asked for timing, and calls
that category's chain.  With the default stages, a transparent
authentication manager and only the built-in ``metrics`` interceptor the
six chains are::

    read            metrics ─ schedule ─ cache-lookup ─ plan ─ load-balance
    write, batch    metrics ─ schedule ─ plan ─ recovery-log
                        ─ cache-invalidate ─ load-balance
    begin           metrics ─ transaction ─ recovery-log ─ load-balance
                        (schedule first when lazy begin is off)
    commit,         metrics ─ classify ─ schedule ─ transaction
      rollback          ─ recovery-log ─ load-balance

(an enforcing authentication manager puts **authenticate** in front of
**schedule** in all six).  There is one mechanism: tracing, an extra
interceptor, a custom stage list or an enforcing login check change which
closures are in a chain, never which code path runs.  Steady-state
execution allocates nothing beyond the context object.

Interceptors are declaratively configurable: a cluster descriptor's
``interceptors:`` section names built-ins from :data:`BUILTIN_INTERCEPTORS`
(``tracing``, ``slow_query_log``, ``metrics``, ``rate_limit``) with their
options; :func:`build_interceptor` parses each entry with the built-in's
:mod:`repro.core.schema` ``Options`` section so ``check-config`` can reject
typos before a cluster boots.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Union

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
from repro.core.schema import Key, key, parse_section, parse_value
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

    #: one of CATEGORIES, set by Pipeline.execute before the chain runs
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
            # a read inside a transaction, or one calling NOW()/RAND(), is
            # answered by a backend every time
            if cache is None or request.transaction_id is not None or request.template.macro_sites:
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
                # the client gets a checkout, as a later hit would
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
        PlanStage(),
        RecoveryLogStage(),
        CacheInvalidateStage(),
        LoadBalanceStage(),
    ]


# ---------------------------------------------------------------------------
# interceptors
# ---------------------------------------------------------------------------


class Interceptor(Stage):
    """A cross-cutting hook: a stage with ``before``/``after`` methods.

    Interceptors compile into the same per-category chain as the stages,
    outside all of them, so by the time ``before`` runs ``context.category``
    is known.  ``before`` runs on the way in (interceptor order); returning
    a :class:`RequestResult` short-circuits everything below, and raising
    rejects the request.  ``after`` runs on the way out in reverse order,
    in a ``finally``, whatever happened below — success, cache
    short-circuit or error (the error, if any, is on ``context.error``).
    An interceptor below one that rejected or short-circuited was never
    entered, so its ``after`` does not run, exactly like stages below a
    short-circuit (order interceptors that must see every request, e.g.
    audit, before gating ones like ``rate_limit``).  An ``after`` hook that
    raises never replaces the request's own error; on a clean request its
    error propagates through the outer interceptors' ``after`` hooks.

    Set :attr:`needs_timing` to make the pipeline stamp
    ``context.started_at``/``finished_at`` (so ``context.duration`` is
    meaningful in ``after``), and :attr:`needs_stage_timings` to
    additionally record per-stage durations in ``context.stage_timings``.
    """

    name = "interceptor"
    #: request True to get wall-clock stamps on the context (duration)
    needs_timing = False
    #: request True to additionally get per-stage timings (implies timing)
    needs_stage_timings = False

    @dataclass
    class Options:
        """The descriptor options of a built-in (a :mod:`repro.core.schema`
        section whose fields are constructor keyword arguments)."""

    def before(self, context: RequestContext) -> Optional[RequestResult]:
        return None

    def after(self, context: RequestContext) -> None:
        return None

    def statistics(self) -> dict:
        return {}

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        # hooks left at the base no-op cost nothing per request
        cls = type(self)
        before = self.before if cls.before is not Interceptor.before else None
        after = self.after if cls.after is not Interceptor.after else None
        if before is None and after is None:
            return proceed
        clocked = self.needs_timing or self.needs_stage_timings
        name = self.name

        def intercept(context: RequestContext) -> None:
            try:
                early = None if before is None else before(context)
                if early is None:
                    proceed(context)
                else:
                    context.result = early
                    context.short_circuited_by = name
            except BaseException as exc:
                if context.error is None:
                    context.error = exc
                raise
            finally:
                if clocked:
                    context.finished_at = time.perf_counter()
                if after is not None:
                    try:
                        after(context)
                    except Exception:
                        if context.error is None:
                            raise

        return intercept


class MetricsInterceptor(Interceptor):
    """Per-request-type counters: the controller's primary request metrics.

    Every pipeline installs one, first, so it sees every request, including
    those rejected or short-circuited by the interceptors after it.  The
    breakdown is by category plus cache hits and errors; the total is the
    sum of the categories, never double-counted.  It compiles to one closure
    that counts inline, so a request pays no hook call for it.

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
    _TOTAL_FIELDS = tuple(_COUNTER_BY_CATEGORY.values())
    _FIELDS = (*_TOTAL_FIELDS, "cache_hits", "errors")

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

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        counter = self._COUNTER_BY_CATEGORY[category]
        local, stripe = self._local, self._stripe

        def metrics(context: RequestContext) -> None:
            try:
                proceed(context)
            except BaseException as exc:
                if context.error is None:
                    context.error = exc
                raise
            finally:
                try:
                    counters = local.counters
                except AttributeError:
                    counters = stripe()
                counters[counter] += 1
                if context.cache_verdict == "hit":
                    counters["cache_hits"] += 1
                if context.error is not None:
                    counters["errors"] += 1

        return metrics

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

    @dataclass
    class Options:
        max_traces: int = key(int, 128, minimum=1)

    def __init__(self, max_traces: int = Options.max_traces):
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

    @dataclass
    class Options:
        threshold_ms: float = key(float, 100.0, minimum=0)
        max_entries: int = key(int, 64, minimum=1)

    def __init__(
        self,
        threshold_ms: float = Options.threshold_ms,
        max_entries: int = Options.max_entries,
    ):
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

    @dataclass
    class Options:
        max_requests: int = key(int, 1000, minimum=1)
        window_seconds: float = key(float, 1.0, exclusive_minimum=0)
        per_login: bool = key(bool, True)

    def __init__(
        self,
        max_requests: int = Options.max_requests,
        window_seconds: float = Options.window_seconds,
        per_login: bool = Options.per_login,
        clock: Optional[Callable[[], float]] = None,
    ):
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

    def compile(self, manager, category: str, proceed: Handler) -> Handler:
        # demarcation of already-admitted work is never gated: a client over
        # budget must still be able to commit or roll back its transaction
        # (blocking those would strand backend transactions for the window)
        if category is COMMIT or category is ROLLBACK:
            return proceed
        return super().compile(manager, category, proceed)

    def before(self, context: RequestContext) -> Optional[RequestResult]:
        key = context.request.login if self.per_login else "*"
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
# declarative interceptor construction (descriptor `interceptors:` section)
# ---------------------------------------------------------------------------

#: name -> built-in interceptor class; its ``Options`` section declares the
#: descriptor options it accepts
BUILTIN_INTERCEPTORS: Dict[str, type] = {
    builtin.name: builtin
    for builtin in (
        MetricsInterceptor,
        TracingInterceptor,
        SlowQueryLogInterceptor,
        RateLimitInterceptor,
    )
}

InterceptorSpec = Union[str, Mapping, Interceptor]

_ENTRY = Key(dict, message="expected an interceptor name or mapping")
_NAME = Key(
    str,
    choices=tuple(BUILTIN_INTERCEPTORS),
    resolve=lambda name: tuple(BUILTIN_INTERCEPTORS).index(name.lower()),
)


def build_interceptor(spec: InterceptorSpec, where: str = "interceptors") -> Interceptor:
    """Materialize one interceptor from a descriptor entry.

    Accepts a bare built-in name (``"tracing"``), a mapping with a ``name``
    and options (``{"name": "slow_query_log", "threshold_ms": 50}``) or an
    already-constructed :class:`Interceptor` (programmatic configs).  The
    options are parsed by the built-in's ``Options`` section, so a bad entry
    is a :class:`ConfigurationError` naming its path under ``where``.
    """
    if isinstance(spec, Interceptor):
        return spec
    options = parse_value(_ENTRY, {"name": spec} if isinstance(spec, str) else spec, where)
    name = parse_value(_NAME, options.pop("name", None), where)
    builtin = BUILTIN_INTERCEPTORS[name.lower()]
    return builtin(**vars(parse_section(builtin.Options, options, f"{where}.{name}")))


def build_interceptors(
    specs: Sequence[InterceptorSpec], where: str = "interceptors"
) -> List[Interceptor]:
    """Materialize a whole ``interceptors:`` list, pinpointing bad entries."""
    return [
        build_interceptor(spec, where=f"{where}[{index}]") for index, spec in enumerate(specs)
    ]


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class Pipeline:
    """Interceptors and stages, compiled into one chain per request category.

    The pipeline installs its :class:`MetricsInterceptor` itself, first; a
    ``"metrics"`` entry (or instance) among ``interceptors`` resolves to it.
    """

    def __init__(
        self,
        manager,
        stages: Optional[Sequence[Stage]] = None,
        interceptors: Sequence[InterceptorSpec] = (),
    ):
        self._manager = manager
        self.stages: List[Stage] = list(stages) if stages is not None else default_stages()
        self._lock = threading.Lock()
        built = build_interceptors(interceptors)
        self.metrics: MetricsInterceptor = next(
            (i for i in built if isinstance(i, MetricsInterceptor)), None
        ) or MetricsInterceptor()
        self._interceptors: List[Interceptor] = [self.metrics]
        for interceptor in built:
            if interceptor is not self.metrics:
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
        raise ConfigurationError(
            f"no interceptor {name!r} in pipeline ({', '.join(self.interceptor_names)})"
        )

    def has_interceptor(self, name: str) -> bool:
        return any(i.name == name for i in self.interceptors)

    def _check_duplicate_name(self, interceptor: Interceptor) -> None:
        if any(existing.name == interceptor.name for existing in self._interceptors):
            raise ConfigurationError(
                f"an interceptor named {interceptor.name!r} is already installed"
                f" (names identify interceptors for lookup and removal)"
            )

    def add_interceptor(
        self, spec: InterceptorSpec, index: Optional[int] = None
    ) -> Interceptor:
        """Install an interceptor (instance, built-in name or spec mapping)."""
        interceptor = build_interceptor(spec)
        with self._lock:
            self._check_duplicate_name(interceptor)
            if index is None:
                self._interceptors.append(interceptor)
            else:
                self._interceptors.insert(index, interceptor)
        self._recompile()
        return interceptor

    def remove_interceptor(self, name: str) -> Interceptor:
        interceptor = self.interceptor(name)
        if interceptor is self.metrics:
            raise ConfigurationError(
                "the metrics interceptor is built in and cannot be removed"
                " (requests_executed and statistics depend on it)"
            )
        with self._lock:
            self._interceptors.remove(interceptor)
        self._recompile()
        return interceptor

    def use_authentication_manager(self, authentication_manager) -> None:
        """Point the authenticate stage at a (possibly enforcing) manager."""
        for stage in self.stages:
            if isinstance(stage, AuthenticateStage):
                stage.authentication_manager = authentication_manager
        self._recompile()

    def _recompile(self) -> None:
        """Rebuild the per-category chains: interceptors outermost, then stages.

        Each category's chain holds only the interceptors and stages that do
        something for it.  Wall clocks are only read when some interceptor
        asked for timing, and only stages get a ``stage_timings`` span.
        """
        with self._lock:
            interceptors = self._interceptors
            clocked = any(i.needs_timing or i.needs_stage_timings for i in interceptors)
            timed = any(i.needs_stage_timings for i in interceptors)
            chains: Dict[str, Handler] = {}
            for category in CATEGORIES:
                handler: Handler = _noop_handler
                for link in reversed([*interceptors, *self.stages]):
                    compiled = link.compile(self._manager, category, handler)
                    if timed and compiled is not handler and not isinstance(link, Interceptor):
                        compiled = _timed_handler(link.name, compiled)
                    handler = compiled
                chains[category] = handler
            # one atomically-swapped snapshot of everything execute() needs:
            # an in-flight request never sees a half-recompiled mixture
            self._compiled = (clocked, timed, chains)

    # -- execution -----------------------------------------------------------------

    def execute(self, context: RequestContext) -> RequestContext:
        """Classify the request and run its category's chain.

        Errors propagate; the interceptors have recorded them on
        ``context.error`` on the way out.
        """
        clocked, timed, chains = self._compiled
        request = context.request
        try:
            category = _CATEGORY_BY_CLASS[type(request)]
        except KeyError:
            category = _CATEGORY_BY_TYPE[request.request_type]
        context.category = category
        if clocked:
            context.started_at = time.perf_counter()
            if timed:
                context.stage_timings = {}
        chains[category](context)
        return context

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
