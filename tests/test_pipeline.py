"""Pipeline semantics: stage ordering, interceptors, short-circuits, cleanup.

Covers the composable execution pipeline of :mod:`repro.core.pipeline`:

* interceptor ordering (before in order, after in reverse, guaranteed);
* short-circuit from the cache-lookup stage and from interceptors;
* exception propagation through stages and hooks;
* scheduler tickets released on every error path;
* the built-in interceptors (metrics, tracing, slow_query_log, rate_limit)
  end-to-end through descriptors and ``repro.connect``;
* declarative validation of the ``interceptors:`` descriptor section;
* per-category chains: only the applicable stages run, tracing changes
  nothing observable, tickets released on every category's error path;
* isolation of cached read results (shared tuple rows, private lists).
"""

import dataclasses
import io
import threading

import pytest

import repro
from repro.cli import main as cli_main
from repro.core.backend import DatabaseBackend
from repro.core.cache import ResultCache
from repro.core.management import AdminConsole
from repro.core.pipeline import (
    BUILTIN_INTERCEPTORS,
    Interceptor,
    MetricsInterceptor,
    Pipeline,
    RateLimitInterceptor,
    RequestContext,
    SlowQueryLogInterceptor,
    Stage,
    TracingInterceptor,
    build_interceptor,
    build_interceptors,
    default_stages,
)
from repro.core.recovery import MemoryRecoveryLog
from repro.core.request import RequestResult, WriteRequest
from repro.core.request_manager import RequestManager
from repro.core.scheduler import (
    OptimisticTransactionLevelScheduler,
    PessimisticTransactionLevelScheduler,
)
from repro.errors import (
    BackendError,
    CJDBCError,
    ConfigurationError,
    RateLimitExceededError,
)
from repro.sql import DatabaseEngine, DatabaseMetaData, dbapi


def make_backend(name, engine):
    backend = DatabaseBackend(
        name=name,
        connection_factory=lambda: dbapi.connect(engine),
        metadata_factory=lambda: DatabaseMetaData(engine),
    )
    backend.enable()
    return backend


def make_manager(scheduler=None, cache=True, backends=2, interceptors=()):
    engines = [DatabaseEngine(f"pl-{id(object())}-{i}") for i in range(backends)]
    backend_objects = [
        make_backend(f"backend{i}", engine) for i, engine in enumerate(engines)
    ]
    manager = RequestManager(
        backends=backend_objects,
        scheduler=scheduler or OptimisticTransactionLevelScheduler(),
        result_cache=ResultCache() if cache else None,
        recovery_log=MemoryRecoveryLog(),
        interceptors=interceptors,
    )
    manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    manager.execute("INSERT INTO kv (k, v) VALUES (1, 'one')")
    return manager, engines


def write_granted_at_once(scheduler):
    """True when a write ticket is granted without waiting: no ticket leaked."""
    granted = threading.Event()

    def writer():
        request = WriteRequest(sql="UPDATE kv SET v = 'w'", tables=("kv",))
        scheduler.schedule_write(request).release()
        granted.set()

    threading.Thread(target=writer, daemon=True).start()
    return granted.wait(timeout=1.0)


class RecordingInterceptor(Interceptor):
    """Appends (name, hook) tuples to a shared journal."""

    def __init__(self, name, journal, short_circuit=False, fail_before=False):
        self.name = name
        self._journal = journal
        self._short_circuit = short_circuit
        self._fail_before = fail_before

    def before(self, context):
        self._journal.append((self.name, "before"))
        if self._fail_before:
            raise CJDBCError(f"{self.name} rejected the request")
        if self._short_circuit:
            return RequestResult(update_count=0)
        return None

    def after(self, context):
        self._journal.append((self.name, "after"))


class TestInterceptorOrdering:
    def test_before_in_order_after_in_reverse(self):
        journal = []
        manager, _ = make_manager(
            interceptors=[
                RecordingInterceptor("first", journal),
                RecordingInterceptor("second", journal),
            ]
        )
        journal.clear()
        manager.execute("SELECT v FROM kv WHERE k = 1")
        assert journal == [
            ("first", "before"),
            ("second", "before"),
            ("second", "after"),
            ("first", "after"),
        ]

    def test_interceptor_short_circuit_skips_later_interceptors_and_stages(self):
        journal = []
        manager, _ = make_manager(
            interceptors=[
                RecordingInterceptor("outer", journal),
                RecordingInterceptor("gate", journal, short_circuit=True),
                RecordingInterceptor("inner", journal),
            ]
        )
        journal.clear()
        reads_before = manager.scheduler.reads_scheduled
        result = manager.execute("SELECT v FROM kv WHERE k = 1")
        assert result.update_count == 0 and not result.rows
        # inner interceptor never entered; outer and gate afters both ran
        assert journal == [
            ("outer", "before"),
            ("gate", "before"),
            ("gate", "after"),
            ("outer", "after"),
        ]
        # the stage chain (scheduler included) was never reached
        assert manager.scheduler.reads_scheduled == reads_before

    def test_rejecting_interceptor_still_gets_after_hooks(self):
        journal = []
        manager, _ = make_manager()
        for interceptor in (
            RecordingInterceptor("outer", journal),
            RecordingInterceptor("bad", journal, fail_before=True),
            RecordingInterceptor("inner", journal),
        ):
            manager.pipeline.add_interceptor(interceptor)
        with pytest.raises(CJDBCError, match="bad rejected"):
            manager.execute("SELECT v FROM kv WHERE k = 1")
        assert journal == [
            ("outer", "before"),
            ("bad", "before"),
            ("bad", "after"),
            ("outer", "after"),
        ]

    def test_failing_after_hook_does_not_mask_request_error(self):
        class ExplodingAfter(Interceptor):
            name = "exploding"

            def after(self, context):
                raise RuntimeError("hook failure")

        manager, engines = make_manager()
        manager.pipeline.add_interceptor(ExplodingAfter())
        for engine in engines:
            engine.catalog.drop_table("kv")
        # the request's own error wins over the hook failure
        with pytest.raises(BackendError):
            manager.execute("INSERT INTO kv (k, v) VALUES (9, 'x')")

    def test_failing_after_hook_surfaces_on_clean_request(self):
        class ExplodingAfter(Interceptor):
            name = "exploding"

            def after(self, context):
                raise RuntimeError("hook failure")

        manager, _ = make_manager()
        manager.pipeline.add_interceptor(ExplodingAfter())
        with pytest.raises(RuntimeError, match="hook failure"):
            manager.execute("SELECT v FROM kv WHERE k = 1")


class TestShortCircuitAndPropagation:
    def test_cache_hit_short_circuits_load_balancer(self):
        manager, _ = make_manager()
        manager.execute("SELECT v FROM kv WHERE k = 1")
        reads_before = sum(b.total_reads for b in manager.backends)
        result = manager.execute("SELECT v FROM kv WHERE k = 1")
        assert result.from_cache is True
        # no backend executed the second read: the cache answered it
        assert sum(b.total_reads for b in manager.backends) == reads_before

    def test_exception_propagates_with_context_error_recorded(self):
        seen = []

        class ErrorObserver(Interceptor):
            name = "observer"

            def after(self, context):
                seen.append((context.category, type(context.error).__name__))

        manager, engines = make_manager(interceptors=[ErrorObserver()])
        for engine in engines:
            engine.catalog.drop_table("kv")
        seen.clear()
        with pytest.raises(BackendError):
            manager.execute("SELECT v FROM kv WHERE k = 1")
        assert seen == [("read", "BackendError")]

    def test_metrics_count_errors(self):
        manager, engines = make_manager()
        for engine in engines:
            engine.catalog.drop_table("kv")
        with pytest.raises(BackendError):
            manager.execute("SELECT v FROM kv WHERE k = 1")
        assert manager.metrics.counters["errors"] == 1


class TestTicketRelease:
    def test_read_failure_releases_ticket(self):
        """A failed read under the pessimistic scheduler must not wedge writes."""
        manager, engines = make_manager(
            scheduler=PessimisticTransactionLevelScheduler()
        )
        for engine in engines:
            engine.catalog.drop_table("kv")
        with pytest.raises(BackendError):
            manager.execute("SELECT v FROM kv WHERE k = 1")
        assert write_granted_at_once(manager.scheduler)
        # a subsequent write can still drain readers and proceed
        manager.execute("CREATE TABLE kv2 (k INT PRIMARY KEY)")

    def test_write_failure_releases_write_mutex(self):
        manager, engines = make_manager()
        for engine in engines:
            engine.catalog.drop_table("kv")
        with pytest.raises(BackendError):
            manager.execute("INSERT INTO kv (k, v) VALUES (5, 'x')")
        assert manager.scheduler.pending_writes == 0
        # the write mutex is free: the next write runs instead of deadlocking
        # (backends were disabled by the failed broadcast — re-enable them)
        for backend in manager.backends:
            backend.enable()
        manager.execute("CREATE TABLE kv3 (k INT PRIMARY KEY)")
        assert manager.scheduler.pending_writes == 0

    def test_commit_outside_transaction_does_not_leak_tickets(self):
        manager, _ = make_manager()
        with pytest.raises(CJDBCError):
            manager.execute("COMMIT")
        with pytest.raises(CJDBCError):
            manager.execute("ROLLBACK")
        assert manager.scheduler.pending_writes == 0

    def test_failed_commit_releases_ticket(self):
        manager, engines = make_manager()
        transaction_id = manager.begin("alice")
        manager.execute(
            "INSERT INTO kv (k, v) VALUES (7, 'x')",
            transaction_id=transaction_id,
            login="alice",
        )

        def broken_broadcast(backends, operation):
            raise BackendError("commit broadcast failed")

        manager.load_balancer.broadcast_transaction_operation = broken_broadcast
        with pytest.raises(BackendError):
            manager.commit(transaction_id, "alice")
        assert manager.scheduler.pending_writes == 0
        # the write mutex is free for later demarcation
        other = manager.begin("bob")
        manager.load_balancer.broadcast_transaction_operation = (
            type(manager.load_balancer).broadcast_transaction_operation.__get__(
                manager.load_balancer
            )
        )
        manager.rollback(other, "bob")

    def test_interceptor_rejection_acquires_no_ticket(self):
        manager, _ = make_manager(
            interceptors=[
                # budget: 2 setup statements + 1 admitted read
                {"name": "rate_limit", "max_requests": 3, "window_seconds": 3600}
            ]
        )
        baseline_reads = manager.scheduler.reads_scheduled
        manager.execute("SELECT v FROM kv WHERE k = 1")
        with pytest.raises(RateLimitExceededError):
            manager.execute("SELECT v FROM kv WHERE k = 1")
        # the rejected request never reached the scheduler
        assert manager.scheduler.reads_scheduled == baseline_reads + 1
        assert manager.scheduler.pending_writes == 0


class TestMetricsInterceptor:
    def test_per_request_type_counters(self):
        manager, _ = make_manager()
        counters_before = manager.metrics.counters
        manager.execute("SELECT v FROM kv WHERE k = 1")
        manager.execute("SELECT v FROM kv WHERE k = 1")  # cache hit
        manager.execute("UPDATE kv SET v = 'two' WHERE k = 1")
        transaction_id = manager.begin("alice")
        manager.execute(
            "INSERT INTO kv (k, v) VALUES (2, 'x')",
            transaction_id=transaction_id,
            login="alice",
        )
        manager.commit(transaction_id, "alice")
        transaction_id = manager.begin("alice")
        manager.rollback(transaction_id, "alice")
        counters = manager.metrics.counters
        assert counters["reads"] - counters_before["reads"] == 2
        assert counters["cache_hits"] - counters_before["cache_hits"] == 1
        assert counters["writes"] - counters_before["writes"] == 2
        assert counters["begins"] - counters_before["begins"] == 2
        assert counters["commits"] - counters_before["commits"] == 1
        assert counters["rollbacks"] - counters_before["rollbacks"] == 1

    def test_requests_executed_totals_all_categories(self):
        manager, _ = make_manager()
        before = manager.requests_executed
        manager.execute("SELECT v FROM kv WHERE k = 1")
        transaction_id = manager.begin()
        manager.rollback(transaction_id)
        assert manager.requests_executed == before + 3

    def test_statistics_surface_requests_and_pipeline(self):
        manager, _ = make_manager()
        stats = manager.statistics()
        assert stats["requests"]["total"] == stats["requests_executed"]
        assert set(stats["requests"]) >= {
            "reads", "writes", "begins", "commits", "rollbacks", "cache_hits", "errors",
        }
        assert "metrics" in stats["pipeline"]["interceptors"]
        assert stats["pipeline"]["stages"][0] == "classify"

    def test_metrics_stays_first_and_sees_rejections(self):
        """An explicitly listed metrics interceptor is moved ahead of gating
        interceptors so rejected requests still count as errors."""
        manager, _ = make_manager(
            interceptors=[
                {"name": "rate_limit", "max_requests": 2, "window_seconds": 3600},
                "metrics",
            ]
        )
        assert manager.pipeline.interceptor_names[0] == "metrics"
        with pytest.raises(RateLimitExceededError):
            manager.execute("SELECT v FROM kv WHERE k = 1")
        assert manager.metrics.counters["errors"] == 1

    def test_dead_thread_stripes_fold_into_retired_totals(self):
        import gc
        import threading

        manager, _ = make_manager()
        before = manager.metrics.counters["reads"]

        def reader():
            for _ in range(5):
                manager.execute("SELECT v FROM kv WHERE k = 1")

        for _ in range(4):
            worker = threading.Thread(target=reader)
            worker.start()
            worker.join()
        del worker
        gc.collect()
        # counts survive the threads' death...
        assert manager.metrics.counters["reads"] - before == 20
        # ...and their stripes were folded away instead of accumulating
        assert len(manager.metrics._stripes) <= 1

    def test_metrics_exact_under_concurrency(self):
        import threading

        manager, _ = make_manager()
        before = manager.metrics.counters["reads"]
        per_thread, threads = 200, 8

        def reader():
            for i in range(per_thread):
                manager.execute("SELECT v FROM kv WHERE k = 1")

        workers = [threading.Thread(target=reader) for _ in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        assert manager.metrics.counters["reads"] - before == per_thread * threads


class TestBuiltinInterceptors:
    def test_slow_query_log_records_over_threshold(self):
        manager, _ = make_manager(
            interceptors=[{"name": "slow_query_log", "threshold_ms": 0}]
        )
        log = manager.pipeline.interceptor("slow_query_log")
        manager.execute("SELECT v FROM kv WHERE k = 1")
        entries = log.entries()
        assert entries and entries[-1]["sql"] == "SELECT v FROM kv WHERE k = 1"
        assert entries[-1]["duration_ms"] >= 0
        assert log.statistics()["slow_queries"] >= 1

    def test_slow_query_log_threshold_filters(self):
        manager, _ = make_manager(
            interceptors=[{"name": "slow_query_log", "threshold_ms": 60000}]
        )
        manager.execute("SELECT v FROM kv WHERE k = 1")
        assert manager.pipeline.interceptor("slow_query_log").entries() == []

    def test_tracing_records_stage_timings(self):
        manager, _ = make_manager(interceptors=["tracing"])
        tracer = manager.pipeline.interceptor("tracing")
        manager.execute("SELECT v FROM kv WHERE k = 1")
        span = tracer.traces()[-1]
        assert span["category"] == "read"
        assert span["error"] is None
        assert "schedule" in span["stages"] and "load_balance" in span["stages"]

    def test_rate_limit_per_login_isolation(self):
        clock = [0.0]
        limiter = RateLimitInterceptor(
            max_requests=2, window_seconds=10, clock=lambda: clock[0]
        )
        manager, _ = make_manager(interceptors=[limiter])
        manager.execute("SELECT v FROM kv WHERE k = 1", login="alice")
        manager.execute("SELECT v FROM kv WHERE k = 1", login="alice")
        with pytest.raises(RateLimitExceededError):
            manager.execute("SELECT v FROM kv WHERE k = 1", login="alice")
        # another login has its own window
        manager.execute("SELECT v FROM kv WHERE k = 1", login="bob")
        # and the window slides: alice is admitted again later
        clock[0] = 11.0
        manager.execute("SELECT v FROM kv WHERE k = 1", login="alice")
        stats = limiter.statistics()
        assert stats["rejected"] == 1
        assert stats["allowed"] >= 4


class TestDeclarativeConfiguration:
    def test_build_interceptor_from_name_and_mapping(self):
        assert isinstance(build_interceptor("tracing"), TracingInterceptor)
        built = build_interceptor({"name": "rate_limit", "max_requests": 3})
        assert isinstance(built, RateLimitInterceptor)
        assert built.max_requests == 3

    def test_unknown_interceptor_name_rejected(self):
        with pytest.raises(ConfigurationError, match="expected one of: .*, got 'tracer'"):
            build_interceptor("tracer")

    def test_unknown_option_rejected_with_position(self):
        with pytest.raises(
            ConfigurationError, match=r"interceptors\[1\].tracing: unknown key"
        ):
            build_interceptors(["metrics", {"name": "tracing", "max_spans": 3}])

    def test_bad_option_value_rejected(self):
        with pytest.raises(ConfigurationError, match="max_traces"):
            build_interceptor({"name": "tracing", "max_traces": 0})

    @pytest.mark.parametrize(
        "name, option, value",
        [
            ("tracing", "max_traces", 0),
            ("slow_query_log", "threshold_ms", -1),
            ("slow_query_log", "max_entries", 0),
            ("rate_limit", "max_requests", 0),
            ("rate_limit", "window_seconds", 0),
            ("rate_limit", "per_login", "yes"),
        ],
    )
    def test_bad_option_value_rejected_at_its_path(self, name, option, value):
        with pytest.raises(
            ConfigurationError, match=rf"interceptors\[0\]\.{name}\.{option}: .*got"
        ):
            build_interceptors([{"name": name, option: value}])

    def test_descriptor_validates_interceptors_section(self):
        descriptor = {
            "virtual_databases": [
                {"name": "db", "backends": ["n1"], "interceptors": ["no_such_thing"]}
            ]
        }
        with pytest.raises(
            ConfigurationError,
            match=r"virtual_databases\[0\].interceptors\[0\]: expected one of",
        ):
            repro.load_descriptor(descriptor)

    def test_check_config_rejects_unknown_interceptor(self, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text(
            '{"virtual_databases": [{"name": "db", "backends": ["n1"],'
            ' "interceptors": [{"name": "slow_query_log", "threshold": 5}]}]}'
        )
        out = io.StringIO()
        assert cli_main(["check-config", str(config)], stdout=out) == 1
        assert "unknown key 'threshold'" in out.getvalue()

    def test_check_config_prints_interceptor_chain(self, tmp_path):
        config = tmp_path / "good.json"
        config.write_text(
            '{"virtual_databases": [{"name": "db", "backends": ["n1"],'
            ' "interceptors": ["tracing", {"name": "rate_limit", "max_requests": 9}]}]}'
        )
        out = io.StringIO()
        assert cli_main(["check-config", str(config)], stdout=out) == 0
        output = out.getvalue()
        assert "interceptors: metrics, tracing, rate_limit" in output
        assert "classify -> authenticate -> schedule" in output


class TestEndToEndThroughFacade:
    def test_descriptor_chain_works_through_connect(self):
        """Acceptance: slow_query_log + rate_limit configured declaratively,
        exercised through repro.connect, observable through the facade."""
        cluster = repro.load_cluster(
            {
                "virtual_databases": [
                    {
                        "name": "edge",
                        "cache": {"enabled": True},
                        "interceptors": [
                            {"name": "slow_query_log", "threshold_ms": 0},
                            {"name": "rate_limit", "max_requests": 6,
                             "window_seconds": 3600},
                        ],
                        "backends": ["e1", "e2"],
                    }
                ],
                "controllers": [{"name": "edge-ctrl"}],
            }
        )
        try:
            connection = repro.connect("cjdbc://edge-ctrl/edge?user=app&password=s")
            cursor = connection.cursor()
            cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
            cursor.execute("INSERT INTO t VALUES (?, ?)", (1, "a"))
            cursor.execute("SELECT v FROM t WHERE id = ?", (1,))
            assert cursor.fetchall() == [("a",)]
            rejected = 0
            for _ in range(6):
                try:
                    cursor.execute("SELECT v FROM t WHERE id = ?", (1,))
                except RateLimitExceededError:
                    rejected += 1
            assert rejected == 3  # 6 budget - 3 setup statements = 3 admitted
            slow_log = cluster.interceptor("edge", "slow_query_log")
            assert slow_log.statistics()["slow_queries"] >= 3
            metrics = cluster.interceptor("edge", "metrics")
            assert metrics.counters["errors"] == 3
            assert metrics.counters["cache_hits"] >= 1
        finally:
            cluster.shutdown()

    def test_console_interceptors_command(self):
        cluster = repro.load_cluster(
            {
                "virtual_databases": [
                    {"name": "condb", "backends": ["c1"], "interceptors": ["tracing"]}
                ],
                "controllers": [{"name": "con-ctrl"}],
            }
        )
        try:
            console = AdminConsole(cluster.controller("con-ctrl"))
            output = console.execute("interceptors condb")
            assert "stages: classify -> authenticate" in output
            assert "tracing" in output and "metrics" in output
        finally:
            cluster.shutdown()

    def test_runtime_interceptor_composition(self):
        manager, _ = make_manager()
        vdb_interceptors = manager.pipeline.interceptor_names
        assert vdb_interceptors == ["metrics"]
        manager.pipeline.add_interceptor(build_interceptor("tracing"))
        assert manager.pipeline.has_interceptor("tracing")
        manager.execute("SELECT v FROM kv WHERE k = 1")
        assert manager.pipeline.interceptor("tracing").traces_recorded == 1
        manager.pipeline.remove_interceptor("tracing")
        assert not manager.pipeline.has_interceptor("tracing")
        with pytest.raises(ConfigurationError):
            manager.pipeline.remove_interceptor("tracing")


class TestPerCategoryChains:
    """One compiled chain per request category, and no second read path."""

    def run_workload(self, manager):
        results = []
        for _ in range(2):
            result = manager.execute("SELECT v FROM kv WHERE k = 1")
            results.append((tuple(map(tuple, result.rows)), result.from_cache))
        manager.execute("UPDATE kv SET v = 'upd' WHERE k = 1")
        result = manager.execute("SELECT v FROM kv WHERE k = 1")
        results.append((tuple(map(tuple, result.rows)), result.from_cache))
        return results

    def test_tracing_changes_nothing_observable(self):
        """The timing wrappers sit around the same closures an untraced
        request runs: results, cache flags and counters must not move."""
        plain_manager, _ = make_manager()
        traced_manager, _ = make_manager(interceptors=["tracing"])
        assert self.run_workload(plain_manager) == self.run_workload(traced_manager)
        assert plain_manager.metrics.counters == traced_manager.metrics.counters

    def test_enforcing_authentication_rejects_reads(self):
        from repro.core.authentication import AuthenticationManager
        from repro.errors import AuthenticationError

        manager, _ = make_manager()
        enforcing = AuthenticationManager(transparent=False)
        enforcing.add_virtual_user("app", "secret")
        manager.pipeline.use_authentication_manager(enforcing)
        with pytest.raises(AuthenticationError):
            manager.execute("SELECT v FROM kv WHERE k = 1", login="intruder")
        manager.execute("SELECT v FROM kv WHERE k = 1", login="app")

    def test_reversed_stage_list_still_executes(self):
        manager, _ = make_manager()
        pipeline = manager.pipeline
        pipeline.stages = list(reversed(default_stages()))
        pipeline._recompile()
        # load_balance is terminal, so put first it is all a request reaches
        result = manager.execute("SELECT v FROM kv WHERE k = 1")
        assert [tuple(row) for row in result.rows] == [("one",)]
        assert result.from_cache is False

    def test_each_category_runs_only_the_stages_that_apply(self):
        manager, _ = make_manager(interceptors=["tracing"])
        tracer = manager.pipeline.interceptor("tracing")
        manager.execute("SELECT v FROM kv WHERE k = 1")
        manager.execute("SELECT v FROM kv WHERE k = 1")
        hit = tracer.traces()[-1]
        assert hit["cache"] == "hit"
        assert set(hit["stages"]) == {"schedule", "cache_lookup"}
        manager.execute("UPDATE kv SET v = 'two' WHERE k = 1")
        write = tracer.traces()[-1]
        assert write["category"] == "write"
        assert set(write["stages"]) == {
            "schedule", "recovery_log", "cache_invalidate", "plan", "load_balance",
        }

    def test_demarcation_outside_a_transaction_still_rejected(self):
        manager, _ = make_manager(interceptors=["tracing"])
        for sql in ("COMMIT", "ROLLBACK"):
            with pytest.raises(CJDBCError, match=f"{sql} outside of a transaction"):
                manager.execute(sql)
        assert manager.scheduler.pending_writes == 0

    def test_raising_terminal_stage_releases_ticket_for_every_category(self):
        class ExplodingStage(Stage):
            name = "load_balance"

            def compile(self, manager, category, proceed):
                def explode(context):
                    raise BackendError(f"{category} blew up")

                return explode

        manager, _ = make_manager(scheduler=PessimisticTransactionLevelScheduler())
        transaction_id = manager.begin("alice")
        # read when the chains compile: an eager BEGIN takes a ticket too
        manager.lazy_transaction_begin = False
        manager.pipeline.stages[-1] = ExplodingStage()
        manager.pipeline._recompile()
        attempts = {
            "read": lambda: manager.execute("SELECT v FROM kv WHERE k = 1"),
            "write": lambda: manager.execute("UPDATE kv SET v = 'x' WHERE k = 1"),
            "batch": lambda: manager.execute_batch(
                "INSERT INTO kv (k, v) VALUES (?, ?)", [(8, "a"), (9, "b")]
            ),
            "begin": lambda: manager.begin("bob"),
            "commit": lambda: manager.commit(transaction_id, "alice"),
            "rollback": lambda: manager.rollback(transaction_id, "alice"),
        }
        for category, attempt in attempts.items():
            with pytest.raises(BackendError, match=f"{category} blew up"):
                attempt()
            assert write_granted_at_once(manager.scheduler), category
            assert manager.scheduler.pending_writes == 0, category


class TestCachedReadCheckout:
    def test_cached_rows_are_isolated_between_clients(self):
        """Regression: one client draining/mutating its result must not
        corrupt what other clients read from the cache."""
        manager, _ = make_manager()
        first = manager.execute("SELECT v FROM kv WHERE k = 1")
        aggressor = manager.execute("SELECT v FROM kv WHERE k = 1")
        assert aggressor.from_cache is True
        aggressor.rows.clear()  # e.g. a client draining its cursor
        victim = manager.execute("SELECT v FROM kv WHERE k = 1")
        assert victim.from_cache is True
        assert list(victim.rows) == [("one",)]
        # rows are tuples: in-place cell mutation is impossible
        with pytest.raises(TypeError):
            victim.rows[0][0] = "corrupted"

    def test_checkout_visible_through_driver_cursors(self):
        cluster = repro.load_cluster(
            {
                "virtual_databases": [
                    {"name": "iso", "cache": {"enabled": True}, "backends": ["i1"]}
                ],
                "controllers": [{"name": "iso-ctrl"}],
            }
        )
        try:
            first = cluster.connect("iso", "u", "p").cursor()
            second = cluster.connect("iso", "u", "p").cursor()
            first.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(8))")
            first.execute("INSERT INTO t VALUES (?, ?)", (1, "x"))
            first.execute("SELECT v FROM t WHERE id = 1")
            assert first.fetchall() == [("x",)]
            second.execute("SELECT v FROM t WHERE id = 1")
            # the first cursor re-reads and drains its private result copy
            first.execute("SELECT v FROM t WHERE id = 1")
            assert first.from_cache
            first._result.rows.clear()
            assert second.fetchall() == [("x",)]
        finally:
            cluster.shutdown()


class TestBatchPipeline:
    """Server-side batches: one pipeline pass for N parameter sets."""

    INSERT = "INSERT INTO kv (k, v) VALUES (?, ?)"

    def make_batch(self, start, count):
        return [(start + i, f"bulk-{start + i}") for i in range(count)]

    def test_batch_takes_one_ticket_and_one_invalidation_pass(self):
        """Acceptance: a 100-row batch on a 2-backend RAIDb-1 vdb acquires
        exactly one scheduler ticket and runs exactly one cache-invalidation
        pass — not one per parameter set."""
        manager, engines = make_manager(backends=2)
        # populate the result cache so invalidation has real work to do
        manager.execute("SELECT v FROM kv WHERE k = 1")
        assert len(manager.result_cache._entries) == 1
        invalidation_passes = []
        original_invalidate = manager.result_cache.invalidate

        def counting_invalidate(write):
            invalidation_passes.append(write)
            return original_invalidate(write)

        manager.result_cache.invalidate = counting_invalidate
        writes_before = manager.scheduler.writes_scheduled
        result = manager.execute_batch(self.INSERT, self.make_batch(100, 100))
        assert manager.scheduler.writes_scheduled == writes_before + 1
        assert len(invalidation_passes) == 1
        assert invalidation_passes[0].tables == ("kv",)
        # the cached SELECT on kv was dropped by that single pass
        assert len(manager.result_cache._entries) == 0
        # aggregate update count, broadcast to both backends
        assert result.update_count == 100
        assert result.backends_executed == 2
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 101

    def test_batch_is_one_request_per_backend(self):
        manager, _ = make_manager(backends=2, cache=False)
        manager.execute_batch(self.INSERT, self.make_batch(200, 50))
        for backend in manager.backends:
            assert backend.total_batches == 1
            assert backend.total_batched_statements == 50
        assert manager.load_balancer.batches_executed == 1

    def test_batch_counted_once_by_metrics_and_rate_limit(self):
        manager, _ = make_manager(
            backends=2,
            interceptors=[
                # budget: 2 setup statements + 1 batch + 1 follow-up read
                {"name": "rate_limit", "max_requests": 4, "window_seconds": 3600}
            ],
        )
        counters_before = manager.metrics.counters
        manager.execute_batch(self.INSERT, self.make_batch(300, 40))
        counters = manager.metrics.counters
        assert counters["batches"] - counters_before["batches"] == 1
        assert counters["writes"] == counters_before["writes"]
        # the whole batch consumed ONE admission, so one more request fits
        manager.execute("SELECT v FROM kv WHERE k = 1")
        with pytest.raises(RateLimitExceededError):
            manager.execute("SELECT v FROM kv WHERE k = 1")

    def test_batch_logged_as_single_replayable_group(self):
        manager, _ = make_manager(backends=2, cache=False)
        log = manager.recovery_log
        entries_before = len(log.entries())
        sets = self.make_batch(400, 5)
        manager.execute_batch(self.INSERT, sets)
        new_entries = log.entries()[entries_before:]
        assert [e.entry_type for e in new_entries] == ["batch"]
        assert new_entries[0].sql == self.INSERT
        assert new_entries[0].parameter_sets == tuple(sets)

    def test_batch_statistics_surface(self):
        manager, _ = make_manager(backends=2, cache=False)
        manager.execute_batch(self.INSERT, self.make_batch(500, 3))
        manager.execute_batch(self.INSERT, self.make_batch(510, 120))
        stats = manager.statistics()["batches"]
        assert stats["batches_executed"] == 2
        assert stats["statements_batched"] == 123
        assert stats["statements_per_batch"] == {"2-4": 1, "65-256": 1}

    def test_batch_inside_transaction_commits_and_rolls_back(self):
        manager, engines = make_manager(backends=2, cache=False)
        transaction_id = manager.begin("alice")
        manager.execute_batch(
            self.INSERT, self.make_batch(600, 10),
            login="alice", transaction_id=transaction_id,
        )
        manager.rollback(transaction_id, "alice")
        assert engines[0].execute("SELECT COUNT(*) FROM kv").scalar() == 1
        transaction_id = manager.begin("alice")
        manager.execute_batch(
            self.INSERT, self.make_batch(700, 10),
            login="alice", transaction_id=transaction_id,
        )
        manager.commit(transaction_id, "alice")
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 11

    def test_non_write_and_empty_batches_rejected(self):
        manager, _ = make_manager(backends=1, cache=False)
        with pytest.raises(CJDBCError, match="can be batched"):
            manager.execute_batch("SELECT v FROM kv WHERE k = ?", [(1,)])
        with pytest.raises(CJDBCError, match="can be batched"):
            manager.execute_batch("CREATE TABLE nope (x INT)", [()])
        with pytest.raises(CJDBCError, match="at least one parameter set"):
            manager.execute_batch(self.INSERT, [])

    def test_batch_failure_releases_ticket(self):
        manager, engines = make_manager(backends=2, cache=False)
        for engine in engines:
            engine.catalog.drop_table("kv")
        with pytest.raises(BackendError):
            manager.execute_batch(self.INSERT, self.make_batch(800, 3))
        assert manager.scheduler.pending_writes == 0
        for backend in manager.backends:
            backend.enable()
        manager.execute("CREATE TABLE kv4 (k INT PRIMARY KEY)")


class TestRegistryCompleteness:
    def test_all_builtins_constructible_with_defaults(self):
        for name in BUILTIN_INTERCEPTORS:
            interceptor = build_interceptor(name)
            assert interceptor.name == name
            assert isinstance(interceptor.statistics(), dict)

    def test_metrics_spec_reused_not_duplicated(self):
        metrics = MetricsInterceptor()
        manager, _ = make_manager(interceptors=[metrics])
        assert manager.metrics is metrics
        assert manager.pipeline.interceptor_names.count("metrics") == 1

    def test_descriptor_metrics_entry_not_duplicated(self):
        cluster = repro.load_cluster(
            {
                "virtual_databases": [
                    {"name": "mdb", "backends": ["m1"],
                     "interceptors": ["metrics", "tracing"]}
                ],
                "controllers": [{"name": "m-ctrl"}],
            }
        )
        try:
            pipeline = cluster.virtual_database("mdb").pipeline
            assert pipeline.interceptor_names.count("metrics") == 1
        finally:
            cluster.shutdown()

    def test_metrics_interceptor_cannot_be_removed(self):
        manager, _ = make_manager()
        with pytest.raises(ConfigurationError, match="cannot be removed"):
            manager.pipeline.remove_interceptor("metrics")
        manager.execute("SELECT v FROM kv WHERE k = 1")
        assert manager.requests_executed > 0

    def test_duplicate_interceptor_names_rejected(self):
        manager, _ = make_manager(interceptors=["tracing"])
        with pytest.raises(ConfigurationError, match="already installed"):
            manager.pipeline.add_interceptor(build_interceptor("tracing"))

    def test_cacheable_read_rows_same_shape_on_miss_and_hit(self):
        """A cacheable read returns tuple rows on the first (miss) call and
        on later hits alike — no shape flip between calls."""
        manager, _ = make_manager()
        miss = manager.execute("SELECT v FROM kv WHERE k = 1")
        hit = manager.execute("SELECT v FROM kv WHERE k = 1")
        assert miss.rows == [("one",)] and hit.rows == [("one",)]
        assert (miss.from_cache, hit.from_cache) == (False, True)

    def test_rate_limit_never_blocks_commit_or_rollback(self):
        """A client over budget must still be able to end its transaction."""
        manager, _ = make_manager(
            interceptors=[
                # per-login window: alice gets 2 requests (setup ran as "")
                {"name": "rate_limit", "max_requests": 2, "window_seconds": 3600}
            ]
        )
        transaction_id = manager.begin("alice")  # alice's 1st request
        manager.execute(
            "INSERT INTO kv (k, v) VALUES (50, 'x')",
            transaction_id=transaction_id,
            login="alice",
        )  # alice's 2nd: budget exhausted
        with pytest.raises(RateLimitExceededError):
            manager.execute("SELECT v FROM kv WHERE k = 1", login="alice")
        # demarcation is exempt: the stranded transaction can still finish
        manager.commit(transaction_id, "alice")
        assert manager.active_transactions == []

    def test_short_circuited_read_counted_as_read(self):
        """Interceptors run once the category is known, so a request an
        interceptor answers is counted under its category."""
        journal = []
        manager, _ = make_manager()
        manager.pipeline.add_interceptor(
            RecordingInterceptor("gate", journal, short_circuit=True)
        )
        before = manager.metrics.counters
        before_total = manager.requests_executed
        manager.execute("SELECT v FROM kv WHERE k = 1")
        assert manager.metrics.counters["reads"] == before["reads"] + 1
        assert "intercepted" not in manager.metrics.counters
        assert manager.requests_executed == before_total + 1

    def test_result_copies_preserve_transaction_id(self):
        result = RequestResult(
            columns=["a"], rows=[(1,)], update_count=0, transaction_id=77
        )
        assert result.checkout().transaction_id == 77
        assert dataclasses.replace(result, update_count=3).transaction_id == 77

    def test_rate_limit_sweeps_idle_login_windows(self):
        clock = [0.0]
        limiter = RateLimitInterceptor(
            max_requests=100, window_seconds=1.0, clock=lambda: clock[0]
        )
        limiter._SWEEP_EVERY = 10  # fast sweep for the test
        limiter._sweep_countdown = 10
        manager, _ = make_manager(interceptors=[limiter])
        for login_index in range(8):
            manager.execute("SELECT v FROM kv WHERE k = 1", login=f"user{login_index}")
        assert limiter.statistics()["active_logins"] >= 8
        clock[0] = 100.0  # every window fully expired
        for _ in range(12):  # crosses the sweep period
            manager.execute("SELECT v FROM kv WHERE k = 1", login="steady")
        assert limiter.statistics()["active_logins"] == 1
