"""Tests for load-balancing policies and the RAIDb load balancers."""

import threading

import pytest

from repro.cluster.fixture import boot, descriptor
from repro.core.backend import DatabaseBackend
from repro.core.loadbalancer import (
    LeastPendingRequestsFirst,
    RAIDb0LoadBalancer,
    RAIDb1LoadBalancer,
    RAIDb2LoadBalancer,
    RoundRobinPolicy,
    SingleDBLoadBalancer,
    WaitForCompletion,
    WeightedRoundRobinPolicy,
    policy_from_name,
)
from repro.core.request import RequestResult
from repro.core.requestparser import RequestFactory
from repro.errors import BackendError, NoMoreBackendError, NotReplicatedError
from repro.sql import DatabaseEngine, DatabaseMetaData, dbapi

factory = RequestFactory()


def make_backend(name, tables=(), weight=1):
    engine = DatabaseEngine(f"engine-{name}")
    for table in tables:
        engine.execute(f"CREATE TABLE {table} (id INT PRIMARY KEY, v VARCHAR(20))")
    backend = DatabaseBackend(
        name=name,
        connection_factory=lambda: dbapi.connect(engine),
        metadata_factory=lambda: DatabaseMetaData(engine),
        weight=weight,
    )
    backend.enable()
    return backend, engine


class TestPolicies:
    def test_round_robin_cycles(self):
        backends = [make_backend(f"b{i}")[0] for i in range(3)]
        policy = RoundRobinPolicy()
        chosen = [policy.choose(backends).name for _ in range(6)]
        assert chosen == ["b0", "b1", "b2", "b0", "b1", "b2"]

    def test_round_robin_requires_candidates(self):
        with pytest.raises(NoMoreBackendError):
            RoundRobinPolicy().choose([])

    def test_weighted_round_robin_respects_weights(self):
        heavy, _ = make_backend("heavy", weight=3)
        light, _ = make_backend("light", weight=1)
        policy = WeightedRoundRobinPolicy()
        chosen = [policy.choose([heavy, light]).name for _ in range(8)]
        assert chosen.count("heavy") == 6
        assert chosen.count("light") == 2

    def test_weighted_round_robin_adapts_to_candidate_changes(self):
        a, _ = make_backend("a", weight=1)
        b, _ = make_backend("b", weight=1)
        policy = WeightedRoundRobinPolicy()
        policy.choose([a, b])
        # candidate set changes: should not raise and should still pick a member
        assert policy.choose([a]).name == "a"

    def test_least_pending_requests_first(self):
        busy, _ = make_backend("busy")
        idle, _ = make_backend("idle")
        busy._request_started(True)  # simulate one in-flight request
        policy = LeastPendingRequestsFirst()
        assert policy.choose([busy, idle]).name == "idle"

    def test_least_pending_reads_each_count_once(self):
        """Counts move under the policy's feet: a second read may match no minimum."""

        class Moving:
            def __init__(self, name, counts):
                self.name = name
                self._counts = iter(counts)

            @property
            def pending_requests(self):
                return next(self._counts)  # StopIteration on a read too many

        policy = LeastPendingRequestsFirst()
        # re-read, neither backend is still at the minimum (0) the first pass found
        first = Moving("first", [0, 2])
        second = Moving("second", [1, 3])
        assert policy.choose([first, second]) is first
        assert next(first._counts) == 2  # exactly one read was taken

    def test_policy_factory(self):
        assert isinstance(policy_from_name("rr"), RoundRobinPolicy)
        assert isinstance(policy_from_name("weighted round robin"), WeightedRoundRobinPolicy)
        assert isinstance(policy_from_name("LPRF"), LeastPendingRequestsFirst)
        with pytest.raises(ValueError):
            policy_from_name("random")


class TestRAIDb1:
    def test_read_one_write_all(self):
        backends = []
        engines = []
        for i in range(3):
            backend, engine = make_backend(f"b{i}", tables=("kv",))
            backends.append(backend)
            engines.append(engine)
        balancer = RAIDb1LoadBalancer()
        write = factory.create_request("INSERT INTO kv (id, v) VALUES (1, 'x')")
        outcome = balancer.execute_write_request(write, backends)
        assert outcome.backends_executed == 3
        for engine in engines:
            assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 1
        read = factory.create_request("SELECT v FROM kv WHERE id = 1")
        result = balancer.execute_read_request(read, backends)
        assert result.rows == [("x",)]

    def test_disabled_backends_are_skipped(self):
        backends = [make_backend(f"b{i}", tables=("kv",))[0] for i in range(2)]
        backends[0].disable()
        balancer = RAIDb1LoadBalancer()
        read = factory.create_request("SELECT * FROM kv")
        result = balancer.execute_read_request(read, backends)
        assert result.backend_name == "b1"

    def test_no_backend_left_raises(self):
        backend, _ = make_backend("solo", tables=("kv",))
        backend.disable()
        balancer = RAIDb1LoadBalancer()
        with pytest.raises(NoMoreBackendError):
            balancer.execute_read_request(factory.create_request("SELECT * FROM kv"), [backend])

    def test_failed_backend_triggers_failure_callback(self):
        good, _ = make_backend("good", tables=("kv",))
        bad, bad_engine = make_backend("bad")  # no kv table -> write will fail
        balancer = RAIDb1LoadBalancer()
        disabled = []
        balancer.on_backend_failure = lambda backend, exc: disabled.append(backend.name)
        write = factory.create_request("INSERT INTO kv (id, v) VALUES (1, 'x')")
        outcome = balancer.execute_write_request(write, [good, bad])
        assert outcome.successes == ["good"]
        assert "bad" in outcome.failures
        assert disabled == ["bad"]

    def test_write_failing_everywhere_raises(self):
        only, _ = make_backend("only")  # table missing
        balancer = RAIDb1LoadBalancer()
        with pytest.raises(BackendError):
            balancer.execute_write_request(
                factory.create_request("INSERT INTO kv (id) VALUES (1)"), [only]
            )

    def test_transaction_reads_stick_to_participating_backend(self):
        backends = [make_backend(f"b{i}", tables=("kv",))[0] for i in range(2)]
        balancer = RAIDb1LoadBalancer()
        write = factory.create_request(
            "INSERT INTO kv (id, v) VALUES (1, 'x')", transaction_id=5
        )
        balancer.execute_write_request(write, backends)
        read = factory.create_request("SELECT v FROM kv WHERE id = 1", transaction_id=5)
        result = balancer.execute_read_request(read, backends)
        assert result.rows == [("x",)]

    def test_early_response_waits_for_first_only(self):
        backends = [make_backend(f"b{i}", tables=("kv",))[0] for i in range(3)]
        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.FIRST)
        write = factory.create_request("INSERT INTO kv (id, v) VALUES (2, 'y')")
        outcome = balancer.execute_write_request(write, backends)
        assert outcome.result.update_count == 1
        assert 1 <= outcome.backends_executed <= 3


class TestRAIDb2:
    def build(self):
        # backend0 hosts item+author, backend1 hosts item only, backend2 hosts orders
        b0, e0 = make_backend("b0", tables=("item", "author"))
        b1, e1 = make_backend("b1", tables=("item",))
        b2, e2 = make_backend("b2", tables=("orders",))
        return [b0, b1, b2], [e0, e1, e2]

    def test_read_requires_all_tables_on_one_backend(self):
        backends, _ = self.build()
        balancer = RAIDb2LoadBalancer()
        read = factory.create_request("SELECT * FROM item i, author a WHERE i.id = a.id")
        candidates = balancer.read_candidates(read, backends)
        assert [b.name for b in candidates] == ["b0"]

    def test_read_unreplicated_combination_raises(self):
        backends, _ = self.build()
        balancer = RAIDb2LoadBalancer()
        read = factory.create_request("SELECT * FROM item, orders")
        with pytest.raises(NotReplicatedError):
            balancer.read_candidates(read, backends)

    def test_write_goes_to_hosting_backends_only(self):
        backends, engines = self.build()
        balancer = RAIDb2LoadBalancer()
        write = factory.create_request("INSERT INTO item (id, v) VALUES (1, 'x')")
        outcome = balancer.execute_write_request(write, backends)
        assert sorted(outcome.successes) == ["b0", "b1"]
        assert engines[2].catalog.has_table("orders")

    def test_write_targets_the_replicas_of_the_written_table(self):
        backends, _ = self.build()
        balancer = RAIDb2LoadBalancer()
        # author is only read: the write goes where item lives, not where author lives
        write = factory.create_request(
            "UPDATE item SET v = 'x' WHERE id IN (SELECT id FROM author)"
        )
        with pytest.raises(NotReplicatedError, match="b1 host 'item'"):
            balancer.write_targets(write, backends)
        insert = factory.create_request("INSERT INTO orders (id, v) SELECT id, v FROM orders")
        assert [b.name for b in balancer.write_targets(insert, backends)] == ["b2"]

    def test_write_reading_a_table_some_replicas_lack_is_refused_before_any_backend(self):
        cluster = boot(
            descriptor(
                "raidb2-read-write",
                4,
                replication="raidb2",
                recovery_log="none",
                replication_map={"order_line": ["b0", "b1"]},
            )
        )
        cursor = cluster.connect(cluster.name, "u", "p").cursor()
        cursor.execute("CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_i_id INT, ol_qty INT)")
        cursor.execute("CREATE TABLE t (ol_i_id INT, ol_qty INT)")
        cursor.execute("INSERT INTO order_line (ol_id, ol_i_id, ol_qty) VALUES (1, 2, 3)")
        with pytest.raises(NotReplicatedError, match="b2, b3 host 't'"):
            cursor.execute("INSERT INTO t (ol_i_id, ol_qty) SELECT ol_i_id, ol_qty FROM order_line")
        backends = cluster.virtual_database(cluster.name).backends
        assert [b.name for b in backends if b.is_enabled] == ["b0", "b1", "b2", "b3"]
        assert [cluster.engine(b.name).row_count("t") for b in backends] == [0, 0, 0, 0]

    def test_ddl_create_follows_replication_map(self):
        backends, engines = self.build()
        balancer = RAIDb2LoadBalancer(replication_map={"new_table": {"b1", "b2"}})
        ddl = factory.create_request("CREATE TABLE new_table (id INT)")
        targets = balancer.write_targets(ddl, backends)
        assert sorted(b.name for b in targets) == ["b1", "b2"]

    def test_ddl_drop_targets_hosting_backends(self):
        backends, _ = self.build()
        balancer = RAIDb2LoadBalancer()
        drop = factory.create_request("DROP TABLE author")
        targets = balancer.write_targets(drop, backends)
        assert [b.name for b in targets] == ["b0"]


class TestRAIDb0:
    def test_partitioned_routing(self):
        b0, e0 = make_backend("b0", tables=("customer",))
        b1, e1 = make_backend("b1", tables=("orders",))
        balancer = RAIDb0LoadBalancer()
        read = factory.create_request("SELECT * FROM orders")
        assert [b.name for b in balancer.read_candidates(read, [b0, b1])] == ["b1"]
        write = factory.create_request("INSERT INTO customer (id, v) VALUES (1, 'x')")
        outcome = balancer.execute_write_request(write, [b0, b1])
        assert outcome.successes == ["b0"]
        assert e1.catalog.has_table("orders")

    def test_cross_partition_query_rejected(self):
        b0, _ = make_backend("b0", tables=("customer",))
        b1, _ = make_backend("b1", tables=("orders",))
        balancer = RAIDb0LoadBalancer()
        read = factory.create_request("SELECT * FROM customer, orders")
        with pytest.raises(NotReplicatedError):
            balancer.read_candidates(read, [b0, b1])

    def test_create_table_placed_on_least_loaded_backend(self):
        b0, _ = make_backend("b0", tables=("a", "b"))
        b1, _ = make_backend("b1", tables=("c",))
        balancer = RAIDb0LoadBalancer()
        ddl = factory.create_request("CREATE TABLE fresh (id INT)")
        targets = balancer.write_targets(ddl, [b0, b1])
        assert [b.name for b in targets] == ["b1"]
        assert balancer.partition_map["fresh"] == "b1"

    def test_create_table_respects_partition_map(self):
        b0, _ = make_backend("b0")
        b1, _ = make_backend("b1")
        balancer = RAIDb0LoadBalancer(partition_map={"placed": "b0"})
        ddl = factory.create_request("CREATE TABLE placed (id INT)")
        targets = balancer.write_targets(ddl, [b0, b1])
        assert [b.name for b in targets] == ["b0"]


class _StubBackend:
    """Minimal backend stand-in for driving _broadcast deterministically."""

    def __init__(self, name):
        self.name = name
        self.is_enabled = True


class TestBroadcastSemantics:
    """WaitForCompletion semantics under mixed success/failure (paper §2.4.4)."""

    def _operation(self, behaviors):
        """behaviors: name -> callable() raising or returning a result."""
        from repro.core.request import RequestResult

        def operation(backend):
            outcome = behaviors[backend.name]()
            if outcome is None:
                return RequestResult(update_count=1)
            return outcome

        return operation

    def test_all_with_one_failure_reports_partial_success(self):
        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.ALL)
        reported = []
        balancer.on_backend_failure = lambda backend, exc: reported.append(backend.name)
        backends = [_StubBackend("a"), _StubBackend("b"), _StubBackend("c")]

        def fail():
            raise RuntimeError("boom")

        outcome = balancer.broadcast_transaction_operation(
            backends,
            self._operation({"a": lambda: None, "b": fail, "c": lambda: None}),
        )
        assert sorted(outcome.successes) == ["a", "c"]
        assert set(outcome.failures) == {"b"}
        assert reported == ["b"]
        assert outcome.backends_executed == 2
        balancer.shutdown()

    def test_majority_answers_after_quorum_with_mixed_results(self):
        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.MAJORITY)
        reported = []
        balancer.on_backend_failure = lambda backend, exc: reported.append(backend.name)
        backends = [_StubBackend("a"), _StubBackend("b"), _StubBackend("c")]

        def fail():
            raise RuntimeError("boom")

        outcome = balancer.broadcast_transaction_operation(
            backends,
            self._operation({"a": lambda: None, "b": lambda: None, "c": fail}),
        )
        assert len(outcome.successes) >= 2
        balancer.shutdown()

    def test_majority_unreachable_still_waits_for_pending_success(self):
        """2 targets, MAJORITY=2, one fast failure: the slow success decides.

        Regression: the broadcast used to conclude "failed on every backend"
        while a success was still in flight.
        """
        import threading as _threading

        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.MAJORITY)
        balancer.on_backend_failure = lambda backend, exc: None
        release = _threading.Event()

        def fail():
            raise RuntimeError("boom")

        def slow_success():
            release.wait(5.0)
            return None

        release.set()
        outcome = balancer.broadcast_transaction_operation(
            [_StubBackend("a"), _StubBackend("b")],
            self._operation({"a": fail, "b": slow_success}),
        )
        assert outcome.successes == ["b"]
        assert set(outcome.failures) == {"a"}
        balancer.shutdown()

    def test_first_late_failure_still_reaches_the_failure_callback(self):
        """Under FIRST, a failure completing after the early response must
        not vanish: it is routed through on_backend_failure (so the failure
        detector disables the diverged backend) and counted as late, and the
        outcome already returned to the caller is a frozen snapshot."""
        import threading as _threading

        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.FIRST)
        reported = []
        seen = _threading.Event()

        def on_failure(backend, exc):
            reported.append(backend.name)
            seen.set()

        balancer.on_backend_failure = on_failure
        release = _threading.Event()

        def late_fail():
            release.wait(5.0)
            raise RuntimeError("late boom")

        try:
            outcome = balancer.broadcast_transaction_operation(
                [_StubBackend("a"), _StubBackend("b")],
                self._operation({"a": lambda: None, "b": late_fail}),
            )
            # answered after the first success; the failure has not happened yet
            assert outcome.successes == ["a"]
            assert outcome.failures == {}
            release.set()
            assert seen.wait(5.0), "late failure never reached on_backend_failure"
            assert reported == ["b"]
            # the caller's outcome is a snapshot: the late failure is
            # reported through the callback and counters, not by mutating it
            assert outcome.failures == {}
            deadline = 50
            while balancer.late_failures == 0 and deadline:
                import time as _time

                _time.sleep(0.01)
                deadline -= 1
            assert balancer.late_failures == 1
            assert balancer.statistics()["late_failures"] == 1
        finally:
            release.set()
            balancer.shutdown()

    def test_every_backend_failing_raises_and_reports_each(self):
        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.FIRST)
        reported = []
        balancer.on_backend_failure = lambda backend, exc: reported.append(backend.name)

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(BackendError, match="every backend"):
            balancer.broadcast_transaction_operation(
                [_StubBackend("a"), _StubBackend("b")],
                self._operation({"a": fail, "b": fail}),
            )
        assert sorted(reported) == ["a", "b"]
        balancer.shutdown()

    def test_single_target_failure_invokes_failure_callback(self):
        """Regression: the single-backend fast path must route the failure
        through on_backend_failure exactly like the multi-backend path."""
        balancer = RAIDb1LoadBalancer()
        reported = []
        balancer.on_backend_failure = lambda backend, exc: reported.append(backend.name)

        def fail():
            raise RuntimeError("boom")

        with pytest.raises(BackendError, match="every backend"):
            balancer.broadcast_transaction_operation(
                [_StubBackend("solo")], self._operation({"solo": fail})
            )
        assert reported == ["solo"]
        balancer.shutdown()


class TestInThreadBroadcast:
    """A broadcast whose answer needs every target runs in the caller's thread."""

    @staticmethod
    def _writer_threads():
        return {t for t in threading.enumerate() if t.name.startswith("cjdbc-writer")}

    @staticmethod
    def _record_threads(backends, attribute, seen):
        for backend in backends:

            def recorded(*args, _inner=getattr(backend, attribute), _name=backend.name):
                seen.append((_name, threading.get_ident()))
                return _inner(*args)

            setattr(backend, attribute, recorded)

    def test_write_batch_and_commit_run_every_target_on_the_callers_thread(self):
        before = self._writer_threads()
        backends = [make_backend(f"it{i}", tables=("kv",))[0] for i in range(3)]
        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.ALL)
        seen = []
        for attribute in ("execute_request", "execute_batch", "commit"):
            self._record_threads(backends, attribute, seen)
        write = factory.create_request(
            "INSERT INTO kv (id, v) VALUES (1, 'x')", transaction_id=11
        )
        assert balancer.execute_write_request(write, backends).backends_executed == 3
        batch = factory.create_batch_request(
            "INSERT INTO kv (id, v) VALUES (?, ?)", [(2, "y"), (3, "z")], transaction_id=11
        )
        assert balancer.execute_batch_request(batch, backends).backends_executed == 3
        commit = balancer.broadcast_transaction_operation(
            backends, lambda backend: backend.commit(11)
        )
        assert commit.backends_executed == 3
        caller = threading.get_ident()
        # three operations, each on every target in order, all on this thread
        assert seen == [(f"it{i}", caller) for _ in range(3) for i in range(3)]
        assert self._writer_threads() <= before
        balancer.shutdown()

    def test_failure_on_the_first_target_still_runs_the_later_ones(self):
        balancer = RAIDb1LoadBalancer()
        reported, ran = [], []
        balancer.on_backend_failure = lambda backend, exc: reported.append(backend.name)

        def operation(backend):
            ran.append(backend.name)
            if backend.name == "a":
                raise RuntimeError("boom")
            return RequestResult(update_count=1)

        outcome = balancer.broadcast_transaction_operation(
            [_StubBackend(name) for name in "abc"], operation
        )
        assert ran == ["a", "b", "c"]
        assert outcome.successes == ["b", "c"]
        assert set(outcome.failures) == {"a"}
        assert reported == ["a"]
        balancer.shutdown()

    def test_every_target_failing_raises_chained_from_a_failure(self):
        balancer = RAIDb1LoadBalancer()
        reported = []
        balancer.on_backend_failure = lambda backend, exc: reported.append(backend.name)
        errors = {name: RuntimeError(f"boom {name}") for name in "abc"}

        def operation(backend):
            raise errors[backend.name]

        with pytest.raises(BackendError, match="every backend") as raised:
            balancer.broadcast_transaction_operation(
                [_StubBackend(name) for name in "abc"], operation
            )
        assert any(raised.value.__cause__ is error for error in errors.values())
        assert reported == ["a", "b", "c"]
        balancer.shutdown()

    def test_first_answers_before_a_slow_target_finishes(self):
        balancer = RAIDb1LoadBalancer(wait_for_completion=WaitForCompletion.FIRST)
        release = threading.Event()
        threads = {}

        def operation(backend):
            threads[backend.name] = threading.get_ident()
            if backend.name == "slow":
                release.wait(5.0)
            return RequestResult(update_count=1)

        try:
            outcome = balancer.broadcast_transaction_operation(
                [_StubBackend("fast"), _StubBackend("slow")], operation
            )
            assert outcome.successes == ["fast"]
            assert not release.is_set()
            # an early response is the one case that still uses the pool
            assert threading.get_ident() not in threads.values()
        finally:
            release.set()
            balancer.shutdown()


class TestReadFailover:
    def test_read_failure_reroutes_and_reports(self):
        good, _ = make_backend("good", tables=("kv",))
        bad, _ = make_backend("bad", tables=("kv",))
        bad.ensure_fault_injector().inject(
            "error", match_sql="SELECT", operations=("execute",)
        )
        balancer = RAIDb1LoadBalancer()
        reported = []
        balancer.on_backend_read_failure = (
            lambda backend, exc: reported.append(backend.name)
        )
        read = factory.create_request("SELECT * FROM kv")
        # whichever backend the policy picks first, the read must succeed
        for _ in range(4):
            result = balancer.execute_read_request(read, [good, bad])
            assert result.backend_name == "good"
        assert set(reported) <= {"bad"}
        assert balancer.read_failovers == len(reported)
        balancer.shutdown()

    def test_read_with_no_surviving_candidate_raises(self):
        only, _ = make_backend("only", tables=("kv",))
        only.ensure_fault_injector().inject("error", operations=("execute",))
        balancer = RAIDb1LoadBalancer()
        read = factory.create_request("SELECT * FROM kv")
        with pytest.raises(BackendError):
            balancer.execute_read_request(read, [only])
        balancer.shutdown()

    def test_transaction_bound_read_does_not_fail_over(self):
        backends = [make_backend(f"tb{i}", tables=("kv",))[0] for i in range(2)]
        balancer = RAIDb1LoadBalancer()
        write = factory.create_request(
            "INSERT INTO kv (id, v) VALUES (1, 'x')", transaction_id=9
        )
        balancer.execute_write_request(write, backends)
        for backend in backends:
            backend.ensure_fault_injector().inject(
                "error", match_sql="SELECT", operations=("execute",)
            )
        read = factory.create_request("SELECT v FROM kv WHERE id = 1", transaction_id=9)
        with pytest.raises(BackendError):
            balancer.execute_read_request(read, backends)
        assert balancer.read_failovers == 0
        balancer.shutdown()


class TestSingleDB:
    def test_everything_routed_to_single_backend(self):
        backend, engine = make_backend("solo", tables=("kv",))
        other, _ = make_backend("ignored", tables=("kv",))
        balancer = SingleDBLoadBalancer()
        write = factory.create_request("INSERT INTO kv (id, v) VALUES (1, 'x')")
        outcome = balancer.execute_write_request(write, [backend, other])
        assert outcome.successes == ["solo"]
