"""Tests for the finer-grained schedulers: table locks, MVCC snapshots, and
the cross-variant guarantees (writer starvation, wait accounting, barriers,
conflict retry)."""

import sys
import threading
import time

import pytest

from repro.bench.chaos import digest_mismatches
from repro.cluster import Cluster
from repro.cluster.registry import ControllerRegistry
from repro.core import BackendConfig, VirtualDatabaseConfig
from repro.core.request import (
    CommitRequest,
    RollbackRequest,
    SelectRequest,
    WriteRequest,
)
from repro.core.requestparser import RequestFactory
from repro.core.retry import RetryPolicy
from repro.core.scheduler import (
    SCHEDULER_NAMES,
    MVCCScheduler,
    OptimisticTransactionLevelScheduler,
    PassThroughScheduler,
    PessimisticTransactionLevelScheduler,
    TableLockScheduler,
    build_scheduler,
    canonical_scheduler_name,
    describe_scheduler,
)
from repro.errors import (
    ConfigurationError,
    LockTimeoutError,
    SerializationConflictError,
)
from repro.sql import DatabaseEngine

ORDERED_SCHEDULERS = [
    OptimisticTransactionLevelScheduler,
    PessimisticTransactionLevelScheduler,
    TableLockScheduler,
    MVCCScheduler,
]


def read(tables=("t",), transaction_id=None):
    return SelectRequest(
        sql=f"SELECT 1 FROM {tables[0]}", tables=tuple(tables),
        transaction_id=transaction_id,
    )


def write(tables=("t",), transaction_id=None):
    return WriteRequest(
        sql=f"UPDATE {tables[0]} SET a = 1", tables=tuple(tables),
        transaction_id=transaction_id,
    )


def run_in_thread(target, timeout=2.0):
    """Run ``target`` in a daemon thread; return (thread, finished_event)."""
    finished = threading.Event()

    def wrapper():
        target()
        finished.set()

    thread = threading.Thread(target=wrapper, daemon=True)
    thread.start()
    return thread, finished


class TestTableLockScheduler:
    def test_disjoint_table_writes_run_concurrently(self):
        scheduler = TableLockScheduler()
        first = scheduler.schedule_write(write(tables=("a",)))
        done = threading.Event()

        def second_writer():
            ticket = scheduler.schedule_write(write(tables=("b",)))
            done.set()
            ticket.release()

        run_in_thread(second_writer)
        assert done.wait(timeout=1.0), "disjoint-table write was blocked"
        first.release()

    def test_same_table_writes_are_serialized(self):
        scheduler = TableLockScheduler()
        first = scheduler.schedule_write(write(tables=("a",)))
        done = threading.Event()

        def second_writer():
            ticket = scheduler.schedule_write(write(tables=("a",)))
            done.set()
            ticket.release()

        run_in_thread(second_writer)
        assert not done.wait(timeout=0.1)
        first.release()
        assert done.wait(timeout=1.0)

    def test_reads_block_only_on_written_tables(self):
        scheduler = TableLockScheduler()
        write_ticket = scheduler.schedule_write(write(tables=("a",)))
        same_table = threading.Event()
        other_table = threading.Event()

        def same_table_reader():
            ticket = scheduler.schedule_read(read(tables=("a",)))
            same_table.set()
            ticket.release()

        def other_table_reader():
            ticket = scheduler.schedule_read(read(tables=("b",)))
            other_table.set()
            ticket.release()

        run_in_thread(other_table_reader)
        assert other_table.wait(timeout=1.0), "read on an unwritten table blocked"
        run_in_thread(same_table_reader)
        assert not same_table.wait(timeout=0.1)
        write_ticket.release()
        assert same_table.wait(timeout=1.0)
        stats = scheduler.statistics()
        assert stats["table_lock"]["lock_waits"] >= 1

    def test_waiting_writer_blocks_new_readers_on_its_table(self):
        scheduler = TableLockScheduler()
        read_ticket = scheduler.schedule_read(read(tables=("a",)))
        writer_done = threading.Event()
        late_reader_done = threading.Event()

        def writer():
            ticket = scheduler.schedule_write(write(tables=("a",)))
            writer_done.set()
            ticket.release()

        run_in_thread(writer)
        assert not writer_done.wait(timeout=0.1)

        def late_reader():
            ticket = scheduler.schedule_read(read(tables=("a",)))
            late_reader_done.set()
            ticket.release()

        run_in_thread(late_reader)
        # writer preference per table: the late reader queues behind the writer
        assert not late_reader_done.wait(timeout=0.1)
        read_ticket.release()
        assert writer_done.wait(timeout=1.0)
        assert late_reader_done.wait(timeout=1.0)

    def test_lock_timeout_raises_and_counts(self):
        scheduler = TableLockScheduler(lock_timeout=0.05)
        holder = scheduler.schedule_write(write(tables=("a",)))
        with pytest.raises(LockTimeoutError):
            scheduler.schedule_write(write(tables=("a",)))
        holder.release()
        stats = scheduler.statistics()
        assert stats["table_lock"]["lock_timeouts"] == 1
        # the timed-out acquisition must not leak partial locks
        scheduler.schedule_write(write(tables=("a",))).release()
        assert scheduler.statistics()["table_lock"]["locked_tables"] == 0

    def test_invalid_lock_timeout_rejected(self):
        with pytest.raises(ValueError):
            TableLockScheduler(lock_timeout=0)

    def test_commit_without_tables_takes_only_global_lock(self):
        scheduler = TableLockScheduler()
        table_writer = scheduler.schedule_write(write(tables=("a",)))
        done = threading.Event()

        def committer():
            ticket = scheduler.schedule_write(CommitRequest(sql="commit", transaction_id=9))
            done.set()
            ticket.release()

        run_in_thread(committer)
        assert done.wait(timeout=1.0), "commit was blocked by an unrelated table lock"
        table_writer.release()


def take(scheduler, kind):
    """Acquire one ticket of ``kind``; return the callable that releases it."""
    if kind == "barrier":
        barrier = scheduler.write_barrier()
        barrier.__enter__()
        return lambda: barrier.__exit__(None, None, None)
    request = {
        "read": lambda: read(tables=("a",)),
        "write": lambda: write(tables=("a",)),
        "commit": lambda: CommitRequest(sql="commit", transaction_id=9),
        # the parser names no table for DROP INDEX
        "no_table_write": lambda: RequestFactory().create_request("DROP INDEX i"),
    }[kind]()
    if kind == "read":
        return scheduler.schedule_read(request).release
    return scheduler.schedule_write(request).release


KINDS = ("read", "write", "commit", "barrier", "no_table_write")
_ORDERED = {frozenset((a, b)) for a in KINDS[1:] for b in KINDS[1:]}

#: scheduler -> the pairs of ticket kinds that block each other
CONFLICTS = {
    "passthrough": {frozenset(("barrier",))},
    "optimistic": _ORDERED,
    "pessimistic": _ORDERED | {frozenset(("read", kind)) for kind in KINDS[1:]},
    "table_lock": {
        frozenset(pair)
        for pair in [
            ("read", "write"),
            ("write", "write"),
            ("write", "barrier"),
            ("write", "no_table_write"),
            ("commit", "barrier"),
            ("commit", "no_table_write"),
            ("barrier", "barrier"),
            ("barrier", "no_table_write"),
            ("no_table_write", "no_table_write"),
        ]
    },
    "mvcc": _ORDERED,
}


class TestLockPlans:
    """Which held ticket makes which new ticket wait, variant by variant."""

    @pytest.mark.parametrize("name", SCHEDULER_NAMES)
    def test_blocking_pairs(self, name):
        expected = {
            (held, new)
            for held in KINDS
            for new in KINDS
            if frozenset((held, new)) in CONFLICTS[name]
        }
        # one fresh scheduler per (held, new) pair, all pairs at once
        started = time.monotonic()
        cases = []
        for held in KINDS:
            for new in KINDS:
                scheduler = build_scheduler(name)
                release_held = take(scheduler, held)
                done = threading.Event()

                def second(scheduler=scheduler, new=new, done=done):
                    take(scheduler, new)()
                    done.set()

                run_in_thread(second)
                cases.append((held, new, release_held, done))
        for held, new, _, done in cases:
            if (held, new) not in expected:
                done.wait(timeout=1.0)
        time.sleep(max(0.0, 0.1 - (time.monotonic() - started)))
        blocked = {(held, new) for held, new, _, done in cases if not done.is_set()}
        for _, _, release_held, _ in cases:
            release_held()
        assert all(done.wait(timeout=1.0) for *_, done in cases), "a ticket never got in"
        assert blocked == expected

    @pytest.mark.parametrize("name", ["pessimistic", "table_lock"])
    def test_lock_table_under_thread_churn(self, name):
        """More threads than cores and a short switch interval: a write never
        overlaps another ticket on its table, and nothing stays locked."""
        scheduler = build_scheduler(name)
        guard = threading.Lock()
        holders = {"t": [0, 0], "u": [0, 0]}  # table -> [readers, writers]
        violations = []
        stop = threading.Event()

        def client(index):
            table = ("t", "u")[index % 2]
            writes = index % 3 == 0
            while not stop.is_set():
                ticket = (
                    scheduler.schedule_write(write(tables=(table,)))
                    if writes
                    else scheduler.schedule_read(read(tables=(table,)))
                )
                with guard:
                    holders[table][writes] += 1
                    readers, writers = holders[table]
                    if writers > 1 or (writers and readers):
                        violations.append((table, readers, writers))
                with guard:
                    holders[table][writes] -= 1
                ticket.release()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            clients = [
                threading.Thread(target=client, args=(index,), daemon=True)
                for index in range(8)
            ]
            for thread in clients:
                thread.start()
            time.sleep(0.5)
            stop.set()
            for thread in clients:
                thread.join(timeout=5.0)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in clients)
        assert violations == []
        assert scheduler.pending_writes == 0
        assert scheduler.statistics()["writes_scheduled"] > 0
        with scheduler.write_barrier():  # nothing left holding "*"
            pass
        assert scheduler.statistics()["write_wait"]["max_seconds"] < 5.0

    def test_write_with_no_parsed_table_is_ordered_against_ddl(self):
        """``DROP INDEX i`` names no table; it must still wait for ``CREATE
        INDEX i ON kv (v)`` under ``table_lock``, or replicas could apply the
        pair in different orders and end with different schemas."""
        scheduler = TableLockScheduler()
        factory = RequestFactory()
        create = scheduler.schedule_write(factory.create_request("CREATE INDEX i ON kv (v)"))
        done = threading.Event()

        def drop():
            scheduler.schedule_write(factory.create_request("DROP INDEX i")).release()
            done.set()

        run_in_thread(drop)
        assert not done.wait(timeout=0.1), "DROP INDEX overlapped CREATE INDEX"
        create.release()
        assert done.wait(timeout=1.0)


class TestMVCCScheduler:
    def test_reads_never_block_during_write(self):
        scheduler = MVCCScheduler()
        write_ticket = scheduler.schedule_write(write())
        done = threading.Event()

        def reader():
            ticket = scheduler.schedule_read(read())
            done.set()
            ticket.release()

        run_in_thread(reader)
        assert done.wait(timeout=1.0), "mvcc read blocked behind a write"
        write_ticket.release()

    def test_read_tickets_carry_snapshot_version(self):
        scheduler = MVCCScheduler()
        ticket = scheduler.schedule_read(read(transaction_id=1))
        assert ticket.snapshot_version == 0
        ticket.release()
        # an autocommit write commits a new version...
        scheduler.schedule_write(write()).release()
        # ...which transaction 1's later reads do NOT observe (stable snapshot)
        later = scheduler.schedule_read(read(transaction_id=1))
        assert later.snapshot_version == 0
        later.release()
        # while a new transaction snapshots the committed version
        fresh = scheduler.schedule_read(read(transaction_id=2))
        assert fresh.snapshot_version == 1
        fresh.release()

    def test_first_committer_wins_on_statement(self):
        scheduler = MVCCScheduler()
        # transaction 1 takes its snapshot at v0
        scheduler.schedule_read(read(transaction_id=1)).release()
        # a competing autocommit write commits table "t" at v1
        scheduler.schedule_write(write()).release()
        with pytest.raises(SerializationConflictError):
            scheduler.schedule_write(write(transaction_id=1))
        assert scheduler.statistics()["mvcc"]["conflicts_detected"] == 1

    def test_first_committer_wins_at_commit(self):
        scheduler = MVCCScheduler()
        # transaction 1 writes "t" with no conflict at the time
        scheduler.schedule_read(read(transaction_id=1)).release()
        scheduler.schedule_write(write(transaction_id=1)).release()
        # then a competing autocommit write commits "t"
        scheduler.schedule_write(write()).release()
        with pytest.raises(SerializationConflictError):
            scheduler.schedule_write(CommitRequest(sql="commit", transaction_id=1))

    def test_rollback_clears_transaction_state(self):
        scheduler = MVCCScheduler()
        scheduler.schedule_read(read(transaction_id=1)).release()
        scheduler.schedule_write(write()).release()
        with pytest.raises(SerializationConflictError):
            scheduler.schedule_write(write(transaction_id=1))
        scheduler.schedule_write(
            RollbackRequest(sql="rollback", transaction_id=1)
        ).release()
        stats = scheduler.statistics()["mvcc"]
        assert stats["active_transactions"] == 0
        # the rolled-back transaction never became a committed version
        assert stats["committed_version"] == 1


class TestWriterStarvation:
    def test_pessimistic_writer_preference(self):
        """Regression: a continuous reader stream must not starve a writer.

        Once the writer is waiting, new readers queue behind it instead of
        piling onto the shared lock.
        """
        scheduler = PessimisticTransactionLevelScheduler()
        first_read = scheduler.schedule_read(read())
        writer_done = threading.Event()

        def writer():
            ticket = scheduler.schedule_write(write())
            writer_done.set()
            ticket.release()

        run_in_thread(writer)
        assert not writer_done.wait(timeout=0.05)
        late_read_done = threading.Event()

        def late_reader():
            ticket = scheduler.schedule_read(read())
            late_read_done.set()
            ticket.release()

        run_in_thread(late_reader)
        assert not late_read_done.wait(timeout=0.1), (
            "a reader overtook the waiting writer (starvation regression)"
        )
        first_read.release()
        assert writer_done.wait(timeout=1.0), "writer starved by readers"
        assert late_read_done.wait(timeout=1.0)

    def test_pessimistic_writer_acquires_under_reader_churn(self):
        scheduler = PessimisticTransactionLevelScheduler()
        stop = threading.Event()

        def reader_stream():
            while not stop.is_set():
                scheduler.schedule_read(read()).release()

        readers = [threading.Thread(target=reader_stream, daemon=True) for _ in range(3)]
        for thread in readers:
            thread.start()
        try:
            started = time.monotonic()
            ticket = scheduler.schedule_write(write())
            waited = time.monotonic() - started
            ticket.release()
            assert waited < 1.0, f"writer waited {waited:.3f}s under reader churn"
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=1.0)


class TestWaitAccounting:
    def test_blocked_read_is_recorded(self):
        scheduler = PessimisticTransactionLevelScheduler()
        write_ticket = scheduler.schedule_write(write())

        def reader():
            scheduler.schedule_read(read()).release()

        _, finished = run_in_thread(reader)
        time.sleep(0.05)
        write_ticket.release()
        assert finished.wait(timeout=1.0)
        stats = scheduler.statistics()["read_wait"]
        assert stats["count"] >= 1
        assert stats["total_seconds"] >= 0.04
        assert stats["max_seconds"] >= 0.04

    def test_blocked_write_is_recorded(self):
        scheduler = OptimisticTransactionLevelScheduler()
        first = scheduler.schedule_write(write())

        def second_writer():
            scheduler.schedule_write(write()).release()

        _, finished = run_in_thread(second_writer)
        time.sleep(0.05)
        first.release()
        assert finished.wait(timeout=1.0)
        stats = scheduler.statistics()["write_wait"]
        assert stats["count"] >= 1
        assert stats["max_seconds"] >= 0.04

    def test_uncontended_operations_count_no_waits(self):
        scheduler = MVCCScheduler()
        for _ in range(10):
            scheduler.schedule_read(read()).release()
            scheduler.schedule_write(write()).release()
        stats = scheduler.statistics()
        assert stats["read_wait"]["count"] == 0
        assert stats["write_wait"]["count"] == 0


class TestWriteBarrier:
    @pytest.mark.parametrize("scheduler_class", ORDERED_SCHEDULERS)
    def test_barrier_excludes_writes(self, scheduler_class):
        scheduler = scheduler_class()
        admitted = threading.Event()

        with scheduler.write_barrier():
            def writer():
                scheduler.schedule_write(write()).release()
                admitted.set()

            run_in_thread(writer)
            assert not admitted.wait(timeout=0.1), "write admitted during barrier"
        assert admitted.wait(timeout=1.0), "write not admitted after barrier"

    @pytest.mark.parametrize(
        "scheduler_class",
        [
            PassThroughScheduler,
            OptimisticTransactionLevelScheduler,
            TableLockScheduler,
            MVCCScheduler,
        ],
    )
    def test_barrier_does_not_block_reads(self, scheduler_class):
        scheduler = scheduler_class()
        done = threading.Event()
        with scheduler.write_barrier():
            def reader():
                scheduler.schedule_read(read()).release()
                done.set()

            run_in_thread(reader)
            assert done.wait(timeout=1.0), "read blocked by a write barrier"

    @pytest.mark.parametrize("scheduler_class", ORDERED_SCHEDULERS)
    def test_barrier_waits_for_inflight_write(self, scheduler_class):
        scheduler = scheduler_class()
        ticket = scheduler.schedule_write(write())
        entered = threading.Event()

        def barrier_taker():
            with scheduler.write_barrier():
                entered.set()

        run_in_thread(barrier_taker)
        assert not entered.wait(timeout=0.1), "barrier entered over an in-flight write"
        ticket.release()
        assert entered.wait(timeout=1.0)

    @pytest.mark.parametrize(
        "scheduler_class", [PassThroughScheduler] + ORDERED_SCHEDULERS
    )
    def test_barrier_stress_with_concurrent_writers(self, scheduler_class):
        """Repeated barriers under sustained writes: no deadlock, no leak."""
        scheduler = scheduler_class()
        stop = threading.Event()

        def writer_stream(index):
            while not stop.is_set():
                table = ("t", "u")[index % 2]
                scheduler.schedule_write(write(tables=(table,))).release()

        writers = [
            threading.Thread(target=writer_stream, args=(index,), daemon=True)
            for index in range(3)
        ]
        for thread in writers:
            thread.start()
        try:
            for _ in range(10):
                with scheduler.write_barrier():
                    pass
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=2.0)
        assert scheduler.statistics()["write_barriers"] == 10
        assert scheduler.pending_writes == 0


class TestResynchronizationBarrierPath:
    """The resynchronizer's catch-up barrier works under every scheduler."""

    @pytest.mark.parametrize(
        "scheduler", ["optimistic", "pessimistic", "table_lock", "mvcc"]
    )
    def test_reintegration_under_writes(self, scheduler):
        label = f"resync-{scheduler}"
        engines = {name: DatabaseEngine(f"{label}-{name}") for name in ("b0", "b1")}
        config = VirtualDatabaseConfig(
            name=label,
            backends=[
                BackendConfig(name=name, engine=engine)
                for name, engine in engines.items()
            ],
            replication="raidb1",
            scheduler=scheduler,
            recovery_log="memory",
        )
        cluster = Cluster.from_configs(
            config, controller_name=label, registry=ControllerRegistry()
        )
        try:
            vdb = cluster.virtual_database(label)
            manager = vdb.request_manager
            manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32))")
            injector = vdb.fault_injector("b1")
            injector.crash()
            manager.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (1, "while-down"))
            assert not manager.get_backend("b1").is_enabled
            injector.recover()

            stop = threading.Event()

            def writer_stream():
                key = 100
                while not stop.is_set():
                    key += 1
                    manager.execute(
                        "INSERT INTO kv (k, v) VALUES (?, ?)", (key, f"live-{key}")
                    )

            thread = threading.Thread(target=writer_stream, daemon=True)
            thread.start()
            try:
                # no prior checkpoint -> peer bootstrap: dump a healthy peer
                # and restore it under the scheduler's write barrier
                vdb.resynchronize_backend("b1")
            finally:
                stop.set()
                thread.join(timeout=2.0)
            assert manager.get_backend("b1").is_enabled
            assert manager.scheduler.statistics()["write_barriers"] >= 1
            assert digest_mismatches(engines) == []
        finally:
            cluster.shutdown()


class TestRunInTransactionRetry:
    def build_cluster(self, scheduler="mvcc"):
        label = f"retry-{scheduler}"
        engines = {name: DatabaseEngine(f"{label}-{name}") for name in ("b0", "b1")}
        config = VirtualDatabaseConfig(
            name=label,
            backends=[
                BackendConfig(name=name, engine=engine)
                for name, engine in engines.items()
            ],
            replication="raidb1",
            scheduler=scheduler,
            recovery_log="memory",
        )
        cluster = Cluster.from_configs(
            config, controller_name=label, registry=ControllerRegistry()
        )
        manager = cluster.virtual_database(label).request_manager
        manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(32))")
        manager.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (1, "seed"))
        return cluster, manager

    def test_conflict_is_retried_and_succeeds(self):
        cluster, manager = self.build_cluster()
        try:
            attempts = []

            def operation(transaction_id):
                attempts.append(transaction_id)
                # stamp the snapshot before the competing write
                manager.execute(
                    "SELECT v FROM kv WHERE k = ?", (1,), transaction_id=transaction_id
                )
                if len(attempts) == 1:
                    # a competing autocommit write moves kv past the snapshot
                    manager.execute("UPDATE kv SET v = ? WHERE k = ?", ("rival", 1))
                manager.execute(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    ("mine", 1),
                    transaction_id=transaction_id,
                )
                return "done"

            policy = RetryPolicy(max_attempts=3, backoff=0.01, jitter=0.0)
            outcome = manager.run_in_transaction(operation, retry_policy=policy)
            assert outcome == "done"
            assert len(attempts) == 2
            assert manager.statistics()["serialization_retries"] == 1
            result = manager.execute("SELECT v FROM kv WHERE k = ?", (1,))
            assert result.rows[0][0] == "mine"
        finally:
            cluster.shutdown()

    def test_exhausted_retries_raise_the_conflict(self):
        cluster, manager = self.build_cluster()
        try:
            def always_conflicts(transaction_id):
                manager.execute(
                    "SELECT v FROM kv WHERE k = ?", (1,), transaction_id=transaction_id
                )
                manager.execute("UPDATE kv SET v = ? WHERE k = ?", ("rival", 1))
                manager.execute(
                    "UPDATE kv SET v = ? WHERE k = ?",
                    ("mine", 1),
                    transaction_id=transaction_id,
                )

            policy = RetryPolicy(max_attempts=2, backoff=0.01, jitter=0.0)
            with pytest.raises(SerializationConflictError):
                manager.run_in_transaction(always_conflicts, retry_policy=policy)
            # every attempt's transaction was rolled back
            assert manager.scheduler.statistics()["mvcc"]["active_transactions"] == 0
        finally:
            cluster.shutdown()

    def test_retry_policy_marks_conflicts_retryable(self):
        policy = RetryPolicy()
        assert policy.is_retryable(SerializationConflictError("conflict"))


class TestFactoryAndDescription:
    def test_build_scheduler_variants(self):
        assert isinstance(build_scheduler("table_lock"), TableLockScheduler)
        assert isinstance(build_scheduler("snapshot"), MVCCScheduler)
        built = build_scheduler({"name": "table_lock", "lock_timeout": 2.5})
        assert built.lock_timeout == 2.5

    def test_build_scheduler_rejects_bad_specs(self):
        with pytest.raises(ConfigurationError):
            build_scheduler("fancy")
        with pytest.raises(ConfigurationError):
            build_scheduler({"lock_timeout": 1.0})
        with pytest.raises(ConfigurationError):
            build_scheduler({"name": "mvcc", "lock_timeout": 1.0})
        with pytest.raises(ConfigurationError):
            build_scheduler({"name": "table_lock", "conflict_policy": "detect_only"})
        with pytest.raises(ConfigurationError):
            build_scheduler({"name": "table_lock", "granularity": "row"})
        with pytest.raises(ConfigurationError):
            build_scheduler({"name": "table_lock", "lock_timeout": -1})
        with pytest.raises(ConfigurationError, match=r"unknown key 'conflict_policy'"):
            build_scheduler({"name": "mvcc", "conflict_policy": "first_committer_wins"})

    def test_canonical_names_and_aliases(self):
        assert canonical_scheduler_name("TableLock") == "table_lock"
        assert canonical_scheduler_name("snapshot") == "mvcc"
        with pytest.raises(ConfigurationError):
            canonical_scheduler_name("fifo")

    def test_describe_scheduler(self):
        assert describe_scheduler("optimistic") == "optimistic"
        described = describe_scheduler({"name": "table_lock", "lock_timeout": 2.0})
        assert described == "table_lock (lock_timeout: 2.0)"
        with pytest.raises(ConfigurationError):
            describe_scheduler({"name": "mvcc", "conflict_policy": "nope"})
