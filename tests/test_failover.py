"""Tests for failure detection and live backend re-integration."""

import random
import sys
import threading
import time

import pytest

from repro.cluster import Cluster
from repro.cluster.fixture import digest_mismatches, table_digests
from repro.cluster.registry import ControllerRegistry
from repro.core import BackendConfig, VirtualDatabaseConfig
from repro.core.failover import FailureDetector
from repro.core.management.console import AdminConsole
from repro.core.recovery import MemoryRecoveryLog
from repro.core.scheduler import (
    OptimisticTransactionLevelScheduler,
    PassThroughScheduler,
    PessimisticTransactionLevelScheduler,
)
from repro.errors import CheckpointError
from repro.sql import DatabaseEngine


def build_cluster(backends=3, label="failover", **config_kwargs):
    engines = [DatabaseEngine(f"{label}-{i}") for i in range(backends)]
    config_kwargs.setdefault("recovery_log", "memory")
    cluster = Cluster.from_configs(
        VirtualDatabaseConfig(
            name=f"{label}-db",
            backends=[
                BackendConfig(name=f"b{i}", engine=engine)
                for i, engine in enumerate(engines)
            ],
            **config_kwargs,
        ),
        controller_name=f"{label}-ctrl",
        registry=ControllerRegistry(),
    )
    vdb = cluster.virtual_database(f"{label}-db")
    vdb.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    for key in range(5):
        vdb.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (key, f"v{key}"))
    return cluster, vdb, engines


def diverged(engines):
    return digest_mismatches({engine.name: engine for engine in engines})


class TestFailureDetector:
    def test_write_failure_disables_and_records_marker(self):
        cluster, vdb, _ = build_cluster(label="fd-write")
        vdb.fault_injector("b1").crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (100, 'x')")
        backend = vdb.get_backend("b1")
        assert not backend.is_enabled
        events = vdb.failure_detector.events
        assert len(events) == 1
        assert events[0]["kind"] == "write"
        assert events[0]["checkpoint"] in vdb.request_manager.recovery_log.checkpoint_names()
        cluster.shutdown()

    def test_on_backend_disabled_listener_still_fires(self):
        cluster, vdb, _ = build_cluster(label="fd-listener")
        disabled = []
        vdb.request_manager.failure_detector.add_listener(
            lambda backend, exc, event: disabled.append(backend.name)
        )
        vdb.fault_injector("b2").crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (101, 'x')")
        assert disabled == ["b2"]
        cluster.shutdown()

    def test_read_errors_disable_after_threshold(self):
        cluster, vdb, _ = build_cluster(label="fd-read", read_error_threshold=3)
        vdb.fault_injector("b0").inject(
            "error", match_sql="SELECT", operations=("execute",)
        )
        # reads fail over transparently; the detector counts each failure
        for _ in range(6):
            vdb.execute("SELECT v FROM kv WHERE k = 1")
        assert not vdb.get_backend("b0").is_enabled
        assert vdb.failure_detector.events[0]["kind"] == "read"
        assert vdb.request_manager.load_balancer.read_failovers >= 3
        cluster.shutdown()

    def test_one_read_error_does_not_disable(self):
        cluster, vdb, _ = build_cluster(label="fd-read1", read_error_threshold=3)
        vdb.fault_injector("b0").inject(
            "error", one_shot=True, match_sql="SELECT", operations=("execute",)
        )
        for _ in range(4):
            vdb.execute("SELECT v FROM kv WHERE k = 1")
        assert vdb.get_backend("b0").is_enabled
        assert vdb.failure_detector.read_error_count("b0") == 1
        cluster.shutdown()

    def test_detector_counter_resets_on_recovery(self):
        cluster, vdb, _ = build_cluster(label="fd-reset", read_error_threshold=5)
        detector = vdb.failure_detector
        backend = vdb.get_backend("b0")
        detector.record_read_failure(backend, RuntimeError("boom"))
        assert detector.read_error_count("b0") == 1
        detector.note_backend_recovered(backend)
        assert detector.read_error_count("b0") == 0
        cluster.shutdown()

    def test_duplicate_failures_produce_one_event(self):
        cluster, vdb, _ = build_cluster(label="fd-dup")
        detector = vdb.failure_detector
        backend = vdb.get_backend("b1")
        assert detector.record_write_failure(backend, RuntimeError("a"))
        assert not detector.record_write_failure(backend, RuntimeError("b"))
        assert len(detector.events) == 1
        cluster.shutdown()

    def test_invalid_threshold_rejected(self):
        cluster, vdb, _ = build_cluster(label="fd-bad")
        with pytest.raises(Exception):
            FailureDetector(vdb.request_manager, read_error_threshold=0)
        cluster.shutdown()


class TestBackendResynchronizer:
    def test_resync_restores_and_replays(self):
        cluster, vdb, engines = build_cluster(label="rs-basic")
        vdb.checkpoint_backend("b1", name="rs-basic-genesis")
        injector = vdb.fault_injector("b1")
        injector.crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (200, 'after')")
        assert not vdb.get_backend("b1").is_enabled
        vdb.execute("INSERT INTO kv (k, v) VALUES (201, 'later')")
        injector.recover()
        replayed = vdb.resynchronize_backend("b1")
        assert replayed >= 2
        assert vdb.get_backend("b1").is_enabled
        counts = {e.name: e.execute("SELECT COUNT(*) FROM kv").scalar() for e in engines}
        assert len(set(counts.values())) == 1
        cluster.shutdown()

    def test_resync_exercises_write_barrier(self):
        cluster, vdb, _ = build_cluster(label="rs-barrier")
        vdb.checkpoint_backend("b2", name="rs-barrier-genesis")
        vdb.fault_injector("b2").crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (300, 'x')")
        vdb.fault_injector("b2").recover()
        before = vdb.request_manager.scheduler.statistics()["write_barriers"]
        vdb.resynchronize_backend("b2")
        after = vdb.request_manager.scheduler.statistics()["write_barriers"]
        assert after == before + 1
        cluster.shutdown()

    def test_resync_leaves_open_transactions_for_client_commit(self):
        """A transaction still open during resync commits on the recovered backend."""
        cluster, vdb, engines = build_cluster(label="rs-open")
        vdb.checkpoint_backend("b1", name="rs-open-genesis")
        vdb.fault_injector("b1").crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (400, 'x')")  # disables b1
        tid = vdb.begin("alice")
        vdb.execute(
            "INSERT INTO kv (k, v) VALUES (401, 'open')", transaction_id=tid, login="alice"
        )
        vdb.fault_injector("b1").recover()
        vdb.resynchronize_backend("b1")
        backend = vdb.get_backend("b1")
        assert backend.is_enabled
        # the replayed-but-uncommitted transaction is open on b1, so the
        # client's own commit reaches it through the normal broadcast
        assert backend.has_transaction(tid)
        vdb.commit(tid, "alice")
        counts = {e.name: e.execute("SELECT COUNT(*) FROM kv").scalar() for e in engines}
        assert len(set(counts.values())) == 1
        cluster.shutdown()

    def test_resync_retries_and_reports_failure_while_crashed(self):
        cluster, vdb, _ = build_cluster(label="rs-fail")
        vdb.checkpoint_backend("b0", name="rs-fail-genesis")
        vdb.fault_injector("b0").crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (500, 'x')")
        vdb.resynchronizer.max_attempts = 2
        vdb.resynchronizer.retry_delay = 0.001
        with pytest.raises(CheckpointError, match="2 attempts"):
            vdb.resynchronize_backend("b0")
        stats = vdb.resynchronizer.statistics()
        assert stats["resyncs_failed"] == 1
        assert stats["history"][0]["attempts"] == 2
        cluster.shutdown()

    def test_bootstrap_from_peer_without_checkpoint(self):
        """RAIDb-1 re-integration works with no dump: snapshot a healthy peer."""
        cluster, vdb, engines = build_cluster(label="rs-boot")
        vdb.fault_injector("b1").crash()
        vdb.execute("INSERT INTO kv (k, v) VALUES (600, 'x')")
        vdb.fault_injector("b1").recover()
        vdb.resynchronize_backend("b1")
        assert vdb.get_backend("b1").is_enabled
        counts = {e.name: e.execute("SELECT COUNT(*) FROM kv").scalar() for e in engines}
        assert len(set(counts.values())) == 1
        cluster.shutdown()

    def test_auto_resync_reintegrates_in_background(self):
        cluster, vdb, engines = build_cluster(label="rs-auto", auto_resync=True)
        assert vdb.auto_resync
        vdb.checkpoint_backend("b2", name="rs-auto-genesis")
        injector = vdb.fault_injector("b2")
        injector.inject("error", after_n_ops=1, one_shot=True)
        vdb.execute("INSERT INTO kv (k, v) VALUES (700, 'x')")
        # the transient error disabled b2 and scheduled a background resync;
        # the fault is one-shot so the resync succeeds on its own
        vdb.resynchronizer.wait(timeout=10.0)
        assert vdb.get_backend("b2").is_enabled
        assert vdb.resynchronizer.statistics()["resyncs_succeeded"] == 1
        cluster.shutdown()

    def test_resync_requires_recovery_log(self):
        cluster, vdb, _ = build_cluster(label="rs-nolog", recovery_log="none")
        vdb.get_backend("b0").disable()
        vdb.resynchronizer.max_attempts = 1
        with pytest.raises(CheckpointError, match="recovery log"):
            vdb.resynchronize_backend("b0")
        cluster.shutdown()


class TestOneWayBackIn:
    """recover, online checkpoint, resync and peer bootstrap are one procedure.

    Each test pins a defect one of the former copies had; the injected
    events are deterministic (a wrapped log read or dump), no sleeps.
    """

    @staticmethod
    def write_after_first_log_read(vdb, key):
        """One INSERT lands right after the online replay took its log snapshot."""
        log = vdb.request_manager.recovery_log
        read = log.entries_since_checkpoint
        fired = []

        def reading(checkpoint_name):
            entries = read(checkpoint_name)
            if not fired:
                fired.append(key)
                vdb.execute("INSERT INTO kv (k, v) VALUES (?, 'late')", (key,))
            return entries

        log.entries_since_checkpoint = reading
        return fired

    def test_recover_catches_a_write_racing_the_replay(self):
        cluster, vdb, engines = build_cluster(backends=2, label="one-recover")
        checkpoint = vdb.checkpoint_backend("b1")
        vdb.disable_backend("b1")
        vdb.execute("INSERT INTO kv (k, v) VALUES (800, 'while-down')")
        fired = self.write_after_first_log_read(vdb, 801)
        assert vdb.recover_backend("b1", checkpoint) == 2
        assert fired == [801]
        assert vdb.get_backend("b1").is_enabled
        assert diverged(engines) == []
        cluster.shutdown()

    def test_online_checkpoint_catches_a_write_racing_the_replay(self):
        cluster, vdb, engines = build_cluster(backends=2, label="one-ckpt")
        fired = self.write_after_first_log_read(vdb, 811)
        vdb.checkpoint_backend("b1")
        assert fired == [811]
        assert vdb.get_backend("b1").is_enabled
        assert diverged(engines) == []
        cluster.shutdown()

    def test_peer_cut_leaves_the_donor_enabled_and_serving_reads(self):
        cluster, vdb, engines = build_cluster(backends=2, label="one-donor")
        vdb.disable_backend("b1")
        vdb.execute("INSERT INTO kv (k, v) VALUES (820, 'while-down')")
        donor_states = []
        vdb.get_backend("b0").add_state_listener(
            lambda backend: donor_states.append(backend.state)
        )
        octopus = vdb.checkpointing_service.octopus
        dump_engine = octopus.dump_engine
        reads = []

        def dumping(engine, *args, **kwargs):
            reads.append(vdb.execute("SELECT v FROM kv WHERE k = 820").scalar())
            return dump_engine(engine, *args, **kwargs)

        octopus.dump_engine = dumping
        vdb.resynchronize_backend("b1")
        assert reads == ["while-down"]
        assert donor_states == []
        assert vdb.get_backend("b1").is_enabled
        assert diverged(engines) == []
        cluster.shutdown()

    def build_partial(self, label):
        """RAIDb-2: t1 on b0,b1; t2 on b1,b2; five rows each."""
        cluster, vdb, engines = build_cluster(
            label=label,
            replication="raidb2",
            replication_map={"t1": ["b0", "b1"], "t2": ["b1", "b2"]},
        )
        for table in ("t1", "t2"):
            vdb.execute(f"CREATE TABLE {table} (k INT PRIMARY KEY, v VARCHAR(20))")
            for key in range(5):
                vdb.execute(f"INSERT INTO {table} (k, v) VALUES (?, 'seed')", (key,))
        vdb.resynchronizer.max_attempts = 1
        return cluster, vdb, engines

    def test_partial_replication_cut_takes_each_table_from_a_live_host(self):
        cluster, vdb, engines = self.build_partial("one-raidb2")
        vdb.disable_backend("b1")
        for table in ("t1", "t2"):
            for key in range(5, 10):
                vdb.execute(f"INSERT INTO {table} (k, v) VALUES (?, 'while-down')", (key,))
        vdb.resynchronize_backend("b1")
        assert vdb.get_backend("b1").is_enabled
        b0, b1, b2 = (table_digests(engine) for engine in engines)
        assert b1["t1"] == b0["t1"]
        assert b1["t2"] == b2["t2"]
        assert engines[1].row_count("t2") == 10
        assert "t2" not in b0 and "t1" not in b2
        cluster.shutdown()

    def test_partial_replication_cut_refuses_a_table_with_no_live_host(self):
        cluster, vdb, engines = self.build_partial("one-raidb2-dead")
        vdb.disable_backend("b1")
        vdb.disable_backend("b2")
        with pytest.raises(CheckpointError, match="t2"):
            vdb.resynchronize_backend("b1")
        assert not vdb.get_backend("b1").is_enabled
        cluster.shutdown()

    def test_orphaned_transaction_is_rolled_back_tracked_one_stays_open(self):
        cluster, vdb, engines = build_cluster(backends=2, label="one-orphan")
        # its own table: the engine locks per table, and the orphan would
        # otherwise block the live transaction's replay until it is settled
        vdb.execute("CREATE TABLE ghosts (k INT PRIMARY KEY)")
        vdb.checkpoint_backend("b1", name="one-orphan-genesis")
        vdb.disable_backend("b1")
        # a client that vanished: begin and a write in the log, no outcome,
        # and the request manager does not know the transaction
        log = vdb.request_manager.recovery_log
        log.log_begin("ghost", 999)
        log.log_request("INSERT INTO ghosts (k) VALUES (830)", (), "ghost", 999)
        tid = vdb.begin("alice")
        vdb.execute(
            "INSERT INTO kv (k, v) VALUES (831, 'open')", transaction_id=tid, login="alice"
        )
        vdb.resynchronize_backend("b1")
        backend = vdb.get_backend("b1")
        assert backend.active_transactions == [tid]
        vdb.commit(tid, "alice")
        assert backend.active_transactions == []
        assert diverged(engines) == []
        assert engines[1].row_count("ghosts") == 0
        cluster.shutdown()

    def test_last_checkpoint_is_the_most_recent_not_the_greatest_name(self):
        cluster, vdb, engines = build_cluster(backends=2, label="one-last")
        vdb.checkpoint_backend("b1", name="weekly")
        vdb.execute("INSERT INTO kv (k, v) VALUES (840, 'x')")
        vdb.checkpoint_backend("b1", name="nightly")
        service = vdb.checkpointing_service
        assert service.last_checkpoint().name == "nightly"
        assert service.last_checkpoint("b1").name == "nightly"
        assert service.last_checkpoint("b0") is None
        vdb.disable_backend("b1")
        vdb.execute("INSERT INTO kv (k, v) VALUES (841, 'y')")
        # restores the newer dump and replays the shorter tail
        assert vdb.resynchronize_backend("b1") == 1
        assert vdb.get_backend("b1").last_known_checkpoint == "nightly"
        cluster.shutdown()

    @pytest.mark.parametrize(
        "command",
        ["recover {db} b1 {ckpt}", "resync {db} b1 {ckpt}", "enable {db} b1 {ckpt}",
         "resync {db} b1", "recover {db} b1"],
    )
    def test_console_commands_share_the_routine(self, command):
        cluster, vdb, engines = build_cluster(backends=2, label="one-console")
        console = AdminConsole(cluster.controller("one-console-ctrl"))
        vdb.checkpoint_backend("b1", name="older")
        vdb.checkpoint_backend("b0", name="newer")
        vdb.disable_backend("b1")
        vdb.execute("INSERT INTO kv (k, v) VALUES (850, 'while-down')")
        output = console.execute(command.format(db="one-console-db", ckpt="newer"))
        assert "error" not in output
        backend = vdb.get_backend("b1")
        assert backend.is_enabled
        # named: that checkpoint; not named: the backend's own most recent
        assert backend.last_known_checkpoint == ("newer" if "{ckpt}" in command else "older")
        assert diverged(engines) == []
        cluster.shutdown()


class TestReachableLog:
    """Dropping the log's unreachable head never changes what a recovery reads."""

    @staticmethod
    def mirrored(vdb, monkeypatch, block=4):
        """Trim eagerly, and copy every entry into a reference log that never trims."""
        monkeypatch.setattr(MemoryRecoveryLog, "TRIM_BLOCK", block)
        log = vdb.request_manager.recovery_log
        reference = MemoryRecoveryLog()
        for entry in log.entries():
            reference._append(entry)
        append, both = log._append, threading.Lock()

        def appending(entry):
            with both:
                reference._append(entry)
                append(entry)

        log._append = appending
        return log, reference

    @staticmethod
    def assert_same_tails(vdb, log, reference):
        names = vdb.checkpointing_service.checkpoint_names()
        for name in names:
            assert log.entries_since_checkpoint(name) == reference.entries_since_checkpoint(name)
        assert len(log) == len(reference)
        return names

    @pytest.mark.parametrize("seed", [3, 17, 29, 2024])
    def test_seeded_operator_sequences_read_what_an_untrimmed_log_reads(self, seed, monkeypatch):
        rng = random.Random(seed)
        cluster, vdb, engines = build_cluster(label=f"reach-{seed}", auto_resync=True)
        log, reference = self.mirrored(vdb, monkeypatch)
        service = vdb.checkpointing_service
        keys = iter(range(1000, 100_000))
        seen = set()

        def write():
            for _ in range(rng.randint(1, 9)):
                vdb.execute("INSERT INTO kv (k, v) VALUES (?, 'w')", (next(keys),))

        def cut():
            service.cut()

        def online_checkpoint():
            name = rng.choice(["again", None])  # a name taken twice moves its marker
            vdb.checkpoint_backend(rng.choice(["b1", "b2"]), name=name)

        def catch_up():
            backend = rng.choice(["b1", "b2"])
            vdb.disable_backend(backend)
            write()
            stored = service.checkpoint_names()
            vdb.resynchronize_backend(backend, rng.choice([None, *stored]))

        def failed_online_checkpoint():
            backend = vdb.get_backend(rng.choice(["b1", "b2"]))
            dump_engine = service.octopus.dump_engine

            def failing(engine, *args, **kwargs):
                write()  # lands between the marker and the dump that fails
                raise RuntimeError("dump failed")

            service.octopus.dump_engine = failing
            try:
                with pytest.raises(CheckpointError):
                    service.cut(source=backend)
            finally:
                service.octopus.dump_engine = dump_engine
            vdb.resynchronize_backend(backend.name)

        def auto_resync():
            backend = rng.choice(["b1", "b2"])
            vdb.fault_injector(backend).inject("error", after_n_ops=1, one_shot=True)
            write()
            vdb.resynchronizer.wait(timeout=10.0)
            assert vdb.get_backend(backend).is_enabled

        actions = [write, write, cut, online_checkpoint, catch_up, failed_online_checkpoint, auto_resync]
        for _ in range(40):
            rng.choice(actions)()
            seen.update(self.assert_same_tails(vdb, log, reference))
        assert all(backend.is_enabled for backend in vdb.backends)
        assert diverged(engines) == []
        assert seen and 0 < log.floor <= len(log) == len(reference)
        cluster.shutdown()

    def test_write_between_an_online_cuts_marker_and_its_store_is_replayed(self, monkeypatch):
        cluster, vdb, engines = build_cluster(backends=2, label="reach-window")
        log, reference = self.mirrored(vdb, monkeypatch, block=1)
        service = vdb.checkpointing_service
        dump_engine = service.octopus.dump_engine

        def dumping(engine, *args, **kwargs):
            # b1 left at the marker; nothing is stored yet, and these writes
            # are each a block's worth
            for key in (900, 901, 902):
                vdb.execute("INSERT INTO kv (k, v) VALUES (?, 'window')", (key,))
            return dump_engine(engine, *args, **kwargs)

        service.octopus.dump_engine = dumping
        checkpoint = service.checkpoint_backend(vdb.get_backend("b1"))
        assert [entry.parameters for entry in reference.entries_since_checkpoint(checkpoint.name)] == [
            (900,), (901,), (902,)
        ]
        self.assert_same_tails(vdb, log, reference)
        assert vdb.get_backend("b1").is_enabled
        assert diverged(engines) == []
        cluster.shutdown()

    def test_cuts_beside_concurrent_writers_always_find_their_marker(self, monkeypatch):
        """Three writers trim the log a block of four at a time while cuts come and go."""
        cluster, vdb, engines = build_cluster(backends=2, label="reach-stress")
        log, reference = self.mirrored(vdb, monkeypatch)
        service = vdb.checkpointing_service
        stop, errors = threading.Event(), []

        def writer(base):
            try:
                for key in range(base, base + 100_000):
                    if stop.is_set():
                        return
                    vdb.execute("INSERT INTO kv (k, v) VALUES (?, 'w')", (key,))
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        writers = [threading.Thread(target=writer, args=(base,)) for base in (10**6, 2 * 10**6, 3 * 10**6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in writers:
                thread.start()
            cuts = 0
            deadline = time.monotonic() + 0.5
            while time.monotonic() < deadline and not errors:
                with service.cutting() as checkpoint:
                    time.sleep(0.002)  # writes land, and trim, while the cut is held
                    tail = log.entries_since_checkpoint(checkpoint.name)
                    later = reference.entries_since_checkpoint(checkpoint.name)
                    assert later[: len(tail)] == tail
                cuts += 1
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert errors == [] and not any(thread.is_alive() for thread in writers)
        assert cuts > 0 and log.floor > 0 and len(log) == len(reference)
        assert service.checkpoint_names() == []
        assert diverged(engines) == []
        cluster.shutdown()

    def test_a_cut_made_for_one_catch_up_is_forgotten_with_it(self, monkeypatch):
        cluster, vdb, engines = build_cluster(label="reach-transient", auto_resync=True)
        log, _reference = self.mirrored(vdb, monkeypatch)
        vdb.fault_injector("b2").inject("error", after_n_ops=1, one_shot=True)
        vdb.execute("INSERT INTO kv (k, v) VALUES (950, 'x')")
        vdb.resynchronizer.wait(timeout=10.0)
        assert vdb.get_backend("b2").is_enabled
        # no dump is held and the log is not pinned at the resync's marker
        assert vdb.checkpointing_service.checkpoint_names() == []
        for key in range(960, 980):
            vdb.execute("INSERT INTO kv (k, v) VALUES (?, 'after')", (key,))
        assert len(log.entries()) < log.TRIM_BLOCK
        assert diverged(engines) == []
        cluster.shutdown()


class TestTransactionConnectionHygiene:
    """Failure paths must never silently commit, and pooled connections
    must come back in autocommit mode (chaos-found bugs)."""

    def build_single(self, label):
        engine = DatabaseEngine(f"hyg-{label}")
        cluster = Cluster.from_configs(
            VirtualDatabaseConfig(
                name=f"hyg-{label}",
                backends=[BackendConfig(name="b0", engine=engine)],
                replication="single",
                recovery_log="memory",
            ),
            controller_name=f"hyg-{label}",
            registry=ControllerRegistry(),
        )
        vdb = cluster.virtual_database(f"hyg-{label}")
        vdb.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
        return cluster, vdb, engine

    def test_failed_rollback_does_not_commit_the_transaction(self):
        cluster, vdb, engine = self.build_single("rb")
        tid = vdb.begin("alice")
        vdb.execute(
            "INSERT INTO kv (k, v) VALUES (1, 'x')", transaction_id=tid, login="alice"
        )
        vdb.fault_injector("b0").inject("error", operations=("rollback",), one_shot=True)
        with pytest.raises(Exception):
            vdb.rollback(tid, "alice")
        # the client was told the rollback failed; the writes must NOT be
        # durably committed behind its back
        assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 0
        cluster.shutdown()

    def test_failed_commit_does_not_commit_locally(self):
        cluster, vdb, engine = self.build_single("cm")
        tid = vdb.begin("alice")
        vdb.execute(
            "INSERT INTO kv (k, v) VALUES (2, 'y')", transaction_id=tid, login="alice"
        )
        vdb.fault_injector("b0").inject("error", operations=("commit",), one_shot=True)
        with pytest.raises(Exception):
            vdb.commit(tid, "alice")
        assert engine.execute("SELECT COUNT(*) FROM kv").scalar() == 0
        cluster.shutdown()

    def test_pooled_connection_returns_to_autocommit_after_commit(self):
        """A transaction commit must not leave its pooled connection in
        manual-commit mode: the next autocommit statement on it would hold
        table locks forever and stall every later write."""
        cluster, vdb, engine = self.build_single("pool")
        tid = vdb.begin("alice")
        vdb.execute(
            "INSERT INTO kv (k, v) VALUES (3, 'z')", transaction_id=tid, login="alice"
        )
        vdb.commit(tid, "alice")
        # rotate through the pool with autocommit writes; none may leave an
        # open engine transaction holding a write lock behind
        for index in range(10, 22):
            vdb.execute("INSERT INTO kv (k, v) VALUES (?, ?)", (index, "a"))
        for table_lock in engine.lock_manager._locks.values():
            assert table_lock._writer is None, "autocommit write left a lock held"
        cluster.shutdown()


class TestWriteBarrier:
    @pytest.mark.parametrize(
        "scheduler_class",
        [PassThroughScheduler, OptimisticTransactionLevelScheduler,
         PessimisticTransactionLevelScheduler],
    )
    def test_barrier_enters_and_exits(self, scheduler_class):
        scheduler = scheduler_class()
        with scheduler.write_barrier():
            pass
        assert scheduler.statistics()["write_barriers"] == 1

    def test_barrier_blocks_writes_until_released(self):
        from repro.core.requestparser import RequestFactory

        scheduler = OptimisticTransactionLevelScheduler()
        factory = RequestFactory()
        order = []
        entered = threading.Event()
        release = threading.Event()

        def holder():
            with scheduler.write_barrier():
                entered.set()
                release.wait(5.0)
                order.append("barrier")

        def writer():
            entered.wait(5.0)
            ticket = scheduler.schedule_write(factory.create_request("UPDATE t SET a = 1"))
            order.append("write")
            ticket.release()

        threads = [threading.Thread(target=holder), threading.Thread(target=writer)]
        for thread in threads:
            thread.start()
        entered.wait(5.0)
        release.set()
        for thread in threads:
            thread.join(5.0)
        assert order == ["barrier", "write"]
