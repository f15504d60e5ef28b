"""Tests for the recovery log, Octopus dump/restore and checkpointing."""

import pytest

from repro.core.recovery import (
    FileRecoveryLog,
    MemoryRecoveryLog,
    Octopus,
)
from repro.core.recovery.recovery_log import LogEntry
from repro.sql import DatabaseEngine, dbapi


class TestMemoryRecoveryLog:
    def test_entries_are_ordered_and_typed(self):
        log = MemoryRecoveryLog()
        log.log_begin("alice", 1)
        log.log_request("INSERT INTO t VALUES (1)", (), "alice", 1)
        log.log_commit("alice", 1)
        log.log_rollback("bob", 2)
        entries = log.entries()
        assert [e.entry_type for e in entries] == ["begin", "write", "commit", "rollback"]
        assert [e.log_id for e in entries] == [1, 2, 3, 4]

    def test_checkpoint_marker_and_replay_window(self):
        log = MemoryRecoveryLog()
        log.log_request("INSERT INTO t VALUES (1)", (), "", None)
        log.insert_checkpoint_marker("cp1")
        log.log_request("INSERT INTO t VALUES (2)", (), "", None)
        log.log_request("INSERT INTO t VALUES (3)", (), "", None)
        since = log.entries_since_checkpoint("cp1")
        assert [e.sql for e in since] == ["INSERT INTO t VALUES (2)", "INSERT INTO t VALUES (3)"]
        assert log.checkpoint_names() == ["cp1"]

    def test_unknown_checkpoint_raises(self):
        log = MemoryRecoveryLog()
        with pytest.raises(KeyError):
            log.entries_since_checkpoint("nope")

    def test_clear(self):
        log = MemoryRecoveryLog()
        log.log_request("x", (), "", None)
        log.clear()
        assert len(log) == 0

    def test_clear_after_a_trim_starts_over(self):
        log = MemoryRecoveryLog()
        log.retain_from(None)
        for _ in range(log.TRIM_BLOCK + 3):
            log.log_request("x", (), "", None)
        assert log.floor == log.TRIM_BLOCK
        log.clear()
        assert (len(log), log.floor, log.entries()) == (0, 0, [])
        for _ in range(2 * log.TRIM_BLOCK):
            log.log_request("x", (), "", None)
        assert len(log) == len(log.entries()) == 2 * log.TRIM_BLOCK


class TestLogRetention:
    """The memory log keeps what a recovery can reach, ``len`` counts what was recorded."""

    @staticmethod
    def write(log, count):
        for _ in range(count):
            log.log_request("UPDATE t SET n = n + 1 WHERE k = ?", (1,), "alice", None)

    def test_a_log_nobody_told_otherwise_keeps_everything(self):
        log = MemoryRecoveryLog()
        self.write(log, 3 * log.TRIM_BLOCK)
        assert len(log) == len(log.entries()) == 3 * log.TRIM_BLOCK
        assert log.floor == 0

    def test_unreachable_head_is_dropped_a_block_at_a_time(self):
        log = MemoryRecoveryLog()
        block = log.TRIM_BLOCK
        self.write(log, 10)
        log.retain_from(10)
        self.write(log, 3 * block)
        assert log.floor == 0  # ten unreachable entries are not worth a pass
        log.retain_from(2 * block + 5)
        assert log.floor == 2 * block + 5
        assert [entry.log_id for entry in log.entries()][:2] == [2 * block + 6, 2 * block + 7]
        assert len(log) == 3 * block + 10

    def test_50000_writes_with_nothing_reachable_hold_at_most_a_block(self):
        from tests.conftest import make_cluster

        _controller, vdb, _engines = make_cluster("retaindb", backend_count=1)
        log = vdb.request_manager.recovery_log
        assert vdb.checkpointing_service.checkpoint_names() == []
        held = []
        for _ in range(50):
            self.write(log, 1000)
            held.append(len(log.entries()))
        assert len(log) == 50_000
        assert max(held) < log.TRIM_BLOCK
        stats = vdb.statistics()["recovery_log"]
        assert stats == {"recorded": 50_000, "retained": held[-1], "floor": 50_000 - held[-1]}

    def test_writes_through_the_virtual_database_are_counted_not_kept(self):
        from tests.conftest import make_cluster

        _controller, vdb, _engines = make_cluster("retaindb2", backend_count=1)
        vdb.execute("CREATE TABLE t (k INT PRIMARY KEY, n INT)")
        vdb.execute("INSERT INTO t (k, n) VALUES (1, 0)")
        log = vdb.request_manager.recovery_log
        writes = log.TRIM_BLOCK + 50
        for _ in range(writes):
            vdb.execute("UPDATE t SET n = n + 1 WHERE k = ?", (1,))
        assert len(log) == writes + 2
        assert len(log.entries()) < log.TRIM_BLOCK
        assert vdb.execute("SELECT n FROM t").scalar() == writes

    def test_a_stored_checkpoint_keeps_its_tail_until_replaced(self):
        from tests.conftest import make_cluster

        _controller, vdb, _engines = make_cluster("retaindb3", backend_count=2)
        vdb.execute("CREATE TABLE t (k INT PRIMARY KEY, n INT)")
        log = vdb.request_manager.recovery_log
        vdb.checkpoint_backend("backend1", name="held")
        self.write(log, 2 * log.TRIM_BLOCK)
        assert len(log.entries_since_checkpoint("held")) == 2 * log.TRIM_BLOCK
        # the same name taken again moves the floor up to the new marker
        vdb.checkpoint_backend("backend1", name="held")
        assert log.entries_since_checkpoint("held") == []
        assert log.floor >= 2 * log.TRIM_BLOCK

    def test_durable_logs_keep_their_history(self, tmp_path):
        log = FileRecoveryLog(str(tmp_path / "kept.jsonl"))
        self.write(log, 5)
        log.retain_from(None)
        self.write(log, 5)
        assert len(log) == len(log.entries()) == 10
        assert log.floor == 0

    def test_len_of_a_durable_log_does_not_read_it(self, tmp_path, monkeypatch):
        """Statistics and every cut take ``len(log)``: it must not parse the file."""
        path = str(tmp_path / "counted.jsonl")
        self.write(FileRecoveryLog(path), 7)
        log = FileRecoveryLog(path)  # resumes the count of what is on disk
        self.write(log, 3)
        monkeypatch.setattr(log, "entries", lambda: pytest.fail("len() read the log"))
        assert len(log) == 10


class TestFileRecoveryLog:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "recovery.jsonl")
        log = FileRecoveryLog(path)
        log.log_request("INSERT INTO t VALUES (?)", (1,), "alice", 7)
        log.insert_checkpoint_marker("cp")
        reloaded = FileRecoveryLog(path)
        entries = reloaded.entries()
        assert entries[0].sql == "INSERT INTO t VALUES (?)"
        assert entries[0].parameters == (1,)
        assert entries[1].entry_type == "checkpoint"
        # id allocation resumes after the existing entries
        new_entry = reloaded.log_request("x", (), "", None)
        assert new_entry.log_id == 3

    def test_missing_file_is_empty(self, tmp_path):
        log = FileRecoveryLog(str(tmp_path / "does-not-exist.jsonl"))
        assert log.entries() == []

    def test_log_entry_json_round_trip(self):
        entry = LogEntry(5, "bob", 3, "UPDATE t SET a = ?", (9,), "write", None)
        assert LogEntry.from_json(entry.to_json()) == entry

    def test_parameter_sets_rejected_on_non_batch_entries(self):
        entry = LogEntry(6, "bob", 3, "UPDATE t SET a = ?", (9,), "write", None)
        with pytest.raises(ValueError, match="not a batch group"):
            entry.parameter_sets


class TestOctopus:
    def build_source(self):
        engine = DatabaseEngine("source")
        engine.execute(
            "CREATE TABLE item (i_id INT PRIMARY KEY AUTO_INCREMENT, i_title VARCHAR(40) NOT NULL,"
            " i_cost FLOAT)"
        )
        engine.execute("CREATE INDEX idx_title ON item (i_title)")
        engine.execute("INSERT INTO item (i_title, i_cost) VALUES ('a', 1.0), ('b', 2.0)")
        return engine

    def test_dump_and_restore(self):
        source = self.build_source()
        octopus = Octopus()
        dump = octopus.dump_engine(source, "snapshot-1")
        assert dump.row_count() == 2
        destination = DatabaseEngine("destination")
        restored = octopus.restore_engine(dump, destination)
        assert restored == 2
        assert destination.execute("SELECT COUNT(*) FROM item").scalar() == 2
        # indexes and schema are re-created
        assert "idx_title" in destination.catalog.get_table("item").schema.indexes
        # auto-increment continues after restored keys
        destination.execute("INSERT INTO item (i_title) VALUES ('c')")
        assert destination.execute("SELECT MAX(i_id) FROM item").scalar() == 3

    def test_dump_to_file_round_trip(self, tmp_path):
        source = self.build_source()
        octopus = Octopus()
        path = str(tmp_path / "dump.json")
        octopus.dump_to_file(source, path)
        destination = DatabaseEngine("from-file")
        assert octopus.restore_from_file(path, destination) == 2

    def test_restore_truncates_existing_data(self):
        source = self.build_source()
        octopus = Octopus()
        dump = octopus.dump_engine(source)
        destination = DatabaseEngine("dirty")
        destination.execute("CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(40), i_cost FLOAT)")
        destination.execute("INSERT INTO item VALUES (99, 'stale', 0.0)")
        octopus.restore_engine(dump, destination, truncate=True)
        titles = [
            row[0]
            for row in destination.execute("SELECT i_title FROM item ORDER BY i_title").rows
        ]
        assert titles == ["a", "b"]

    def test_copy_table_between_connections(self):
        source = self.build_source()
        destination = DatabaseEngine("copy-destination")
        octopus = Octopus()
        copied = octopus.copy_table(
            dbapi.connect(source),
            dbapi.connect(destination),
            "item",
            ["i_id", "i_title", "i_cost"],
            create_sql="CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(40), i_cost FLOAT)",
        )
        assert copied == 2
        assert destination.execute("SELECT COUNT(*) FROM item").scalar() == 2


class TestCheckpointingWithVirtualDatabase:
    def test_checkpoint_and_recover_backend(self):
        from tests.conftest import make_cluster
        from repro.core import connect as cjdbc_connect

        controller, vdb, engines = make_cluster("cpdb", backend_count=2)
        connection = cjdbc_connect(controller, "cpdb", "admin", "admin")
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        cursor.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")

        checkpoint_name = vdb.checkpoint_backend("backend1")
        assert checkpoint_name in vdb.checkpointing_service.checkpoint_names()
        assert vdb.get_backend("backend1").is_enabled

        # keep writing after the checkpoint, then crash backend1 and wipe it
        cursor.execute("INSERT INTO t VALUES (3, 'c')")
        vdb.get_backend("backend1").disable()
        engines[1].catalog.drop_table("t")

        replayed = vdb.recover_backend("backend1", checkpoint_name)
        assert replayed >= 1
        assert vdb.get_backend("backend1").is_enabled
        assert engines[1].execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_recover_backend_after_batched_writes(self):
        """Batch log groups replay atomically: a backend wiped after a
        checkpoint catches up on writes that arrived as server-side batches."""
        from tests.conftest import make_cluster
        from repro.core import connect as cjdbc_connect

        controller, vdb, engines = make_cluster("cpbatch", backend_count=2)
        connection = cjdbc_connect(controller, "cpbatch", "admin", "admin")
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        checkpoint_name = vdb.checkpoint_backend("backend1")

        # everything after the checkpoint arrives as batches
        statement = connection.prepare("INSERT INTO t VALUES (?, ?)")
        statement.executemany([(i, f"v{i}") for i in range(40)])
        cursor.executemany("INSERT INTO t VALUES (?, ?)", [(100, "x"), (101, "y")])
        # the recovery log holds batch groups, not per-row entries
        batch_entries = [
            e
            for e in vdb.request_manager.recovery_log.entries_since_checkpoint(
                checkpoint_name
            )
            if e.entry_type == "batch"
        ]
        assert [len(e.parameter_sets) for e in batch_entries] == [40, 2]

        vdb.get_backend("backend1").disable()
        engines[1].catalog.drop_table("t")
        replayed = vdb.recover_backend("backend1", checkpoint_name)
        assert replayed >= 2
        assert vdb.get_backend("backend1").is_enabled
        assert engines[1].execute("SELECT COUNT(*) FROM t").scalar() == 42
        # replay executed each group as one backend batch
        assert vdb.get_backend("backend1").total_batches >= 2

    def test_replay_rolls_back_uncommitted_batch_groups(self):
        """A batch inside a transaction that never committed must not
        survive replay; a committed one must."""
        from tests.conftest import make_cluster
        from repro.core import connect as cjdbc_connect

        controller, vdb, engines = make_cluster("cpbatch2", backend_count=2)
        connection = cjdbc_connect(controller, "cpbatch2", "admin", "admin")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        checkpoint_name = vdb.checkpoint_backend("backend1")

        committed = connection.prepare("INSERT INTO t VALUES (?)")
        connection.begin()
        committed.executemany([(1,), (2,)])
        connection.commit()
        # an uncommitted batch: log it as an in-transaction group, no commit
        log = vdb.request_manager.recovery_log
        log.log_begin("admin", 999)
        log.log_batch("INSERT INTO t VALUES (?)", [(50,), (51,)], "admin", 999)

        vdb.get_backend("backend1").disable()
        engines[1].catalog.drop_table("t")
        vdb.recover_backend("backend1", checkpoint_name)
        ids = [
            row[0]
            for row in engines[1].execute("SELECT id FROM t ORDER BY id").rows
        ]
        assert ids == [1, 2]

    def test_batch_log_entry_round_trips_through_file_log(self, tmp_path):
        sets = ((1, "a"), (2, "b"))
        file_log = FileRecoveryLog(str(tmp_path / "batch.jsonl"))
        file_log.log_batch("INSERT INTO t VALUES (?, ?)", sets, "alice", 7)
        reloaded = FileRecoveryLog(str(tmp_path / "batch.jsonl")).entries()[0]
        assert reloaded.entry_type == "batch"
        assert reloaded.parameter_sets == sets

    def test_disable_with_checkpoint(self):
        from tests.conftest import make_cluster
        from repro.core import connect as cjdbc_connect

        controller, vdb, engines = make_cluster("cpdb2", backend_count=2)
        connection = cjdbc_connect(controller, "cpdb2", "admin", "admin")
        connection.execute("CREATE TABLE t (id INT PRIMARY KEY)")
        connection.execute("INSERT INTO t VALUES (1)")
        name = vdb.disable_backend("backend0", with_checkpoint=True)
        assert name is not None
        assert not vdb.get_backend("backend0").is_enabled
        # the other backend keeps serving
        assert connection.execute("SELECT COUNT(*) FROM t").scalar() == 1
