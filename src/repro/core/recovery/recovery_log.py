"""Recovery log (paper §3.2).

"C-JDBC implements a recovery log that records a log entry for each begin,
commit, abort and update statement.  A log entry consists of the user
identification, the transaction identifier, and the SQL statement.  The log
can be stored in a flat file, but also in a database using JDBC."

Three storage flavours are provided:

* :class:`MemoryRecoveryLog` — in-process list, used by most tests;
* :class:`FileRecoveryLog` — JSON-lines flat file;
* :class:`DatabaseRecoveryLog` — stores entries through any DB-API
  connection factory.  Handing it a connection factory that goes through the
  C-JDBC driver to a fault-tolerant virtual database reproduces the
  "fault-tolerant recovery log" configuration of Figure 2.
"""

from __future__ import annotations

import json
import threading
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, List, Optional

from repro.core.request import freeze_parameter_sets


def _freeze_parameters(entry_type: str, parameters) -> tuple:
    """Normalize deserialized parameters to the in-memory representation.

    ``batch`` entries store a tuple of parameter *sets*; JSON round-trips
    turn the inner tuples into lists, so they are re-frozen here to keep
    entry equality and replay behaviour independent of the storage flavour.
    """
    if entry_type == "batch":
        return freeze_parameter_sets(parameters)
    return tuple(parameters)


@dataclass
class LogEntry:
    """One recovery log record."""

    log_id: int
    login: str
    transaction_id: Optional[int]
    sql: str
    parameters: tuple = ()
    #: "begin" | "commit" | "rollback" | "write" | "batch" | "checkpoint"
    entry_type: str = "write"
    #: checkpoint name for checkpoint markers
    checkpoint_name: Optional[str] = None

    @property
    def parameter_sets(self) -> tuple:
        """The parameter sets of a ``batch`` group entry."""
        if self.entry_type != "batch":
            raise ValueError(
                f"log entry {self.log_id} is a {self.entry_type!r} entry,"
                f" not a batch group"
            )
        return freeze_parameter_sets(self.parameters)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["parameters"] = list(self.parameters)
        return json.dumps(payload, default=str)

    @classmethod
    def from_json(cls, text: str) -> "LogEntry":
        payload = json.loads(text)
        entry_type = payload.get("entry_type", "write")
        payload["parameters"] = _freeze_parameters(
            entry_type, payload.get("parameters", ())
        )
        return cls(**payload)


class RecoveryLog:
    """Interface + shared id allocation for recovery logs."""

    def __init__(self):
        self._id_lock = threading.Lock()
        self._next_id = 1

    # -- recording -------------------------------------------------------------

    def _allocate_id(self) -> int:
        with self._id_lock:
            log_id = self._next_id
            self._next_id += 1
            return log_id

    def log_request(
        self,
        sql: str,
        parameters: tuple = (),
        login: str = "",
        transaction_id: Optional[int] = None,
        entry_type: str = "write",
    ) -> LogEntry:
        entry = LogEntry(
            log_id=self._allocate_id(),
            login=login,
            transaction_id=transaction_id,
            sql=sql,
            parameters=tuple(parameters),
            entry_type=entry_type,
        )
        self._append(entry)
        return entry

    def log_batch(
        self,
        sql: str,
        parameter_sets,
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> LogEntry:
        """Record one server-side batch as a single replayable group entry.

        The whole batch (template + every parameter set) is one log record,
        so recovery replays it atomically as one backend batch instead of N
        independent statements.
        """
        return self.log_request(
            sql,
            freeze_parameter_sets(parameter_sets),
            login,
            transaction_id,
            entry_type="batch",
        )

    def log_begin(self, login: str, transaction_id: int) -> LogEntry:
        return self.log_request("begin", (), login, transaction_id, entry_type="begin")

    def log_commit(self, login: str, transaction_id: int) -> LogEntry:
        return self.log_request("commit", (), login, transaction_id, entry_type="commit")

    def log_rollback(self, login: str, transaction_id: int) -> LogEntry:
        return self.log_request("rollback", (), login, transaction_id, entry_type="rollback")

    def insert_checkpoint_marker(self, checkpoint_name: str) -> LogEntry:
        entry = LogEntry(
            log_id=self._allocate_id(),
            login="",
            transaction_id=None,
            sql="",
            entry_type="checkpoint",
            checkpoint_name=checkpoint_name,
        )
        self._append(entry)
        return entry

    # -- reading -----------------------------------------------------------------

    def entries(self) -> List[LogEntry]:
        raise NotImplementedError  # pragma: no cover - interface

    def entries_since_checkpoint(self, checkpoint_name: str) -> List[LogEntry]:
        """All entries recorded after the named checkpoint marker.

        A name taken twice means its most recent marker — the one the stored
        dump was cut at.  The log is append-only, so a caller that replayed
        this tail once gets what arrived meanwhile by reading it again and
        skipping as many entries as it has already applied.
        """
        selected: Optional[List[LogEntry]] = None
        for entry in self.entries():
            if entry.entry_type == "checkpoint" and entry.checkpoint_name == checkpoint_name:
                selected = []
            elif selected is not None:
                selected.append(entry)
        if selected is None:
            raise KeyError(f"unknown checkpoint {checkpoint_name!r}")
        return selected

    def checkpoint_names(self) -> List[str]:
        return [
            entry.checkpoint_name
            for entry in self.entries()
            if entry.entry_type == "checkpoint" and entry.checkpoint_name
        ]

    def __len__(self) -> int:
        """Entries recorded so far, retained or not: ids run from 1 without a gap."""
        return self._next_id - 1

    # -- retention ----------------------------------------------------------------------

    #: entries dropped off the head: :meth:`entries` starts at this position
    floor = 0

    def retain_from(self, position: Optional[int]) -> None:
        """No recovery will read what was recorded before ``position``.

        ``None`` means nothing recorded so far, nor anything recorded until
        the next call, can be reached.  The durable flavours keep their whole
        history all the same: it is what they are for.
        """

    # -- storage hook -----------------------------------------------------------------

    def _append(self, entry: LogEntry) -> None:
        raise NotImplementedError  # pragma: no cover - interface


class MemoryRecoveryLog(RecoveryLog):
    """Keeps in memory the entries a recovery can still reach (paper §3.2).

    A log nobody has told otherwise keeps everything.  Once
    :meth:`retain_from` names a floor, the head below it is dropped a block
    at a time as entries arrive, so an append stays O(1) amortised and what
    is held is bounded by the reachable tail plus one block.
    """

    #: unreachable entries tolerated at the head before they are dropped
    TRIM_BLOCK = 1024

    def __init__(self):
        super().__init__()
        #: the retained tail: entry ``i`` was the ``floor + i``-th recorded
        self._entries: List[LogEntry] = []
        self._reachable_from: Optional[int] = 0
        self._lock = threading.Lock()

    def _append(self, entry: LogEntry) -> None:
        with self._lock:
            self._entries.append(entry)
            self._trim()

    def _trim(self) -> None:
        reachable = self._reachable_from
        unreachable = len(self._entries) if reachable is None else reachable - self.floor
        if unreachable >= self.TRIM_BLOCK:
            del self._entries[:unreachable]
            self.floor += unreachable

    def retain_from(self, position: Optional[int]) -> None:
        with self._lock:
            self._reachable_from = position
            # a floor that moved up a long way (a long catch-up ended, a
            # checkpoint's name was taken again) frees the stretch now, not
            # at the next write
            self._trim()

    def entries(self) -> List[LogEntry]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        # not the id counter: an id is allocated before its entry is appended,
        # and a position held between the two would sit past the entry
        with self._lock:
            return self.floor + len(self._entries)

    def clear(self) -> None:
        """Forget everything: an empty log that again keeps all it is given."""
        with self._lock:
            self._entries.clear()
            self.floor, self._reachable_from = 0, 0


class FileRecoveryLog(RecoveryLog):
    """Appends JSON-lines entries to a flat file."""

    def __init__(self, path: str):
        super().__init__()
        self.path = path
        self._lock = threading.Lock()
        # Resume id allocation after existing entries.
        existing = self.entries()
        if existing:
            self._next_id = max(entry.log_id for entry in existing) + 1

    def _append(self, entry: LogEntry) -> None:
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(entry.to_json() + "\n")

    def entries(self) -> List[LogEntry]:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                return [LogEntry.from_json(line) for line in handle if line.strip()]
        except FileNotFoundError:
            return []


class DatabaseRecoveryLog(RecoveryLog):
    """Stores entries in a database reached through a DB-API connection factory.

    The factory may produce connections to a plain engine or to a C-JDBC
    virtual database (through :mod:`repro.core.driver`), which is how the
    paper builds a fault-tolerant recovery log (Figure 2).
    """

    TABLE = "recovery_log"

    def __init__(self, connection_factory: Callable[[], object]):
        super().__init__()
        self._factory = connection_factory
        self._lock = threading.Lock()
        self._ensure_table()
        existing = self.entries()
        if existing:
            self._next_id = max(entry.log_id for entry in existing) + 1

    def _ensure_table(self) -> None:
        connection = self._factory()
        try:
            cursor = connection.cursor()
            cursor.execute(
                f"CREATE TABLE IF NOT EXISTS {self.TABLE} ("
                " log_id INT PRIMARY KEY,"
                " login VARCHAR(64),"
                " transaction_id BIGINT,"
                " sql_text TEXT,"
                " parameters TEXT,"
                " entry_type VARCHAR(16),"
                " checkpoint_name VARCHAR(128))"
            )
            connection.commit()
        finally:
            connection.close()

    def _append(self, entry: LogEntry) -> None:
        with self._lock:
            connection = self._factory()
            try:
                cursor = connection.cursor()
                cursor.execute(
                    f"INSERT INTO {self.TABLE} (log_id, login, transaction_id, sql_text,"
                    " parameters, entry_type, checkpoint_name) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        entry.log_id,
                        entry.login,
                        entry.transaction_id,
                        entry.sql,
                        json.dumps(list(entry.parameters), default=str),
                        entry.entry_type,
                        entry.checkpoint_name,
                    ),
                )
                connection.commit()
            finally:
                connection.close()

    def entries(self) -> List[LogEntry]:
        connection = self._factory()
        try:
            cursor = connection.cursor()
            cursor.execute(
                f"SELECT log_id, login, transaction_id, sql_text, parameters,"
                f" entry_type, checkpoint_name FROM {self.TABLE} ORDER BY log_id"
            )
            rows = cursor.fetchall()
        finally:
            connection.close()
        entries = []
        for row in rows:
            entry_type = row[5] or "write"
            entries.append(
                LogEntry(
                    log_id=row[0],
                    login=row[1] or "",
                    transaction_id=row[2],
                    sql=row[3] or "",
                    parameters=_freeze_parameters(
                        entry_type, json.loads(row[4] or "[]")
                    ),
                    entry_type=entry_type,
                    checkpoint_name=row[6],
                )
            )
        return entries
