"""PEP 249 (DB-API 2.0) driver for the in-memory engine.

This module plays the role of the *native JDBC driver* in the paper: the
C-JDBC controller accesses each database backend through its native driver,
and our middleware accesses each :class:`repro.sql.engine.DatabaseEngine`
through this module.  The interface is the standard DB-API:

>>> from repro.sql import dbapi
>>> connection = dbapi.connect(engine)
>>> cursor = connection.cursor()
>>> cursor.execute("SELECT 1")

The same interface is implemented by the C-JDBC client driver
(:mod:`repro.core.driver`), which is what allows controllers to be nested
for vertical scalability: a controller cannot tell whether its "native
driver" talks to a real engine or to another controller.
"""

from __future__ import annotations

import threading
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import (
    DatabaseError,
    InterfaceError,
    ProgrammingError,
    SQLError,
    SQLSyntaxError,
)
from repro.sql.engine import DatabaseEngine, Session
from repro.sql.executor import ResultSet

apilevel = "2.0"
threadsafety = 1
paramstyle = "qmark"


def connect(engine: DatabaseEngine, user: str = "", password: str = "") -> "Connection":
    """Open a connection to ``engine``.

    ``user``/``password`` are accepted for interface parity with real
    drivers; the in-memory engine itself does not enforce authentication
    (the middleware's authentication manager does).
    """
    return Connection(engine, user=user)


class Connection:
    """A DB-API connection bound to one engine session."""

    def __init__(self, engine: DatabaseEngine, user: str = ""):
        self._engine = engine
        self._session: Optional[Session] = engine.create_session()
        self.user = user
        self._lock = threading.RLock()
        self._autocommit = True
        #: a plain attribute, so a cursor's open check is no extra call
        self.closed = False

    # -- properties -------------------------------------------------------------

    @property
    def engine(self) -> DatabaseEngine:
        return self._engine

    @property
    def autocommit(self) -> bool:
        return self._autocommit

    @autocommit.setter
    def autocommit(self, value: bool) -> None:
        self._check_open()
        self._autocommit = bool(value)
        if not value:
            self._session.begin()
        else:
            # Turning autocommit back on commits any open transaction, the
            # behaviour mandated by JDBC's setAutoCommit(true).
            self._session.commit()

    # -- transaction control -----------------------------------------------------

    def begin(self) -> None:
        self._check_open()
        self._autocommit = False
        self._session.begin()

    def commit(self) -> None:
        self._check_open()
        self._session.commit()
        if not self._autocommit:
            self._session.begin()

    def rollback(self) -> None:
        self._check_open()
        self._session.rollback()
        if not self._autocommit:
            self._session.begin()

    def close(self) -> None:
        if self._session is not None:
            self._session.close()
            self._session = None
            self.closed = True

    # -- cursors ------------------------------------------------------------------

    def cursor(self) -> "Cursor":
        self._check_open()
        return Cursor(self)

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "Cursor":
        """Convenience: create a cursor, execute, and return it."""
        cursor = self.cursor()
        cursor.execute(sql, parameters)
        return cursor

    # -- internals ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self.closed:
            raise InterfaceError("connection is closed")

    # _run and _run_many are the cursor's; it has checked that both are open

    def _run(self, sql: str, parameters: Sequence[Any]) -> ResultSet:
        with self._lock:
            try:
                statement = self._engine.prepare(sql)
                result = self._session.execute_statement(statement, parameters)
            except SQLSyntaxError as exc:
                raise ProgrammingError(str(exc)) from exc
            except SQLError as exc:
                raise DatabaseError(str(exc)) from exc
            self._engine.note_statement(statement)
            return result

    def _run_many(
        self, sql: str, seq_of_parameters: Sequence[Sequence[Any]]
    ) -> Optional[ResultSet]:
        """Parse once, execute per parameter set, aggregate update counts.

        Returns the last result with the aggregated update count, or None
        when the sequence was empty.
        """
        with self._lock:
            try:
                statement = self._engine.prepare(sql)
                result: Optional[ResultSet] = None
                total = 0
                for parameters in seq_of_parameters:
                    result = self._session.execute_statement(statement, parameters)
                    self._engine.note_statement(statement)
                    if result.update_count > 0:
                        total += result.update_count
            except SQLSyntaxError as exc:
                raise ProgrammingError(str(exc)) from exc
            except SQLError as exc:
                raise DatabaseError(str(exc)) from exc
            if result is not None:
                result.update_count = total
            return result

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            try:
                self.commit()
            except InterfaceError:
                pass
        else:
            try:
                self.rollback()
            except InterfaceError:
                pass
        self.close()


class ResultCursor:
    """Everything of a DB-API cursor but ``execute``/``executemany``.

    The native cursor below and the C-JDBC driver's cursor
    (:class:`repro.core.driver.VirtualCursor`) both browse a fully
    materialized result — an object with ``columns`` / ``rows`` /
    ``update_count`` / ``as_dicts()`` / ``scalar()`` — held in ``_result``;
    they differ only in how a statement is run.  The result's rows are
    tuples already, so fetching hands them out as they are: ``fetchall`` and
    ``fetchmany`` slice the row list, ``fetchone`` indexes it.  Each call
    checks once that the cursor and its connection are open.
    """

    arraysize = 1

    def __init__(self, connection):
        self._connection = connection
        self._result = None
        self._position = 0
        self._closed = False

    # -- metadata ---------------------------------------------------------------

    @property
    def description(self) -> Optional[List[Tuple]]:
        if self._result is None or not self._result.columns:
            return None
        return [
            (name, None, None, None, None, None, None)
            for name in self._result.columns
        ]

    @property
    def rowcount(self) -> int:
        if self._result is None:
            return -1
        if self._result.columns:
            return len(self._result.rows)
        return self._result.update_count

    @property
    def columns(self) -> List[str]:
        return list(self._result.columns) if self._result else []

    # -- fetching -------------------------------------------------------------------

    def fetchone(self) -> Optional[Tuple[Any, ...]]:
        rows, position = self._checked_result().rows, self._position
        if position >= len(rows):
            return None
        self._position = position + 1
        return rows[position]

    def fetchmany(self, size: Optional[int] = None) -> List[Tuple[Any, ...]]:
        rows = self._checked_result().rows
        count = self.arraysize if size is None else max(size, 0)
        batch = rows[self._position : self._position + count]
        self._position += len(batch)
        return batch

    def fetchall(self) -> List[Tuple[Any, ...]]:
        rows = self._checked_result().rows
        batch = rows[self._position :]
        self._position = len(rows)
        return batch

    def fetchall_dicts(self) -> List[dict]:
        """Extension: rows as dicts keyed by column name."""
        return self._checked_result().as_dicts()

    def scalar(self) -> Any:
        """Extension: first column of first row (None when empty)."""
        return self._checked_result().scalar()

    # -- misc ---------------------------------------------------------------------

    def setinputsizes(self, sizes) -> None:  # pragma: no cover - DB-API stub
        return None

    def setoutputsize(self, size, column=None) -> None:  # pragma: no cover
        return None

    def close(self) -> None:
        self._closed = True
        self._result = None

    def __iter__(self):
        while True:
            row = self.fetchone()
            if row is None:
                return
            yield row

    # -- internals -------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise InterfaceError("cursor is closed")
        if self._connection.closed:
            raise InterfaceError("connection is closed")

    def _checked_result(self):
        """The result to browse; raises unless cursor, connection and result are there."""
        if self._result is None or self._closed or self._connection.closed:
            self._check_open()
            raise InterfaceError("no statement executed yet")
        return self._result


class Cursor(ResultCursor):
    """A DB-API cursor; also doubles as the JDBC ResultSet equivalent."""

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> "Cursor":
        self._check_open()
        self._result = self._connection._run(sql, parameters)
        self._position = 0
        return self

    def executemany(self, sql: str, seq_of_parameters: Sequence[Sequence[Any]]) -> "Cursor":
        """Execute ``sql`` once per parameter set, parsing it only once.

        This is the engine-side half of server-side batching: the statement
        is parsed a single time and the resulting plan is re-executed for
        every parameter set, so a controller batch pays per-row execution
        cost only, not per-row parsing.  An empty sequence executes nothing
        and reports an update count of zero.
        """
        self._check_open()
        result = self._connection._run_many(sql, seq_of_parameters)
        if result is None:
            # nothing executed: report zero, never the previous statement's
            # stale result
            result = ResultSet(update_count=0)
        self._result = result
        self._position = 0
        return self
