"""Database engine facade: catalog + executor + transaction/connection glue.

One :class:`DatabaseEngine` instance plays the role of one backend RDBMS
(a MySQL/PostgreSQL/Firebird server in the paper).  Client code normally
talks to it through the DB-API driver in :mod:`repro.sql.dbapi`, exactly as
JDBC applications talk to a native driver, but the engine can also be used
directly in tests.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.errors import CatalogError, TransactionError
from repro.sql import ast
from repro.sql.executor import Executor, ResultSet
from repro.sql.parser import parse
from repro.sql.schema import TableSchema
from repro.sql.storage import Table
from repro.sql.transactions import LockManager, Transaction


class Catalog:
    """The set of tables owned by one engine.

    ``version`` moves on every schema change (table, index or column DDL and
    their undo); a plan compiled at another version is compiled again.
    """

    def __init__(self):
        self._tables: Dict[str, Table] = {}
        self._lock = threading.RLock()
        self.version = 0

    def has_table(self, name: str) -> bool:
        with self._lock:
            return name.lower() in self._tables

    def get_table(self, name: str) -> Table:
        with self._lock:
            try:
                return self._tables[name.lower()]
            except KeyError:
                raise CatalogError(f"unknown table {name!r}") from None

    def create_table(self, schema: TableSchema) -> Table:
        with self._lock:
            key = schema.name.lower()
            if key in self._tables:
                raise CatalogError(f"table {schema.name!r} already exists")
            table = Table(schema)
            self._tables[key] = table
            self.version += 1
            return table

    def restore_table(self, table: Table) -> None:
        """Put a previously dropped table object back (transaction undo)."""
        with self._lock:
            self._tables[table.schema.name.lower()] = table
            self.version += 1

    def alter(self, change: Callable[..., Any], *arguments: Any) -> Any:
        """Run an index or column DDL method of one of the tables."""
        with self._lock:
            try:
                return change(*arguments)
            finally:
                self.version += 1

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        with self._lock:
            key = name.lower()
            if key not in self._tables:
                if if_exists:
                    return
                raise CatalogError(f"unknown table {name!r}")
            del self._tables[key]
            self.version += 1

    def table_names(self) -> List[str]:
        with self._lock:
            return sorted(table.schema.name for table in self._tables.values())

    def tables(self) -> List[Table]:
        with self._lock:
            return list(self._tables.values())


class Session:
    """One connection's view of the engine: its transaction state."""

    def __init__(self, engine: "DatabaseEngine"):
        self.engine = engine
        self.transaction = Transaction()
        self.autocommit = True
        self.closed = False

    # -- transaction control ---------------------------------------------------

    def begin(self) -> None:
        if not self.transaction.active:
            self.transaction.begin()
        self.autocommit = False

    def commit(self) -> None:
        if self.transaction.active:
            self.transaction.commit()
        self.engine.lock_manager.release(self.transaction.txn_id)
        self.autocommit = True

    def rollback(self) -> None:
        if self.transaction.active:
            self.transaction.rollback()
        self.engine.lock_manager.release(self.transaction.txn_id)
        self.autocommit = True

    # -- execution ---------------------------------------------------------------

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        if self.closed:
            raise TransactionError("session is closed")
        return self.execute_statement(self.engine.prepare(sql), parameters)

    def execute_statement(
        self, statement: ast.Statement, parameters: Sequence[Any] = ()
    ) -> ResultSet:
        control = _TRANSACTION_CONTROL.get(type(statement))
        if control is not None:
            control(self)
            return ResultSet(update_count=0)
        implicit = not self.transaction.active
        if implicit:
            self.transaction.begin()
        try:
            result = self.engine.executor.execute(statement, self.transaction, parameters)
        except Exception:
            if implicit:
                self.transaction.rollback()
                self.engine.lock_manager.release(self.transaction.txn_id)
            raise
        if implicit:
            if self.autocommit:
                self.transaction.commit()
                self.engine.lock_manager.release(self.transaction.txn_id)
            # else: keep the transaction open until explicit commit/rollback
        return result

    def close(self) -> None:
        if self.transaction.active:
            self.rollback()
        self.engine.lock_manager.release(self.transaction.txn_id)
        self.closed = True


_TRANSACTION_CONTROL = {
    ast.BeginTransaction: Session.begin,
    ast.Commit: Session.commit,
    ast.Rollback: Session.rollback,
}

#: parsed statements kept per engine; the TPC-W and RUBiS statement sets are
#: each under a hundred texts, the rest is room for literal-carrying one-offs
_PREPARED_STATEMENTS = 512


class DatabaseEngine:
    """An in-memory SQL database engine instance ("one backend")."""

    def __init__(self, name: str = "database", lock_timeout: float = 5.0):
        self.name = name
        self.catalog = Catalog()
        self.lock_manager = LockManager(lock_timeout=lock_timeout)
        self.executor = Executor(self)
        self._prepared: "OrderedDict[str, ast.Statement]" = OrderedDict()
        self._prepared_lock = threading.Lock()
        self._statistics_lock = threading.Lock()
        self.statements_executed = 0
        self.reads_executed = 0
        self.writes_executed = 0

    # -- sessions ---------------------------------------------------------------

    def create_session(self) -> Session:
        return Session(self)

    def execute(self, sql: str, parameters: Sequence[Any] = ()) -> ResultSet:
        """One-shot autocommit execution, for tests and data loading."""
        session = self.create_session()
        try:
            statement = self.prepare(sql)
            result = session.execute_statement(statement, parameters)
            self.note_statement(statement)
            return result
        finally:
            session.close()

    def prepare(self, sql: str) -> ast.Statement:
        """The parsed statement for ``sql``, from a bounded LRU keyed by the text.

        Parsing does not depend on the catalog, so entries survive DDL; the
        plan the executor hangs on a statement is what a DDL retires.
        """
        with self._prepared_lock:
            statement = self._prepared.get(sql)
            if statement is not None:
                self._prepared.move_to_end(sql)
                return statement
        statement = parse(sql)
        with self._prepared_lock:
            self._prepared[sql] = statement
            if len(self._prepared) > _PREPARED_STATEMENTS:
                self._prepared.popitem(last=False)
        return statement

    def execute_script(self, statements: Iterable[str]) -> None:
        for sql in statements:
            text = sql.strip()
            if text:
                self.execute(text)

    # -- statistics ---------------------------------------------------------------

    def note_statement(self, statement: ast.Statement) -> None:
        with self._statistics_lock:
            self.statements_executed += 1
            if type(statement) is ast.Select:
                self.reads_executed += 1
            else:
                self.writes_executed += 1

    # -- bulk access (used by the Octopus-like ETL tool) ---------------------------

    def dump_table_rows(self, table_name: str) -> List[Dict[str, Any]]:
        table = self.catalog.get_table(table_name)
        return [dict(row) for _row_id, row in table.rows()]

    def table_schema(self, table_name: str) -> TableSchema:
        return self.catalog.get_table(table_name).schema

    def row_count(self, table_name: str) -> int:
        return len(self.catalog.get_table(table_name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DatabaseEngine({self.name!r}, tables={self.catalog.table_names()})"
