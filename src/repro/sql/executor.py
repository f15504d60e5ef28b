"""Statement execution for the in-memory SQL engine.

The executor runs the AST produced by :mod:`repro.sql.parser` against the
catalog and storage of a :class:`repro.sql.engine.DatabaseEngine`.  Each
``SELECT``, ``INSERT``, ``UPDATE`` and ``DELETE`` is compiled once per
catalog version and the compiled form is kept on its AST node: which rows are
looked at (:mod:`repro.sql.plan`: an index point lookup for ``column =
constant`` on an indexed column, a table's own conjuncts applied before it is
joined, a hash join or index probe where an equality relates two tables),
and every expression it evaluates as a closure
(:mod:`repro.sql.expressions`) — the projection with ``*`` expanded, the
grouping, ``HAVING`` and ``ORDER BY`` keys, ``LIMIT``/``OFFSET``, the
``VALUES`` rows and the ``SET`` assignments.  Range predicates, ``OR``,
``LIKE`` and joins without an equality still scan, and grouping, DISTINCT and
sorting are in-memory passes over the joined rows — the goal is correct SQL
semantics for the TPC-W / RUBiS footprint at a sane cost, not
query-optimizer sophistication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import CatalogError, SQLError
from repro.sql import ast
from repro.sql.expressions import Evaluator, Joined, Scope, compile_expression, compile_grouped
from repro.sql.functions import is_aggregate
from repro.sql.plan import SelectPlan, compile_access
from repro.sql.schema import Column, Index, TableSchema
from repro.sql.storage import Table
from repro.sql.transactions import Transaction
from repro.sql.types import coerce_value, sort_key

#: the scope of an expression that reads no table (``VALUES``, ``LIMIT``)
_NO_TABLES = Scope([], [])


@dataclass
class ResultSet:
    """Materialized result of a statement execution.

    ``columns`` is empty for statements that only report an update count
    (INSERT/UPDATE/DELETE/DDL), mirroring JDBC's executeUpdate/executeQuery
    distinction.  Each row is a tuple, built once by the projection; the
    native driver, the controller, its result cache and the client driver
    all pass these tuples on unchanged.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    update_count: int = -1

    @property
    def is_query_result(self) -> bool:
        return bool(self.columns) or self.update_count < 0

    def as_dicts(self) -> List[Dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        """First column of the first row, or None for an empty result."""
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)


class Executor:
    """Executes parsed statements against an engine's catalog and storage."""

    def __init__(self, engine: "repro.sql.engine.DatabaseEngine"):  # noqa: F821
        self._engine = engine
        self._handlers = {
            ast.Select: self._execute_select,
            ast.Insert: self._execute_insert,
            ast.Update: self._execute_update,
            ast.Delete: self._execute_delete,
            ast.CreateTable: self._execute_createtable,
            ast.DropTable: self._execute_droptable,
            ast.CreateIndex: self._execute_createindex,
            ast.DropIndex: self._execute_dropindex,
            ast.AlterTableAddColumn: self._execute_altertableaddcolumn,
            # the session handles these; reaching here means a raw execute()
            ast.BeginTransaction: self._execute_transaction_control,
            ast.Commit: self._execute_transaction_control,
            ast.Rollback: self._execute_transaction_control,
        }

    # ------------------------------------------------------------------ public

    def execute(
        self,
        statement: ast.Statement,
        transaction: Transaction,
        parameters: Sequence[Any] = (),
    ) -> ResultSet:
        handler = self._handlers.get(type(statement))
        if handler is None:
            raise SQLError(f"unsupported statement {type(statement).__name__}")
        return handler(statement, transaction, parameters)

    def _plan(self, statement: ast.Statement, compile) -> Any:
        """The statement's plan, compiled again once the catalog has changed.

        The version is read before compiling, so a DDL racing the compilation
        leaves a plan that the next execution replaces.
        """
        catalog = self._engine.catalog
        cached = statement.plan
        if cached is None or cached[0] is not catalog or cached[1] != catalog.version:
            version = catalog.version
            cached = statement.plan = (catalog, version, compile(statement, catalog))
        return cached[2]

    # ------------------------------------------------------------------- DDL

    def _execute_createtable(
        self, statement: ast.CreateTable, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        catalog = self._engine.catalog
        if catalog.has_table(statement.table):
            if statement.if_not_exists:
                return ResultSet(update_count=0)
            raise CatalogError(f"table {statement.table!r} already exists")
        columns = [
            Column.from_definition(
                definition.name,
                definition.type_name,
                definition.length,
                not_null=definition.not_null,
                primary_key=definition.primary_key,
                unique=definition.unique,
                auto_increment=definition.auto_increment,
                default=None if definition.default is None else definition.default.value,
            )
            for definition in statement.columns
        ]
        schema = TableSchema(
            statement.table,
            columns,
            primary_key=statement.primary_key or None,
            temporary=statement.temporary,
        )
        for unique_columns in statement.unique_constraints:
            schema.add_index(
                Index(
                    name=f"uq_{statement.table}_{'_'.join(unique_columns)}",
                    table=statement.table,
                    columns=list(unique_columns),
                    unique=True,
                )
            )
        table = catalog.create_table(schema)
        transaction.record_undo(
            lambda: catalog.drop_table(schema.name, if_exists=True),
            f"undo CREATE TABLE {schema.name}",
        )
        transaction.mark_write()
        return ResultSet(update_count=0)

    def _execute_droptable(
        self, statement: ast.DropTable, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        catalog = self._engine.catalog
        if not catalog.has_table(statement.table):
            if statement.if_exists:
                return ResultSet(update_count=0)
            raise CatalogError(f"unknown table {statement.table!r}")
        dropped = catalog.get_table(statement.table)
        catalog.drop_table(statement.table)
        transaction.record_undo(
            lambda: catalog.restore_table(dropped),
            f"undo DROP TABLE {statement.table}",
        )
        transaction.mark_write()
        return ResultSet(update_count=0)

    def _execute_createindex(
        self, statement: ast.CreateIndex, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        catalog = self._engine.catalog
        table = catalog.get_table(statement.table)
        definition = Index(
            name=statement.name,
            table=statement.table,
            columns=list(statement.columns),
            unique=statement.unique,
        )
        catalog.alter(table.create_index, definition)
        transaction.record_undo(
            lambda: catalog.alter(table.drop_index, statement.name),
            f"undo CREATE INDEX {statement.name}",
        )
        transaction.mark_write()
        return ResultSet(update_count=0)

    def _execute_dropindex(
        self, statement: ast.DropIndex, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        catalog = self._engine.catalog
        if statement.table:
            tables: Iterable[Table] = [catalog.get_table(statement.table)]
        else:
            tables = catalog.tables()
        for table in tables:
            names = {name.lower() for name in table.indexes}
            if statement.name.lower() in names:
                catalog.alter(table.drop_index, statement.name)
                transaction.mark_write()
                return ResultSet(update_count=0)
        raise CatalogError(f"unknown index {statement.name!r}")

    def _execute_altertableaddcolumn(
        self,
        statement: ast.AlterTableAddColumn,
        transaction: Transaction,
        parameters: List[Any],
    ) -> ResultSet:
        catalog = self._engine.catalog
        table = catalog.get_table(statement.table)
        definition = statement.column
        column = Column.from_definition(
            definition.name,
            definition.type_name,
            definition.length,
            not_null=False,  # adding NOT NULL to existing rows would fail
            unique=definition.unique,
            auto_increment=definition.auto_increment,
            default=None if definition.default is None else definition.default.value,
        )
        catalog.alter(table.add_column, column)
        transaction.mark_write()
        return ResultSet(update_count=0)

    # ------------------------------------------------------------------- DML

    def _execute_insert(
        self, statement: ast.Insert, transaction: Transaction, parameters: Sequence[Any]
    ) -> ResultSet:
        insert = self._plan(statement, self._compile_insert)
        table = insert.table
        self._engine.lock_manager.lock_write(transaction.txn_id, statement.table)
        if statement.select is not None:
            rows = self._run_select(statement.select, parameters).rows
        else:
            rows = []
            for values in insert.rows:
                if len(values) != len(insert.names):
                    raise SQLError(
                        f"INSERT into {statement.table!r}: {len(insert.names)} columns "
                        f"but {len(values)} values"
                    )
                rows.append([value({}, parameters, None) for value in values])
        columns = insert.columns
        if columns is None and rows:  # names a column the table lacks: fails here
            columns = [table.schema.column(name) for name in insert.names]
        for values in rows:
            coerced = {
                column.name: coerce_value(value, column.sql_type)
                for column, value in zip(columns, values)
            }
            row_id, stored = table.insert_row(coerced)
            for key_column in table.schema.primary_key:
                table.note_explicit_key(key_column, stored.get(key_column))
            transaction.record_undo(
                lambda rid=row_id: table.delete_row(rid),
                f"undo INSERT into {statement.table}",
            )
        transaction.mark_write()
        return ResultSet(update_count=len(rows))

    def _compile_insert(self, statement: ast.Insert, catalog: "Catalog"):  # noqa: F821
        table = catalog.get_table(statement.table)
        names = statement.columns or table.schema.column_names
        known = all(table.schema.has_column(name) for name in names)
        rows = [
            [compile_expression(value, _NO_TABLES, self._run_subquery) for value in values]
            for values in statement.rows
        ]
        return _Insert(
            table, names, [table.schema.column(name) for name in names] if known else None, rows
        )

    def _execute_update(
        self, statement: ast.Update, transaction: Transaction, parameters: Sequence[Any]
    ) -> ResultSet:
        access, assignments = self._plan(statement, self._compile_update)
        table, exposed = access.table, access.exposed
        self._engine.lock_manager.lock_write(transaction.txn_id, statement.table)
        updated = 0
        for row_id, row in access.rows(parameters):
            tables = {exposed: row}
            changes = {
                name: coerce_value(value(tables, parameters, None), sql_type)
                for name, sql_type, value in assignments
            }
            old_row, _new_row = table.update_row(row_id, changes)
            transaction.record_undo(
                lambda rid=row_id, old=old_row: table.update_row(rid, old),
                f"undo UPDATE {statement.table}",
            )
            updated += 1
        transaction.mark_write()
        return ResultSet(update_count=updated)

    def _compile_update(self, statement: ast.Update, catalog: "Catalog"):  # noqa: F821
        """The access path and, per ``SET`` column, its stored name, type and value closure."""
        access = compile_access(statement, catalog, self._run_subquery)
        schema, assignments = access.table.schema, []
        for name, expression in statement.assignments:
            if schema.has_column(name):
                column = schema.column(name)
                value = compile_expression(expression, access.scope, self._run_subquery)
                assignments.append((column.name, column.sql_type, value))
            else:  # fails on the first row updated, as the lookup it stands for
                assignments.append((name, None, lambda *_, name=name: schema.column(name)))
        return access, assignments

    def _execute_delete(
        self, statement: ast.Delete, transaction: Transaction, parameters: Sequence[Any]
    ) -> ResultSet:
        access = self._plan(statement, self._compile_delete)
        table = access.table
        self._engine.lock_manager.lock_write(transaction.txn_id, statement.table)
        deleted = 0
        for row_id, _row in access.rows(parameters):
            removed = table.delete_row(row_id)
            transaction.record_undo(
                lambda rid=row_id, row=removed: table.restore_row(rid, row),
                f"undo DELETE from {statement.table}",
            )
            deleted += 1
        transaction.mark_write()
        return ResultSet(update_count=deleted)

    def _compile_delete(self, statement: ast.Delete, catalog: "Catalog"):  # noqa: F821
        return compile_access(statement, catalog, self._run_subquery)

    # ---------------------------------------------------------------- SELECT

    def _execute_select(
        self, statement: ast.Select, transaction: Transaction, parameters: Sequence[Any]
    ) -> ResultSet:
        return self._run_select(statement, parameters)

    def _run_subquery(
        self, select: ast.Select, tables: Joined, parameters: Sequence[Any], outer: Any
    ) -> List[Tuple[Any, ...]]:
        return self._run_select(select, parameters, (tables, outer)).rows

    def _run_select(
        self, statement: ast.Select, parameters: Sequence[Any], outer: Any = None
    ) -> ResultSet:
        # Reads hold no table lock: a statement sees each row as committed
        # when it reached it (read-committed per statement), which is what the
        # middleware expects of its backends — write ordering is the
        # scheduler's job, never backend read locks.
        return self._plan(statement, self._compile_select).run(parameters, outer)

    def _compile_select(self, statement: ast.Select, catalog: "Catalog"):  # noqa: F821
        return _Query(statement, catalog, self._run_subquery)

    # ------------------------------------------------------------ transactions

    def _execute_transaction_control(
        self, statement: ast.Statement, transaction: Transaction, parameters: Sequence[Any]
    ) -> ResultSet:
        return ResultSet(update_count=0)


class _Insert(NamedTuple):
    """An ``INSERT`` compiled once per catalog version."""

    table: Table
    names: List[str]
    #: the named columns, None when one of them is unknown
    columns: Optional[List[Column]]
    #: per ``VALUES`` row, one closure per value
    rows: List[List[Evaluator]]


class _Query:
    """A ``SELECT`` compiled once per catalog version: its access plan and every per-statement fact.

    Steps of an execution: the joined rows that pass ``WHERE`` (the plan);
    grouped and aggregated, or projected; DISTINCT; ORDER BY; LIMIT/OFFSET.
    ``sources`` keep, per output row, what ORDER BY expressions over columns
    absent from the select list are evaluated on.
    """

    def __init__(self, statement: ast.Select, catalog: "Catalog", subquery):  # noqa: F821
        self.plan = plan = SelectPlan(statement, catalog, subquery)
        scope = plan.scope
        projected = _projected(statement, scope)
        self.columns = [name for name, _expression in projected]
        self.grouped = bool(statement.group_by) or any(
            _contains_aggregate(expression)
            for expression in [*(item.expression for item in statement.items), statement.having]
        )
        compile = compile_grouped if self.grouped else compile_expression
        self.project = [compile(expression, scope, subquery) for _name, expression in projected]
        self.group_by = [compile_expression(key, scope, subquery) for key in statement.group_by]
        self.having = None
        if statement.having is not None:
            self.having = compile_grouped(statement.having, scope, subquery)
        self.distinct = statement.distinct
        # ORDER BY: an output column by name or 1-based ordinal, else an
        # expression over the source rows
        positions = {name.lower(): position for position, name in enumerate(self.columns)}
        self.order: List[Tuple[Optional[int], Any, bool]] = []
        for item in statement.order_by:
            expression, position = item.expression, None
            if isinstance(expression, ast.ColumnRef) and expression.table is None:
                position = positions.get(expression.name.lower())
            elif isinstance(expression, ast.Literal) and isinstance(expression.value, int):
                if 0 <= expression.value - 1 < len(self.columns):
                    position = expression.value - 1
            value = None if position is not None else compile(expression, scope, subquery)
            self.order.append((position, value, item.descending))
        self.limit, self.offset = (
            None if clause is None else compile_expression(clause, _NO_TABLES, subquery)
            for clause in (statement.limit, statement.offset)
        )

    def describe(self) -> List[str]:
        return self.plan.describe()

    def run(self, parameters: Sequence[Any], outer: Any) -> ResultSet:
        joined = self.plan.rows(parameters, outer)
        if self.grouped:
            rows, sources = self._groups(joined, parameters, outer)
        else:
            values, sources = self.project, joined
            rows = [
                tuple([value(tables, parameters, outer) for value in values]) for tables in joined
            ]
        if self.distinct:
            seen = set()
            unique_rows, unique_sources = [], []
            for row, source in zip(rows, sources):
                key = tuple(sort_key(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
                    unique_sources.append(source)
            rows, sources = unique_rows, unique_sources
        if self.order:
            rows = self._sorted(rows, sources, parameters, outer)
        if self.limit is not None or self.offset is not None:
            offset = 0 if self.offset is None else int(self.offset({}, parameters, None) or 0)
            if self.limit is None:
                rows = rows[offset:]
            else:
                rows = rows[offset : offset + int(self.limit({}, parameters, None))]
        return ResultSet(columns=list(self.columns), rows=rows)

    def _groups(
        self, joined: List[Joined], parameters: Sequence[Any], outer: Any
    ) -> Tuple[List[Tuple[Any, ...]], List[Any]]:
        groups: Dict[Tuple, List[Joined]] = {}
        for tables in joined:
            key = tuple([sort_key(value(tables, parameters, outer)) for value in self.group_by])
            groups.setdefault(key, []).append(tables)
        if not self.group_by and not groups:
            groups[()] = []
        rows, sources = [], []
        for group in groups.values():
            values = tuple([value(group, parameters, outer) for value in self.project])
            if self.having is not None and self.having(group, parameters, outer) is not True:
                continue
            rows.append(values)
            sources.append(group)
        return rows, sources

    def _sorted(
        self, rows: List[Tuple[Any, ...]], sources: List[Any], parameters: Sequence[Any], outer: Any
    ) -> List[Tuple[Any, ...]]:
        keyed = []
        for row, source in zip(rows, sources):
            entry = []
            for position, value, _descending in self.order:
                if value is None:
                    entry.append(sort_key(row[position]))
                    continue
                try:
                    entry.append(sort_key(value(source, parameters, outer)))
                except SQLError:
                    # cannot be resolved (e.g. an expression's alias after
                    # DISTINCT): such rows order as NULLs instead of failing
                    entry.append(sort_key(None))
            entry.append(row)
            keyed.append(entry)
        # one stable pass per key, the last first, gives the lexicographic order
        for index in reversed(range(len(self.order))):
            keyed.sort(key=itemgetter(index), reverse=self.order[index][2])
        return [entry[-1] for entry in keyed]


def _projected(statement: ast.Select, scope: Scope) -> List[Tuple[str, ast.Expression]]:
    """Every output column's name and expression, ``*`` expanded against the catalog."""
    projected: List[Tuple[str, ast.Expression]] = []
    for item in statement.items:
        expression = item.expression
        if not isinstance(expression, ast.Star):
            projected.append((item.alias or _default_column_name(expression), expression))
            continue
        expanded = [
            (column, ast.ColumnRef(column, name))
            for name, columns in zip(scope.names, scope.columns)
            if not expression.table or expression.table.lower() == name.lower()
            for column in columns
        ]
        if not expanded:
            raise SQLError("SELECT * with no FROM clause")
        projected.extend(expanded)
    return projected


def _default_column_name(expression: ast.Expression) -> str:
    if isinstance(expression, ast.ColumnRef):
        return expression.name
    if isinstance(expression, ast.FunctionCall):
        return expression.name.upper()
    if isinstance(expression, ast.Literal):
        return str(expression.value)
    return "expr"


def _contains_aggregate(expression: Optional[ast.Expression]) -> bool:
    if expression is None:
        return False
    if isinstance(expression, ast.FunctionCall):
        if is_aggregate(expression.name):
            return True
        return any(_contains_aggregate(argument) for argument in expression.args)
    if isinstance(expression, ast.BinaryOp):
        return _contains_aggregate(expression.left) or _contains_aggregate(expression.right)
    if isinstance(expression, ast.UnaryOp):
        return _contains_aggregate(expression.operand)
    if isinstance(expression, ast.CaseExpression):
        return any(
            _contains_aggregate(condition) or _contains_aggregate(value)
            for condition, value in expression.whens
        ) or _contains_aggregate(expression.default)
    return False
