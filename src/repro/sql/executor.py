"""Statement execution for the in-memory SQL engine.

The executor walks the AST produced by :mod:`repro.sql.parser` against the
catalog and storage of a :class:`repro.sql.engine.DatabaseEngine`.  Which rows
a ``SELECT``, ``UPDATE`` or ``DELETE`` looks at is decided by a plan compiled
once per statement (:mod:`repro.sql.plan`): an index point lookup for
``column = constant`` on an indexed column, a table's own conjuncts applied
before it is joined, a hash join or index probe where an equality relates two
tables.  Range predicates, ``OR``, ``LIKE`` and joins without an equality
still scan, and grouping, DISTINCT and sorting are in-memory passes over the
joined rows — the goal is correct SQL semantics for the TPC-W / RUBiS
footprint at a sane cost, not query-optimizer sophistication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import CatalogError, SQLError
from repro.sql import ast
from repro.sql.expressions import ExpressionEvaluator, RowContext
from repro.sql.functions import is_aggregate, make_aggregate
from repro.sql.plan import Run, SelectPlan, compile_access
from repro.sql.schema import Column, Index, TableSchema
from repro.sql.storage import Table
from repro.sql.transactions import Transaction
from repro.sql.types import sort_key


@dataclass
class ResultSet:
    """Materialized result of a statement execution.

    ``columns`` is empty for statements that only report an update count
    (INSERT/UPDATE/DELETE/DDL), mirroring JDBC's executeUpdate/executeQuery
    distinction.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[List[Any]] = field(default_factory=list)
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
        self._evaluator = ExpressionEvaluator(subquery_executor=self._run_subquery)

    # ------------------------------------------------------------------ public

    def execute(
        self,
        statement: ast.Statement,
        transaction: Transaction,
        parameters: Sequence[Any] = (),
    ) -> ResultSet:
        handler_name = f"_execute_{type(statement).__name__.lower()}"
        handler = getattr(self, handler_name, None)
        if handler is None:
            raise SQLError(f"unsupported statement {type(statement).__name__}")
        return handler(statement, transaction, list(parameters))

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
        self, statement: ast.Insert, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        table = self._engine.catalog.get_table(statement.table)
        self._engine.lock_manager.lock_write(transaction.txn_id, statement.table)
        column_names = statement.columns or table.schema.column_names
        rows_to_insert: List[Dict[str, Any]] = []
        if statement.select is not None:
            select_result = self._execute_select(statement.select, transaction, parameters)
            for row in select_result.rows:
                rows_to_insert.append(dict(zip(column_names, row)))
        else:
            context = RowContext({}, parameters)
            for value_expressions in statement.rows:
                if len(value_expressions) != len(column_names):
                    raise SQLError(
                        f"INSERT into {statement.table!r}: {len(column_names)} columns "
                        f"but {len(value_expressions)} values"
                    )
                values = [
                    self._evaluator.evaluate(expression, context)
                    for expression in value_expressions
                ]
                rows_to_insert.append(dict(zip(column_names, values)))
        inserted = 0
        for raw_row in rows_to_insert:
            coerced = {
                name: table.schema.column(name).coerce(value)
                for name, value in raw_row.items()
            }
            row_id, stored = table.insert_row(coerced)
            for key_column in table.schema.primary_key:
                table.note_explicit_key(key_column, stored.get(key_column))
            transaction.record_undo(
                lambda rid=row_id: table.delete_row(rid),
                f"undo INSERT into {statement.table}",
            )
            inserted += 1
        transaction.mark_write()
        return ResultSet(update_count=inserted)

    def _execute_update(
        self, statement: ast.Update, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        table = self._engine.catalog.get_table(statement.table)
        self._engine.lock_manager.lock_write(transaction.txn_id, statement.table)
        updated = 0
        access = self._plan(statement, compile_access)
        for row_id, row in access.rows(Run(self._evaluator.evaluate, parameters)):
            context = RowContext({statement.table: row}, parameters)
            changes: Dict[str, Any] = {}
            for column_name, expression in statement.assignments:
                column = table.schema.column(column_name)
                value = self._evaluator.evaluate(expression, context)
                changes[column.name] = column.coerce(value)
            old_row, _new_row = table.update_row(row_id, changes)
            transaction.record_undo(
                lambda rid=row_id, old=old_row: table.update_row(rid, old),
                f"undo UPDATE {statement.table}",
            )
            updated += 1
        transaction.mark_write()
        return ResultSet(update_count=updated)

    def _execute_delete(
        self, statement: ast.Delete, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        table = self._engine.catalog.get_table(statement.table)
        self._engine.lock_manager.lock_write(transaction.txn_id, statement.table)
        deleted = 0
        access = self._plan(statement, compile_access)
        for row_id, _row in access.rows(Run(self._evaluator.evaluate, parameters)):
            removed = table.delete_row(row_id)
            transaction.record_undo(
                lambda rid=row_id, row=removed: table.restore_row(rid, row),
                f"undo DELETE from {statement.table}",
            )
            deleted += 1
        transaction.mark_write()
        return ResultSet(update_count=deleted)

    # ---------------------------------------------------------------- SELECT

    def _execute_select(
        self, statement: ast.Select, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        return self._run_select(statement, parameters)

    def _run_subquery(self, select: ast.Select, outer_context: RowContext) -> List[List[Any]]:
        return self._run_select(select, outer_context.parameters, outer_context).rows

    def _run_select(
        self,
        statement: ast.Select,
        parameters: Sequence[Any],
        outer_context: Optional[RowContext] = None,
    ) -> ResultSet:
        # 1-2. FROM / JOIN / WHERE: the joined rows that pass WHERE.  Reads
        # hold no table lock: a statement sees each row as committed when it
        # reached it (read-committed per statement), which is what the
        # middleware expects of its backends — write ordering is the
        # scheduler's job, never backend read locks.
        joined_rows = self._plan(statement, SelectPlan).rows(
            Run(self._evaluator.evaluate, parameters, outer_context)
        )

        # 3. aggregate / group by, or plain projection.  ``sources`` keeps, for
        # each output row, the data needed to evaluate ORDER BY expressions
        # that reference columns absent from the select list.
        has_aggregate = any(
            _contains_aggregate(item.expression) for item in statement.items
        ) or any(_contains_aggregate(expr) for expr in [statement.having] if expr)
        grouped = bool(statement.group_by) or has_aggregate
        if grouped:
            columns, rows, sources = self._project_grouped(
                statement, joined_rows, parameters, outer_context
            )
        else:
            columns, rows, sources = self._project_plain(
                statement, joined_rows, parameters, outer_context
            )

        # 4. DISTINCT
        if statement.distinct:
            seen = set()
            unique_rows = []
            unique_sources = []
            for row, source in zip(rows, sources):
                key = tuple(sort_key(value) for value in row)
                if key not in seen:
                    seen.add(key)
                    unique_rows.append(row)
                    unique_sources.append(source)
            rows, sources = unique_rows, unique_sources

        # 5. ORDER BY
        if statement.order_by:
            rows = self._order_rows(
                statement, columns, rows, sources, grouped, parameters, outer_context
            )

        # 6. LIMIT / OFFSET
        rows = self._apply_limit(statement, rows, parameters)
        return ResultSet(columns=columns, rows=rows)

    # -- projection ------------------------------------------------------------

    def _projected_columns(self, statement: ast.Select) -> List[Tuple[str, ast.Expression]]:
        """Expand ``*`` and name every output column."""
        projected: List[Tuple[str, ast.Expression]] = []
        for item in statement.items:
            expression = item.expression
            if isinstance(expression, ast.Star):
                projected.extend(self._expand_star(statement, expression))
                continue
            name = item.alias or _default_column_name(expression)
            projected.append((name, expression))
        return projected

    def _expand_star(
        self, statement: ast.Select, star: ast.Star
    ) -> List[Tuple[str, ast.Expression]]:
        expanded: List[Tuple[str, ast.Expression]] = []
        table_refs: List[ast.TableRef] = []
        if statement.from_table is not None:
            table_refs.append(statement.from_table)
        table_refs.extend(join.table for join in statement.joins)
        for table_ref in table_refs:
            if star.table and star.table.lower() != table_ref.exposed_name.lower():
                continue
            schema = self._engine.catalog.get_table(table_ref.name).schema
            for column in schema.column_names:
                expanded.append(
                    (column, ast.ColumnRef(column, table_ref.exposed_name))
                )
        if not expanded:
            raise SQLError("SELECT * with no FROM clause")
        return expanded

    def _project_plain(
        self,
        statement: ast.Select,
        joined_rows: List[Dict[str, Dict[str, Any]]],
        parameters: Sequence[Any],
        outer_context: Optional[RowContext],
    ) -> Tuple[List[str], List[List[Any]], List[Any]]:
        projected = self._projected_columns(statement)
        columns = [name for name, _expr in projected]
        rows = []
        sources: List[Any] = []
        for tables in joined_rows:
            context = RowContext(tables, parameters, outer_context)
            rows.append(
                [self._evaluator.evaluate(expression, context) for _name, expression in projected]
            )
            sources.append(tables)
        return columns, rows, sources

    def _project_grouped(
        self,
        statement: ast.Select,
        joined_rows: List[Dict[str, Dict[str, Any]]],
        parameters: Sequence[Any],
        outer_context: Optional[RowContext],
    ) -> Tuple[List[str], List[List[Any]], List[Any]]:
        projected = self._projected_columns(statement)
        columns = [name for name, _expr in projected]

        # Partition rows into groups.
        groups: Dict[Tuple, List[Dict[str, Dict[str, Any]]]] = {}
        ordered_keys: List[Tuple] = []
        for tables in joined_rows:
            context = RowContext(tables, parameters, outer_context)
            if statement.group_by:
                key = tuple(
                    sort_key(self._evaluator.evaluate(expr, context))
                    for expr in statement.group_by
                )
            else:
                key = ()
            if key not in groups:
                groups[key] = []
                ordered_keys.append(key)
            groups[key].append(tables)
        if not statement.group_by and not groups:
            groups[()] = []
            ordered_keys.append(())

        rows: List[List[Any]] = []
        sources: List[Any] = []
        for key in ordered_keys:
            group_rows = groups[key]
            row_values: List[Any] = []
            for _name, expression in projected:
                row_values.append(
                    self._evaluate_with_aggregates(
                        expression, group_rows, parameters, outer_context
                    )
                )
            if statement.having is not None:
                having_value = self._evaluate_with_aggregates(
                    statement.having, group_rows, parameters, outer_context
                )
                if having_value is not True:
                    continue
            rows.append(row_values)
            sources.append(group_rows)
        return columns, rows, sources

    def _evaluate_with_aggregates(
        self,
        expression: ast.Expression,
        group_rows: List[Dict[str, Dict[str, Any]]],
        parameters: Sequence[Any],
        outer_context: Optional[RowContext],
    ) -> Any:
        """Evaluate an expression that may contain aggregate calls over a group."""
        if isinstance(expression, ast.FunctionCall) and is_aggregate(expression.name):
            count_star = bool(expression.args) and isinstance(expression.args[0], ast.Star)
            aggregate = make_aggregate(
                expression.name, count_star=count_star or not expression.args,
                distinct=expression.distinct,
            )
            for tables in group_rows:
                context = RowContext(tables, parameters, outer_context)
                if count_star or not expression.args:
                    aggregate.add(1)
                else:
                    aggregate.add(self._evaluator.evaluate(expression.args[0], context))
            return aggregate.result()
        if isinstance(expression, ast.BinaryOp):
            left = self._evaluate_with_aggregates(
                expression.left, group_rows, parameters, outer_context
            )
            right = self._evaluate_with_aggregates(
                expression.right, group_rows, parameters, outer_context
            )
            return self._evaluator.evaluate(
                ast.BinaryOp(expression.operator, ast.Literal(left), ast.Literal(right)),
                RowContext({}, parameters, outer_context),
            )
        if isinstance(expression, ast.UnaryOp):
            operand = self._evaluate_with_aggregates(
                expression.operand, group_rows, parameters, outer_context
            )
            return self._evaluator.evaluate(
                ast.UnaryOp(expression.operator, ast.Literal(operand)),
                RowContext({}, parameters, outer_context),
            )
        # Non-aggregate expression inside a grouped query: evaluate it against
        # the first row of the group (SQL permits this for GROUP BY columns).
        if group_rows:
            context = RowContext(group_rows[0], parameters, outer_context)
        else:
            context = RowContext({}, parameters, outer_context)
        return self._evaluator.evaluate(expression, context)

    # -- ORDER BY / LIMIT -------------------------------------------------------

    def _order_rows(
        self,
        statement: ast.Select,
        columns: List[str],
        rows: List[List[Any]],
        sources: List[Any],
        grouped: bool,
        parameters: Sequence[Any],
        outer_context: Optional[RowContext],
    ) -> List[List[Any]]:
        column_positions = {name.lower(): position for position, name in enumerate(columns)}
        decorated = []
        for row, source in zip(rows, sources):
            key = []
            for item in statement.order_by:
                value = self._order_value(
                    item.expression,
                    row,
                    column_positions,
                    source,
                    grouped,
                    parameters,
                    outer_context,
                )
                entry = sort_key(value)
                if item.descending:
                    entry = _DescendingKey(entry)
                key.append(entry)
            decorated.append((key, row))
        decorated.sort(key=lambda pair: pair[0])
        return [row for _key, row in decorated]

    def _order_value(
        self,
        expression: ast.Expression,
        row: List[Any],
        column_positions: Dict[str, int],
        source: Any,
        grouped: bool,
        parameters: Sequence[Any],
        outer_context: Optional[RowContext],
    ) -> Any:
        # 1. an output column name or alias
        if isinstance(expression, ast.ColumnRef) and expression.table is None:
            position = column_positions.get(expression.name.lower())
            if position is not None:
                return row[position]
        # 2. ORDER BY ordinal (1-based)
        if isinstance(expression, ast.Literal) and isinstance(expression.value, int):
            position = expression.value - 1
            if 0 <= position < len(row):
                return row[position]
        # 3. an arbitrary expression over the source rows
        try:
            if grouped:
                return self._evaluate_with_aggregates(
                    expression, source, parameters, outer_context
                )
            context = RowContext(source, parameters, outer_context)
            return self._evaluator.evaluate(expression, context)
        except SQLError:
            # Expression cannot be resolved (e.g. alias of an expression after
            # DISTINCT); order such rows as NULLs instead of failing.
            return None

    def _apply_limit(
        self, statement: ast.Select, rows: List[List[Any]], parameters: Sequence[Any]
    ) -> List[List[Any]]:
        if statement.limit is None and statement.offset is None:
            return rows
        context = RowContext({}, parameters)
        offset = 0
        if statement.offset is not None:
            offset = int(self._evaluator.evaluate(statement.offset, context) or 0)
        if statement.limit is not None:
            limit = int(self._evaluator.evaluate(statement.limit, context))
            return rows[offset : offset + limit]
        return rows[offset:]

    # ------------------------------------------------------------ transactions

    def _execute_begintransaction(
        self, statement: ast.BeginTransaction, transaction: Transaction, parameters: List[Any]
    ) -> ResultSet:
        # Transaction statements are handled by the connection layer; reaching
        # this point means someone executed "BEGIN" through raw execute().
        return ResultSet(update_count=0)

    _execute_commit = _execute_begintransaction
    _execute_rollback = _execute_begintransaction


class _DescendingKey:
    """Wraps a sort key to invert its ordering."""

    __slots__ = ("key",)

    def __init__(self, key):
        self.key = key

    def __lt__(self, other: "_DescendingKey") -> bool:
        return other.key < self.key

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _DescendingKey) and other.key == self.key


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
