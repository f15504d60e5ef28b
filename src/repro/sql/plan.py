"""Compiled access plans: how a statement reaches its rows.

A statement is compiled once against the catalog and the plan is kept on its
AST node until the catalog changes (``Catalog.version``).  The plan decides
*which rows are looked at* and holds every predicate compiled to a closure
(:func:`repro.sql.expressions.compile_expression`), so an execution only
calls closures; results are those of a scan of the cross product followed by
``WHERE``:

* per table a :class:`TableAccess` — a hash-index point lookup when top-level
  ``AND`` conjuncts give every column of an index as ``column = constant``,
  otherwise a scan — followed by the table's other single-table conjuncts,
  before the table is joined.  ``UPDATE``/``DELETE`` use the same class;
* per joined table a hash join (or a probe of an existing index on the join
  column) when an equality conjunct relates one of its columns to a table
  already joined, a nested loop otherwise;
* nothing from ``WHERE`` goes below the null-supplying side of a ``LEFT
  JOIN``; conjuncts that cannot be placed statically (references to an outer
  query, subqueries, unknown or ambiguous names) run last, on the joined rows.

Range predicates, ``OR``, ``LIKE`` and joins without an equality still scan.

Rows come out in the order the cross product would give: an index lookup in
row-id order, a join left-major in right-hand scan order.  Stored rows are
never modified in place (``Table.update_row`` replaces them), so a plan hands
out the stored dictionaries themselves; that is what makes a ``SELECT``, which
takes no table lock, safe beside a writer.
"""

from __future__ import annotations

import datetime as _dt
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.expressions import (
    Evaluator,
    Joined,
    Scope,
    SubqueryRunner,
    compile_expression,
    compile_predicate,
    returns_truth,
)
from repro.sql.schema import Column
from repro.sql.storage import HashIndex, Row, RowId, Table
from repro.sql.types import SQLType

#: a conjunct and whether it sat under an ``AND`` (operands of ``AND`` count
#: by truthiness, a predicate standing alone only when it is exactly TRUE)
Conjunct = Tuple[ast.Expression, bool]

_SUBQUERIES = (ast.InSubquery, ast.ExistsSubquery, ast.ScalarSubquery)
_CONSTANTS = (ast.Literal, ast.Parameter)

#: Python types of a constant whose value, coerced to the column's type, finds
#: every row ``compare_values`` would call equal (a VARCHAR column compared
#: with ``3`` also matches ``'03'``, so only a string may key a string index)
_KEY_CONSTANTS = {
    "numeric": (int, float, str),
    "character": (str,),
    SQLType.DATE: (_dt.date, str),
    SQLType.TIMESTAMP: (_dt.date, str),
    SQLType.BOOLEAN: (int, float),
    SQLType.BLOB: (bytes,),
}
#: the Python type a column type stores: a value of exactly this type keys as it is
_STORED = {
    **dict.fromkeys([SQLType.INTEGER, SQLType.BIGINT], int),
    **dict.fromkeys([SQLType.FLOAT, SQLType.DOUBLE, SQLType.DECIMAL], float),
    **dict.fromkeys([SQLType.VARCHAR, SQLType.CHAR, SQLType.TEXT], str),
    SQLType.BOOLEAN: bool,
    SQLType.DATE: _dt.date,
    SQLType.TIMESTAMP: _dt.datetime,
    SQLType.BLOB: bytes,
}
#: a constant that makes no index key: the execution scans
_NO_KEY = object()


def _family(column: Column) -> Any:
    """Columns of one family hold values whose ``==``/``hash`` agree with ``compare_values``."""
    sql_type = column.sql_type
    return "numeric" if sql_type.is_numeric else "character" if sql_type.is_character else sql_type


def _key_value(column: Column, value: Any) -> Any:
    """``value`` as ``column``'s index stores it, ``_NO_KEY`` when a lookup could miss rows."""
    if value is None:
        return None
    if not isinstance(value, _KEY_CONSTANTS[_family(column)]):
        return _NO_KEY
    try:
        value = column.coerce(value)
    except (SQLError, OverflowError):
        return _NO_KEY
    return _NO_KEY if value != value else value  # NaN equals nothing but itself


def _nodes(value: Any) -> Iterator[ast.Expression]:
    """Every expression node under ``value`` (subquery bodies excluded)."""
    if isinstance(value, ast.Expression):
        yield value
        for name, child in vars(value).items():
            if name != "span":  # a call's or placeholder's offsets in the text
                yield from _nodes(child)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes(item)


def _owners(
    scope: Scope, expression: ast.Expression, limit: Optional[int] = None
) -> Optional[Set[int]]:
    """Tables the expression reads, None when it cannot be placed statically."""
    found: Set[int] = set()
    for node in _nodes(expression):
        if isinstance(node, _SUBQUERIES):
            return None
        if isinstance(node, ast.ColumnRef):
            owner = scope.owner(node, limit)
            if owner is None:
                return None
            found.add(owner)
    return found


def _conjuncts(expression: Optional[ast.Expression]) -> List[Conjunct]:
    """The top-level ``AND`` operands of a WHERE/ON clause, left to right."""
    parts: List[ast.Expression] = []

    def visit(node: ast.Expression) -> None:
        if isinstance(node, ast.BinaryOp) and node.operator == "AND":
            visit(node.left)
            visit(node.right)
        else:
            parts.append(node)

    if expression is not None:
        visit(expression)
    return [(part, len(parts) > 1) for part in parts]


def _test(
    conjuncts: List[Conjunct], scope: Scope, subquery: Optional[SubqueryRunner]
) -> Optional[Evaluator]:
    """One closure that is truthy exactly when every conjunct passes; None for no conjunct."""
    tests = [
        (compile_expression if under_and or returns_truth(expression) else compile_predicate)(
            expression, scope, subquery
        )
        for expression, under_and in conjuncts
    ]
    if len(tests) < 2:
        return tests[0] if tests else None

    def passes(tables, parameters, outer):
        for test in tests:
            if not test(tables, parameters, outer):
                return False
        return True

    return passes


def _equality_sides(expression: ast.Expression) -> Sequence[Tuple[ast.Expression, ast.Expression]]:
    """``(a, b)`` and ``(b, a)`` of an ``a = b`` comparison, nothing for any other node."""
    if isinstance(expression, ast.BinaryOp) and expression.operator == "=":
        return (expression.left, expression.right), (expression.right, expression.left)
    return ()


class TableAccess:
    """How one table's rows are reached, for SELECT, UPDATE and DELETE alike.

    The table is the one at ``position`` in ``scope``.  ``filters`` are the
    conjuncts decided on its row alone; those of them that are ``column =
    literal|parameter`` on its own columns pick the index.
    """

    def __init__(
        self,
        scope: Scope,
        table: Table,
        position: int,
        filters: List[Conjunct],
        subquery: Optional[SubqueryRunner] = None,
    ):
        self.scope = scope
        self.position = position
        self.table = table
        self.exposed = scope.names[position]
        self.filters = filters
        self.test = _test(filters, scope, subquery)
        self.index: Optional[HashIndex] = None
        #: per index column: the column, the type it stores, and the parameter's
        #: index or the literal's key value
        self.key: List[Tuple[Column, type, Optional[int], Any]] = []
        constants: Dict[str, ast.Expression] = {}
        for expression, _under_and in filters:
            for ref, constant in _equality_sides(expression):
                if isinstance(constant, _CONSTANTS) and scope.owner(ref) == position:
                    constants.setdefault(ref.name.lower(), constant)
        for index in table.indexes.values():
            if all(column.lower() in constants for column in index.columns):
                self.index = index
                for name in index.columns:
                    column, constant = table.schema.column(name), constants[name.lower()]
                    stored = _STORED[column.sql_type]
                    if isinstance(constant, ast.Parameter):
                        self.key.append((column, stored, constant.index, None))
                    else:
                        self.key.append((column, stored, None, _key_value(column, constant.value)))
                break

    def _constant_key(self, parameters: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """The index key for this execution, None when the constants do not make one."""
        key = []
        for column, stored, index, value in self.key:
            if index is not None:
                if index >= len(parameters):
                    return None  # the scan's evaluation reports the missing parameter
                value = parameters[index]
                if type(value) is not stored or value != value:  # else it keys as it is
                    value = _key_value(column, value)
            if value is _NO_KEY:
                return None
            key.append(value)
        return tuple(key)

    def rows(
        self,
        parameters: Sequence[Any],
        outer: Any = None,
        probe: Optional[Tuple[HashIndex, Tuple[Any, ...]]] = None,
    ) -> List[Tuple[RowId, Row]]:
        """``(row_id, row)`` pairs passing ``filters``; ``probe`` overrides the access path."""
        if probe is None and self.index is not None:
            key = self._constant_key(parameters)
            if key is not None:
                probe = (self.index, key)
        if probe is None:
            pairs: Iterable[Tuple[RowId, Row]] = self.table.rows()
        else:
            index, key = probe
            get_row = self.table.get_row
            pairs = [
                (row_id, row)
                for row_id in sorted(index.lookup(key))
                if (row := get_row(row_id)) is not None
            ]
        test, exposed = self.test, self.exposed
        if test is None:
            return list(pairs)
        return [pair for pair in pairs if test({exposed: pair[1]}, parameters, outer)]

    def describe(self) -> str:
        return f"index lookup {self.index.name}" if self.index is not None else "scan"


class _Join:
    """One FROM table and how it meets the rows joined so far.

    ``pair`` holds the conjuncts deciding whether two rows match; the first
    ``earlier.column = this.column`` among them over one type family becomes
    the hash key.  ``after`` holds the WHERE conjuncts that must see a LEFT
    JOIN's null-extended rows.
    """

    def __init__(
        self,
        kind: str,
        access: TableAccess,
        tables: List[Table],
        pair: List[Conjunct],
        after: List[Conjunct],
        subquery: Optional[SubqueryRunner],
    ):
        scope, position = access.scope, access.position
        self.kind = kind
        self.access = access
        self.pair = pair
        self.after = after
        self.null_row = dict.fromkeys(access.table.schema.column_names)
        #: (exposed name, column) of a table already joined = column of this one
        self.key: Optional[Tuple[str, str, str]] = None
        self.probe: Optional[HashIndex] = None
        for conjunct in pair:
            if self.key is not None:
                break
            for mine, other in _equality_sides(conjunct[0]):
                owner = scope.owner(other, position)
                if owner is None or scope.owner(mine, position + 1) != position:
                    continue
                column = access.table.schema.column(mine.name)
                other_column = tables[owner].schema.column(other.name)
                if _family(column) != _family(other_column):
                    continue
                self.key = (scope.names[owner], other_column.name, column.name)
                pair.remove(conjunct)
                if access.index is None:
                    self.probe = access.table.find_by_index([column.name], ())
                break
        self.test = _test(pair, scope, subquery)
        self.after_test = _test(after, scope, subquery)

    def apply(self, joined: List[Joined], parameters: Sequence[Any], outer: Any) -> List[Joined]:
        access, exposed, probe = self.access, self.access.exposed, self.probe
        if not joined:
            return joined
        matches: Dict[Any, List[Row]] = {}
        if self.key is None:
            everything = [row for _row_id, row in access.rows(parameters, outer)]
        else:
            left_exposed, left_column, right_column = self.key
            if probe is None:
                for _row_id, row in access.rows(parameters, outer):
                    if row[right_column] is not None:
                        matches.setdefault(row[right_column], []).append(row)
        test, out = self.test, []
        for tables in joined:
            if self.key is None:
                found: Sequence[Row] = everything
            else:
                value = tables[left_exposed][left_column]
                found = matches.get(value, ())
                if probe is not None and value is not None and value not in matches:
                    found = matches[value] = [
                        row for _row_id, row in access.rows(parameters, outer, (probe, (value,)))
                    ]
            matched = False
            for row in found:
                candidate = dict(tables)
                candidate[exposed] = row
                if test is None or test(candidate, parameters, outer):
                    out.append(candidate)
                    matched = True
            if not matched and self.kind == "LEFT":
                candidate = dict(tables)
                candidate[exposed] = self.null_row
                out.append(candidate)
        after = self.after_test
        if after is not None:
            out = [tables for tables in out if after(tables, parameters, outer)]
        return out

    def describe(self) -> str:
        prefix = "left " if self.kind == "LEFT" else ""
        if self.key is None:
            return f"{self.access.describe()}, {prefix}nested loop"
        left_exposed, left_column, right_column = self.key
        on = f"{right_column} = {left_exposed}.{left_column}"
        if self.probe is not None:
            return f"{prefix}index probe {self.probe.name} on {on}"
        return f"{self.access.describe()}, {prefix}hash join on {on}"


class SelectPlan:
    """The FROM/WHERE part of one ``SELECT``: joined rows that pass ``WHERE``.

    ``subquery`` runs the nested selects of its predicates (None: they raise).
    """

    def __init__(
        self,
        statement: ast.Select,
        catalog: "Catalog",  # noqa: F821
        subquery: Optional[SubqueryRunner] = None,
    ):
        refs = ([statement.from_table] if statement.from_table is not None else []) + [
            join.table for join in statement.joins
        ]
        kinds = ["INNER"] + [join.kind for join in statement.joins]
        tables = [catalog.get_table(ref.name) for ref in refs]
        self.scope = scope = Scope(
            [ref.exposed_name for ref in refs], [table.schema.column_names for table in tables]
        )

        own: List[List[Conjunct]] = [[] for _ref in refs]
        pair: List[List[Conjunct]] = [[] for _ref in refs]
        after: List[List[Conjunct]] = [[] for _ref in refs]
        residual: List[Conjunct] = []
        for position, join in enumerate(statement.joins, 1):
            for conjunct in _conjuncts(join.condition):
                alone = _owners(scope, conjunct[0], position + 1) == {position}
                (own if alone else pair)[position].append(conjunct)
        for conjunct in _conjuncts(statement.where):
            owners = _owners(scope, conjunct[0])
            if not owners:
                residual.append(conjunct)
            elif kinds[max(owners)] == "LEFT":
                after[max(owners)].append(conjunct)
            else:
                (own if len(owners) == 1 else pair)[max(owners)].append(conjunct)
        self.joins = [
            _Join(
                kinds[at],
                TableAccess(scope, tables[at], at, own[at], subquery),
                tables,
                pair[at],
                after[at],
                subquery,
            )
            for at in range(len(refs))
        ]
        #: conjuncts that cannot be placed statically, run on the fully joined rows
        self.residual = _test(residual, scope, subquery)

    def rows(self, parameters: Sequence[Any], outer: Any = None) -> List[Joined]:
        joined: List[Joined] = [{}]
        for join in self.joins:
            joined = join.apply(joined, parameters, outer)
        residual = self.residual
        if residual is not None:
            joined = [tables for tables in joined if residual(tables, parameters, outer)]
        return joined

    def describe(self) -> List[str]:
        """One line per FROM table, in join order: access path and join method."""
        return [
            f"{join.access.exposed}: {join.describe() if position else join.access.describe()}"
            for position, join in enumerate(self.joins)
        ]


def compile_access(
    statement: Any, catalog: "Catalog", subquery: Optional[SubqueryRunner] = None  # noqa: F821
) -> TableAccess:
    """The access path of an ``UPDATE``/``DELETE``: every WHERE conjunct filters its one table."""
    table = catalog.get_table(statement.table)
    scope = Scope([statement.table], [table.schema.column_names])
    return TableAccess(scope, table, 0, _conjuncts(statement.where), subquery)
