"""Compiled access plans: how a statement reaches its rows.

A statement is compiled once against the catalog and the plan is kept on its
AST node until the catalog changes (``Catalog.version``).  The plan decides
only *which rows are looked at*; every predicate is still evaluated by
:class:`repro.sql.expressions.ExpressionEvaluator`, so results are those of
a scan of the cross product followed by ``WHERE``:

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
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.expressions import RowContext, _as_bool
from repro.sql.schema import Column
from repro.sql.storage import HashIndex, Row, RowId, Table
from repro.sql.types import SQLType

#: a conjunct and whether it sat under an ``AND`` (operands of ``AND`` count
#: by truthiness, a predicate standing alone only when it is exactly TRUE)
Conjunct = Tuple[ast.Expression, bool]
Joined = Dict[str, Row]

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


def _family(column: Column) -> Any:
    """Columns of one family hold values whose ``==``/``hash`` agree with ``compare_values``."""
    sql_type = column.sql_type
    return "numeric" if sql_type.is_numeric else "character" if sql_type.is_character else sql_type


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


def _equality_sides(expression: ast.Expression) -> Sequence[Tuple[ast.Expression, ast.Expression]]:
    """``(a, b)`` and ``(b, a)`` of an ``a = b`` comparison, nothing for any other node."""
    if isinstance(expression, ast.BinaryOp) and expression.operator == "=":
        return (expression.left, expression.right), (expression.right, expression.left)
    return ()


class Run(NamedTuple):
    """One execution of a plan: the evaluator and the statement's bindings."""

    evaluate: Callable[[ast.Expression, RowContext], Any]
    parameters: Sequence[Any]
    outer: Optional[RowContext] = None

    def passes(self, conjuncts: List[Conjunct], tables: Joined) -> bool:
        context = RowContext(tables, self.parameters, self.outer)
        for expression, under_and in conjuncts:
            value = self.evaluate(expression, context)
            if value is not True and not (under_and and _as_bool(value)):
                return False
        return True


class _Scope:
    """Static column resolution over the FROM tables, as ``RowContext.resolve`` does it per row."""

    def __init__(self, names: List[str], tables: List[Table]):
        self.names = names
        self.tables = tables
        self._lowered = [name.lower() for name in names]
        # two tables under one exposed name share one slot of the joined row;
        # nothing can be placed statically then
        self.static = len(set(self._lowered)) == len(names)

    def owner(self, ref: ast.Expression, limit: Optional[int] = None) -> Optional[int]:
        """Position of the one table the column ``ref`` names, None when that is not known here."""
        if not isinstance(ref, ast.ColumnRef):
            return None
        schemas = [table.schema for table in self.tables[:limit]]
        if ref.table is not None:
            wanted = ref.table.lower()
            for position, schema in enumerate(schemas):
                if self._lowered[position] == wanted:
                    return position if schema.has_column(ref.name) else None
            return None
        holders = [p for p, schema in enumerate(schemas) if schema.has_column(ref.name)]
        return holders[0] if len(holders) == 1 else None

    def owners(
        self, expression: ast.Expression, limit: Optional[int] = None
    ) -> Optional[Set[int]]:
        """Tables the expression reads, None when it cannot be placed statically."""
        found: Set[int] = set()
        for node in _nodes(expression):
            if isinstance(node, _SUBQUERIES) or not self.static:
                return None
            if isinstance(node, ast.ColumnRef):
                owner = self.owner(node, limit)
                if owner is None:
                    return None
                found.add(owner)
        return found


class TableAccess:
    """How one table's rows are reached, for SELECT, UPDATE and DELETE alike.

    The table is the one at ``position`` in ``scope``.  ``filters`` are the
    conjuncts decided on its row alone; those of them that are ``column =
    literal|parameter`` on its own columns pick the index.
    """

    def __init__(self, scope: _Scope, position: int, filters: List[Conjunct]):
        self.scope = scope
        self.position = position
        self.table = table = scope.tables[position]
        self.exposed = scope.names[position]
        self.filters = filters
        self.index: Optional[HashIndex] = None
        self.key: List[Tuple[Column, ast.Expression]] = []
        constants: Dict[str, ast.Expression] = {}
        for expression, _under_and in filters:
            for ref, constant in _equality_sides(expression):
                if isinstance(constant, _CONSTANTS) and scope.owner(ref) == position:
                    constants.setdefault(ref.name.lower(), constant)
        for index in table.indexes.values():
            if all(column.lower() in constants for column in index.columns):
                self.index = index
                self.key = [
                    (table.schema.column(column), constants[column.lower()])
                    for column in index.columns
                ]
                break

    def _constant_key(self, parameters: Sequence[Any]) -> Optional[Tuple[Any, ...]]:
        """The index key for this execution, None when the constants do not make one."""
        key = []
        for column, constant in self.key:
            if isinstance(constant, ast.Literal):
                value = constant.value
            elif constant.index < len(parameters):
                value = parameters[constant.index]
            else:
                return None  # the scan's evaluation reports the missing parameter
            if value is not None:
                if not isinstance(value, _KEY_CONSTANTS[_family(column)]):
                    return None
                try:
                    value = column.coerce(value)
                except (SQLError, OverflowError):
                    return None
                if value != value:  # NaN compares equal to nothing but itself
                    return None
            key.append(value)
        return tuple(key)

    def rows(
        self, run: Run, probe: Optional[Tuple[HashIndex, Tuple[Any, ...]]] = None
    ) -> List[Tuple[RowId, Row]]:
        """``(row_id, row)`` pairs passing ``filters``; ``probe`` overrides the access path."""
        if probe is None and self.index is not None:
            key = self._constant_key(run.parameters)
            if key is not None:
                probe = (self.index, key)
        if probe is None:
            pairs = self.table.rows()
        else:
            index, key = probe
            get_row = self.table.get_row
            pairs = [
                (row_id, row)
                for row_id in sorted(index.lookup(key))
                if (row := get_row(row_id)) is not None
            ]
        filters, exposed = self.filters, self.exposed
        return [pair for pair in pairs if not filters or run.passes(filters, {exposed: pair[1]})]

    def describe(self) -> str:
        return f"index lookup {self.index.name}" if self.index is not None else "scan"


class _Join:
    """One FROM table and how it meets the rows joined so far (the first meets one empty row).

    ``pair`` holds the conjuncts deciding whether two rows match; the first
    ``earlier.column = this.column`` among them over one type family becomes
    the hash key.  ``after`` holds the WHERE conjuncts that must see a LEFT
    JOIN's null-extended rows.
    """

    def __init__(self, kind: str, access: TableAccess, pair: List[Conjunct], after: List[Conjunct]):
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
            for mine, other in _equality_sides(conjunct[0]):
                owner = scope.owner(other, position)
                if owner is None or scope.owner(mine, position + 1) != position:
                    continue
                column = access.table.schema.column(mine.name)
                other_column = scope.tables[owner].schema.column(other.name)
                if _family(column) != _family(other_column):
                    continue
                self.key = (scope.names[owner], other_column.name, column.name)
                pair.remove(conjunct)
                if access.index is None:
                    self.probe = access.table.find_by_index([column.name], ())
                return

    def apply(self, joined: List[Joined], run: Run) -> List[Joined]:
        access, exposed = self.access, self.access.exposed
        if not joined:
            return joined
        if self.key is None:
            everything = [row for _row_id, row in access.rows(run)]

            def candidates(tables: Joined) -> Sequence[Row]:
                return everything

        else:
            left_exposed, left_column, right_column = self.key
            matches: Dict[Any, List[Row]] = {}
            if self.probe is None:
                for _row_id, row in access.rows(run):
                    if row[right_column] is not None:
                        matches.setdefault(row[right_column], []).append(row)

            def candidates(tables: Joined) -> Sequence[Row]:
                value = tables[left_exposed][left_column]
                found = matches.get(value)
                if found is None:
                    found = ()
                    if self.probe is not None and value is not None:
                        found = matches[value] = [
                            row for _row_id, row in access.rows(run, (self.probe, (value,)))
                        ]
                return found

        pair, out = self.pair, []
        for tables in joined:
            matched = False
            for row in candidates(tables):
                candidate = dict(tables)
                candidate[exposed] = row
                if not pair or run.passes(pair, candidate):
                    out.append(candidate)
                    matched = True
            if not matched and self.kind == "LEFT":
                candidate = dict(tables)
                candidate[exposed] = self.null_row
                out.append(candidate)
        if self.after:
            out = [tables for tables in out if run.passes(self.after, tables)]
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
    """The FROM/WHERE part of one ``SELECT``: joined rows that pass ``WHERE``."""

    def __init__(self, statement: ast.Select, catalog: "Catalog"):  # noqa: F821
        refs = ([statement.from_table] if statement.from_table is not None else []) + [
            join.table for join in statement.joins
        ]
        kinds = ["INNER"] + [join.kind for join in statement.joins]
        scope = _Scope(
            [ref.exposed_name for ref in refs], [catalog.get_table(ref.name) for ref in refs]
        )
        own: List[List[Conjunct]] = [[] for _ref in refs]
        pair: List[List[Conjunct]] = [[] for _ref in refs]
        after: List[List[Conjunct]] = [[] for _ref in refs]
        #: conjuncts that cannot be placed statically, run on the fully joined rows
        self.residual: List[Conjunct] = []
        for position, join in enumerate(statement.joins, 1):
            for conjunct in _conjuncts(join.condition):
                alone = scope.owners(conjunct[0], position + 1) == {position}
                (own if alone else pair)[position].append(conjunct)
        for conjunct in _conjuncts(statement.where):
            owners = scope.owners(conjunct[0])
            if not owners:
                self.residual.append(conjunct)
            elif kinds[max(owners)] == "LEFT":
                after[max(owners)].append(conjunct)
            else:
                (own if len(owners) == 1 else pair)[max(owners)].append(conjunct)
        self.joins = [
            _Join(kinds[at], TableAccess(scope, at, own[at]), pair[at], after[at])
            for at in range(len(refs))
        ]

    def rows(self, run: Run) -> List[Joined]:
        joined: List[Joined] = [{}]
        for join in self.joins:
            joined = join.apply(joined, run)
        if self.residual:
            joined = [tables for tables in joined if run.passes(self.residual, tables)]
        return joined

    def describe(self) -> List[str]:
        """One line per FROM table, in join order: access path and join method."""
        return [
            f"{join.access.exposed}: {join.describe() if position else join.access.describe()}"
            for position, join in enumerate(self.joins)
        ]


def compile_access(statement: Any, catalog: "Catalog") -> TableAccess:  # noqa: F821
    """The access path of an ``UPDATE``/``DELETE``: every WHERE conjunct filters its one table."""
    scope = _Scope([statement.table], [catalog.get_table(statement.table)])
    return TableAccess(scope, 0, _conjuncts(statement.where))
