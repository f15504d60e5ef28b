"""Expressions compiled to closures, once per plan.

:func:`compile_expression` turns an expression node into a closure
``f(tables, parameters, outer)``: ``tables`` maps each exposed table name
(alias or table name) to the row being looked at, ``parameters`` holds the
statement's bound values, and ``outer`` is ``(tables, outer)`` of the
enclosing query for a correlated subquery, else None.  The plans of
:mod:`repro.sql.plan` and :mod:`repro.sql.executor` compile each expression
once per catalog version; evaluating it is then one call per node.

A column reference that the :class:`Scope` places statically reads
``tables[exposed][key]``, ``key`` being the schema's spelling of the column.
One it cannot place — an enclosing query's column, a name under an exposed
name two tables share, an unknown or ambiguous name — is looked up per row by
:func:`resolve`, which also raises the errors.  Compiling never raises: an
unknown name or function and a missing parameter fail when a row is
evaluated, so a query over an empty table returns no rows and no error.

SQL three-valued logic: comparisons involving NULL yield UNKNOWN (``None``),
``AND``/``OR``/``NOT`` propagate it, and a WHERE clause keeps only rows whose
predicate is TRUE.
"""

from __future__ import annotations

import functools
import operator
import re
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import SQLError
from repro.sql import ast
from repro.sql.functions import SCALAR_FUNCTIONS, call_scalar, is_aggregate, make_aggregate
from repro.sql.types import _normalize_pair, compare_values

Joined = Dict[str, Dict[str, Any]]
#: ``f(tables, parameters, outer)``; a grouped one takes the group's rows for ``tables``
Evaluator = Callable[[Any, Sequence[Any], Any], Any]
#: runs a nested select for one row: ``(select, tables, parameters, outer) -> rows``
SubqueryRunner = Callable[[ast.Select, Joined, Sequence[Any], Any], List[List[Any]]]


class Scope:
    """The FROM tables as the compiler sees them: exposed names and their column names."""

    def __init__(self, names: Sequence[str], columns: Sequence[Iterable[str]]):
        self.names = list(names)
        self.columns = [list(table) for table in columns]
        self._lowered = [name.lower() for name in self.names]
        self._keys = [{column.lower(): column for column in table} for table in self.columns]
        # two tables under one exposed name share one slot of the joined row;
        # nothing can be placed statically then
        self.static = len(set(self._lowered)) == len(self.names)

    def place(self, ref: ast.Expression, limit: Optional[int] = None) -> Optional[Tuple[int, str]]:
        """Position and stored key of the column ``ref`` names, None when that is not known here."""
        if not isinstance(ref, ast.ColumnRef) or not self.static:
            return None
        name, keys = ref.name.lower(), self._keys[:limit]
        if ref.table is not None:
            wanted = ref.table.lower()
            for position, known in enumerate(keys):
                if self._lowered[position] == wanted:
                    return (position, known[name]) if name in known else None
            return None
        holders = [position for position, known in enumerate(keys) if name in known]
        return (holders[0], keys[holders[0]][name]) if len(holders) == 1 else None

    def owner(self, ref: ast.Expression, limit: Optional[int] = None) -> Optional[int]:
        placed = self.place(ref, limit)
        return None if placed is None else placed[0]


def resolve(ref: ast.ColumnRef, tables: Joined, outer: Any) -> Any:
    """``ref``'s value, looked up by name in ``tables`` and then in the enclosing rows."""
    if ref.table is not None:
        wanted = ref.table.lower()
        for exposed, row in tables.items():
            if exposed.lower() == wanted:
                key = _key(row, ref.name)
                if key is None:
                    raise SQLError(f"unknown column {ref.name!r}")
                return row[key]
        if outer is not None:
            return resolve(ref, *outer)
        raise SQLError(f"unknown table or alias {ref.table!r}")
    found = [(row, key) for row in tables.values() if (key := _key(row, ref.name)) is not None]
    if len(found) == 1:
        return found[0][0][found[0][1]]
    if found:
        raise SQLError(f"ambiguous column reference {ref.name!r}")
    if outer is not None:
        return resolve(ref, *outer)
    raise SQLError(f"unknown column {ref.name!r}")


def _key(row: Dict[str, Any], name: str) -> Optional[str]:
    if name in row:
        return name
    lowered = name.lower()
    return next((key for key in row if key.lower() == lowered), None)


# ---------------------------------------------------------------------------
# the compiler
# ---------------------------------------------------------------------------


class _Compiler:
    def __init__(self, scope: Scope, subquery: Optional[SubqueryRunner]):
        self.scope = scope
        self.subquery = subquery

    def __call__(self, node: ast.Expression) -> Evaluator:
        compile_node = _COMPILERS.get(type(node))
        if compile_node is None:
            return _failing(f"cannot evaluate expression node {type(node).__name__}")
        return compile_node(node, self)

    def nested(self, select: ast.Select) -> Evaluator:
        """The closure giving ``select``'s rows for the current row."""
        runner = self.subquery
        if runner is None:
            return _failing("subqueries are not supported in this context")
        return lambda tables, parameters, outer: runner(select, tables, parameters, outer)


def compile_expression(
    node: ast.Expression, scope: Scope, subquery: Optional[SubqueryRunner] = None
) -> Evaluator:
    """The closure computing ``node`` over rows of ``scope``; ``subquery`` runs nested selects."""
    return _Compiler(scope, subquery)(node)


def compile_predicate(
    node: ast.Expression, scope: Scope, subquery: Optional[SubqueryRunner] = None
) -> Evaluator:
    """``node`` as a WHERE or ON predicate: True when it is TRUE, else False (UNKNOWN too)."""
    value = compile_expression(node, scope, subquery)
    return lambda tables, parameters, outer: value(tables, parameters, outer) is True


def compile_grouped(
    node: ast.Expression, scope: Scope, subquery: Optional[SubqueryRunner] = None
) -> Evaluator:
    """``node`` over one group: its ``tables`` argument is the list of the group's rows.

    An aggregate call folds its argument over the rows, arithmetic and logic
    combine such values, and any other expression reads the group's first row.
    """
    if isinstance(node, ast.FunctionCall) and is_aggregate(node.name):
        count_star = not node.args or isinstance(node.args[0], ast.Star)
        argument = None if count_star else compile_expression(node.args[0], scope, subquery)
        name, distinct = node.name, node.distinct

        def aggregate(rows, parameters, outer):
            accumulator = make_aggregate(name, count_star=count_star, distinct=distinct)
            for tables in rows:
                accumulator.add(1 if argument is None else argument(tables, parameters, outer))
            return accumulator.result()

        return aggregate
    if isinstance(node, ast.BinaryOp):
        return _binary(
            node.operator,
            compile_grouped(node.left, scope, subquery),
            compile_grouped(node.right, scope, subquery),
        )
    if isinstance(node, ast.UnaryOp):
        return _unary(node.operator, compile_grouped(node.operand, scope, subquery))
    first = compile_expression(node, scope, subquery)
    return lambda rows, parameters, outer: first(rows[0] if rows else {}, parameters, outer)


_TRUTH_NODES = (ast.IsNull, ast.InList, ast.InSubquery, ast.Between, ast.ExistsSubquery)


def returns_truth(node: ast.Expression) -> bool:
    """Whether ``node`` only ever evaluates to True, False or None."""
    if isinstance(node, ast.BinaryOp):
        return node.operator not in _ARITHMETIC and node.operator != "||"
    if isinstance(node, ast.UnaryOp):
        return node.operator == "NOT"
    return isinstance(node, _TRUTH_NODES)


def _failing(message: str) -> Evaluator:
    def fail(tables, parameters, outer):
        raise SQLError(message)

    return fail


def _literal(node: ast.Literal, compile: _Compiler) -> Evaluator:
    value = node.value
    return lambda tables, parameters, outer: value


def _parameter(node: ast.Parameter, compile: _Compiler) -> Evaluator:
    index = node.index

    def parameter(tables, parameters, outer):
        try:
            return parameters[index]
        except IndexError:
            raise SQLError(
                f"missing parameter #{index + 1}: only {len(parameters)} bound"
            ) from None

    return parameter


def _column(node: ast.ColumnRef, compile: _Compiler) -> Evaluator:
    placed = compile.scope.place(node)
    if placed is None:
        return lambda tables, parameters, outer: resolve(node, tables, outer)
    exposed, key = compile.scope.names[placed[0]], placed[1]

    def column(tables, parameters, outer):
        try:
            return tables[exposed][key]
        except KeyError:  # a row of a table not joined yet, or a schema changing
            return resolve(node, tables, outer)

    return column


def _star(node: ast.Star, compile: _Compiler) -> Evaluator:
    return _failing("'*' is only allowed in a select list or COUNT(*)")


def _unary_node(node: ast.UnaryOp, compile: _Compiler) -> Evaluator:
    return _unary(node.operator, compile(node.operand))


def _unary(operator_name: str, operand: Evaluator) -> Evaluator:
    if operator_name == "NOT":
        function: Callable[[Any], Any] = operator.not_
    elif operator_name in ("-", "+"):
        function = operator.neg if operator_name == "-" else operator.pos
    else:
        return _failing(f"unknown unary operator {operator_name!r}")

    def unary(tables, parameters, outer):
        value = operand(tables, parameters, outer)
        return None if value is None else function(value)

    return unary


def _binary_node(node: ast.BinaryOp, compile: _Compiler) -> Evaluator:
    left = compile(node.left)
    if node.operator in ("LIKE", "NOT LIKE") and isinstance(node.right, ast.Literal):
        if node.right.value is not None:  # the pattern compiles here, once
            match, negated = like_regex(str(node.right.value)).match, node.operator == "NOT LIKE"

            def like(tables, parameters, outer):
                value = left(tables, parameters, outer)
                return None if value is None else (match(str(value)) is not None) != negated

            return like
    return _binary(node.operator, left, compile(node.right))


#: per comparison operator, its value when the left operand is equal to, greater
#: than and less than the right one (indexed by ``(l > r) - (l < r)``)
_COMPARISONS = {
    "=": (True, False, False),
    "<>": (False, True, True),
    "<": (False, False, True),
    "<=": (True, False, True),
    ">": (False, True, False),
    ">=": (True, True, False),
}


def _divide(left: Any, right: Any) -> Any:
    return None if right == 0 else left / right


def _modulo(left: Any, right: Any) -> Any:
    return None if right == 0 else left % right


_ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": _divide, "%": _modulo}


def _binary(operator_name: str, left: Evaluator, right: Evaluator) -> Evaluator:
    if operator_name == "AND":

        def and_(tables, parameters, outer):
            first = left(tables, parameters, outer)
            if first is not None and not first:
                return False
            second = right(tables, parameters, outer)
            if second is not None and not second:
                return False
            return None if first is None or second is None else True

        return and_
    if operator_name == "OR":

        def or_(tables, parameters, outer):
            first = left(tables, parameters, outer)
            if first:
                return True
            second = right(tables, parameters, outer)
            if second:
                return True
            return None if first is None or second is None else False

        return or_
    outcomes = _COMPARISONS.get(operator_name)
    if outcomes is not None:

        def compare(tables, parameters, outer):
            first, second = left(tables, parameters, outer), right(tables, parameters, outer)
            if first is None or second is None:
                return None
            if type(first) is not type(second) or type(first) is bool:
                first, second = _normalize_pair(first, second)
            return outcomes[(first > second) - (first < second)]

        return compare
    if operator_name in ("LIKE", "NOT LIKE"):
        negated = operator_name == "NOT LIKE"

        def like(tables, parameters, outer):
            value, pattern = left(tables, parameters, outer), right(tables, parameters, outer)
            if value is None or pattern is None:
                return None
            return (like_regex(str(pattern)).match(str(value)) is not None) != negated

        return like
    function = _ARITHMETIC.get(operator_name)
    if operator_name == "||":
        function = lambda first, second: str(first) + str(second)  # noqa: E731
    elif function is None:
        return _failing(f"unknown binary operator {operator_name!r}")

    def arithmetic(tables, parameters, outer):
        first, second = left(tables, parameters, outer), right(tables, parameters, outer)
        if first is None or second is None:
            return None
        try:
            return function(first, second)
        except TypeError as exc:
            raise SQLError(
                f"type error applying {operator_name!r} to {first!r} and {second!r}"
            ) from exc

    return arithmetic


def _is_null(node: ast.IsNull, compile: _Compiler) -> Evaluator:
    operand, negated = compile(node.operand), node.negated
    return lambda tables, parameters, outer: (operand(tables, parameters, outer) is None) != negated


def _member(value: Any, candidates: Iterable[Any], negated: bool) -> Optional[bool]:
    """``value IN candidates`` in three-valued logic."""
    if value is None:
        return None
    saw_null = False
    for candidate in candidates:
        if candidate is None:
            saw_null = True
        elif compare_values(value, candidate) == 0:
            return not negated
    return None if saw_null else negated


def _in_list(node: ast.InList, compile: _Compiler) -> Evaluator:
    operand, items = compile(node.operand), [compile(item) for item in node.items]
    negated = node.negated

    def in_list(tables, parameters, outer):
        value = operand(tables, parameters, outer)
        if value is None:
            return None
        return _member(value, (item(tables, parameters, outer) for item in items), negated)

    return in_list


def _in_subquery(node: ast.InSubquery, compile: _Compiler) -> Evaluator:
    rows_of, operand, negated = compile.nested(node.subquery), compile(node.operand), node.negated

    def in_subquery(tables, parameters, outer):
        rows = rows_of(tables, parameters, outer)
        value = operand(tables, parameters, outer)
        return _member(value, (row[0] if row else None for row in rows), negated)

    return in_subquery


def _between(node: ast.Between, compile: _Compiler) -> Evaluator:
    operand, low, high = compile(node.operand), compile(node.low), compile(node.high)
    negated = node.negated

    def between(tables, parameters, outer):
        value = operand(tables, parameters, outer)
        bottom, top = low(tables, parameters, outer), high(tables, parameters, outer)
        above, below = compare_values(value, bottom), compare_values(value, top)
        if above is None or below is None:
            return None
        return (above >= 0 and below <= 0) != negated

    return between


def _function(node: ast.FunctionCall, compile: _Compiler) -> Evaluator:
    if is_aggregate(node.name):
        # aggregates are folded by compile_grouped; one reaching here sits
        # outside a select list or HAVING
        return _failing(f"aggregate function {node.name!r} not allowed in this context")
    function = SCALAR_FUNCTIONS.get(node.name.upper()) or functools.partial(call_scalar, node.name)
    arguments = [compile(argument) for argument in node.args]
    return lambda tables, parameters, outer: function(
        [argument(tables, parameters, outer) for argument in arguments]
    )


def _case(node: ast.CaseExpression, compile: _Compiler) -> Evaluator:
    whens = [(compile(condition), compile(value)) for condition, value in node.whens]
    default = None if node.default is None else compile(node.default)

    def case(tables, parameters, outer):
        for condition, value in whens:
            if condition(tables, parameters, outer) is True:
                return value(tables, parameters, outer)
        return None if default is None else default(tables, parameters, outer)

    return case


def _exists(node: ast.ExistsSubquery, compile: _Compiler) -> Evaluator:
    rows_of, negated = compile.nested(node.subquery), node.negated
    return lambda tables, parameters, outer: bool(rows_of(tables, parameters, outer)) != negated


def _scalar_subquery(node: ast.ScalarSubquery, compile: _Compiler) -> Evaluator:
    rows_of = compile.nested(node.subquery)

    def scalar(tables, parameters, outer):
        rows = rows_of(tables, parameters, outer)
        if not rows:
            return None
        if len(rows) > 1:
            raise SQLError("scalar subquery returned more than one row")
        return rows[0][0] if rows[0] else None

    return scalar


_COMPILERS: Dict[type, Callable[[Any, _Compiler], Evaluator]] = {
    ast.Literal: _literal,
    ast.Parameter: _parameter,
    ast.ColumnRef: _column,
    ast.Star: _star,
    ast.UnaryOp: _unary_node,
    ast.BinaryOp: _binary_node,
    ast.IsNull: _is_null,
    ast.InList: _in_list,
    ast.InSubquery: _in_subquery,
    ast.Between: _between,
    ast.FunctionCall: _function,
    ast.CaseExpression: _case,
    ast.ExistsSubquery: _exists,
    ast.ScalarSubquery: _scalar_subquery,
}


@functools.lru_cache(maxsize=4096)
def like_regex(pattern: str) -> "re.Pattern[str]":
    """SQL LIKE with ``%`` and ``_`` wildcards as a regex, case-insensitive like MySQL."""
    parts = ["^"]
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    parts.append("$")
    return re.compile("".join(parts), re.IGNORECASE | re.DOTALL)
