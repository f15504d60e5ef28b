"""Abstract syntax tree node definitions for the SQL dialect.

Expression nodes and statement nodes are plain dataclasses; the executor
pattern-matches on their types.  Nodes deliberately carry no behaviour beyond
``__repr__`` so they stay easy to construct in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class for expression nodes."""


@dataclass
class Literal(Expression):
    value: Any


@dataclass
class Parameter(Expression):
    """A positional parameter marker (``?`` / ``%s``)."""

    index: int
    #: ``(start, end)`` offsets of the marker in the statement text
    span: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)


@dataclass
class ColumnRef(Expression):
    """A (possibly table-qualified) column reference."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expression):
    """``*`` or ``table.*`` in a select list or COUNT(*)."""

    table: Optional[str] = None


@dataclass
class UnaryOp(Expression):
    operator: str  # '-', '+', 'NOT'
    operand: Expression


@dataclass
class BinaryOp(Expression):
    operator: str  # '=', '<>', '<', '<=', '>', '>=', '+', '-', '*', '/', '%',
    #                'AND', 'OR', 'LIKE', 'NOT LIKE', '||'
    left: Expression
    right: Expression


@dataclass
class IsNull(Expression):
    operand: Expression
    negated: bool = False


@dataclass
class InList(Expression):
    operand: Expression
    items: List[Expression] = field(default_factory=list)
    negated: bool = False


@dataclass
class InSubquery(Expression):
    operand: Expression
    subquery: "Select" = None
    negated: bool = False


@dataclass
class Between(Expression):
    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False


@dataclass
class FunctionCall(Expression):
    """Scalar or aggregate function call, e.g. ``NOW()``, ``COUNT(*)``."""

    name: str
    args: List[Expression] = field(default_factory=list)
    distinct: bool = False
    #: ``(start, end)`` offsets of the call in the statement text
    span: Optional[Tuple[int, int]] = field(default=None, compare=False, repr=False)


@dataclass
class CaseExpression(Expression):
    """``CASE WHEN cond THEN value ... [ELSE value] END``."""

    whens: List[Tuple[Expression, Expression]] = field(default_factory=list)
    default: Optional[Expression] = None


@dataclass
class ExistsSubquery(Expression):
    subquery: "Select" = None
    negated: bool = False


@dataclass
class ScalarSubquery(Expression):
    """A parenthesised ``SELECT`` used as a scalar value."""

    subquery: "Select" = None


# ---------------------------------------------------------------------------
# SELECT support nodes
# ---------------------------------------------------------------------------


@dataclass
class SelectItem:
    """One entry of the select list with an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass
class TableRef:
    """A table in the FROM clause with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def exposed_name(self) -> str:
        return self.alias or self.name


@dataclass
class Join:
    """A join clause attached to the previous table reference."""

    kind: str  # 'INNER', 'LEFT', 'CROSS'
    table: TableRef
    condition: Optional[Expression] = None


@dataclass
class OrderItem:
    expression: Expression
    descending: bool = False


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


class Statement:
    """Base class for statement nodes."""


@dataclass
class Select(Statement):
    items: List[SelectItem] = field(default_factory=list)
    from_table: Optional[TableRef] = None
    joins: List[Join] = field(default_factory=list)
    where: Optional[Expression] = None
    group_by: List[Expression] = field(default_factory=list)
    having: Optional[Expression] = None
    order_by: List[OrderItem] = field(default_factory=list)
    limit: Optional[Expression] = None
    offset: Optional[Expression] = None
    distinct: bool = False
    # where the executor keeps the statement's compiled form (:mod:`repro.sql.plan`),
    # here and on Insert/Update/Delete; it is no part of the statement's value
    plan: Any = field(default=None, compare=False, repr=False)


@dataclass
class Insert(Statement):
    table: str
    columns: List[str] = field(default_factory=list)
    rows: List[List[Expression]] = field(default_factory=list)
    select: Optional[Select] = None
    plan: Any = field(default=None, compare=False, repr=False)


@dataclass
class Update(Statement):
    table: str
    assignments: List[Tuple[str, Expression]] = field(default_factory=list)
    where: Optional[Expression] = None
    plan: Any = field(default=None, compare=False, repr=False)


@dataclass
class Delete(Statement):
    table: str
    where: Optional[Expression] = None
    plan: Any = field(default=None, compare=False, repr=False)


@dataclass
class ColumnDef:
    name: str
    type_name: str
    length: Optional[int] = None
    not_null: bool = False
    primary_key: bool = False
    unique: bool = False
    auto_increment: bool = False
    #: a constant: the parser rejects any other DEFAULT
    default: Optional[Literal] = None


@dataclass
class CreateTable(Statement):
    table: str
    columns: List[ColumnDef] = field(default_factory=list)
    primary_key: List[str] = field(default_factory=list)
    unique_constraints: List[List[str]] = field(default_factory=list)
    if_not_exists: bool = False
    temporary: bool = False


@dataclass
class DropTable(Statement):
    table: str
    if_exists: bool = False


@dataclass
class CreateIndex(Statement):
    name: str
    table: str
    columns: List[str] = field(default_factory=list)
    unique: bool = False


@dataclass
class DropIndex(Statement):
    name: str
    table: Optional[str] = None


@dataclass
class AlterTableAddColumn(Statement):
    table: str
    column: ColumnDef = None


@dataclass
class BeginTransaction(Statement):
    pass


@dataclass
class Commit(Statement):
    pass


@dataclass
class Rollback(Statement):
    pass
