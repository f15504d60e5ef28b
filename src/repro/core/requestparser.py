"""Statement analysis for the controller.

Load balancers supporting partial replication "must parse the incoming
queries and need to know the database schema of each backend" (paper
§2.4.3).  This module parses each statement with the engine's parser
(:func:`repro.sql.parser.parse`) and reads every fact the controller needs
off the tree in one walk: the request class (read / write / DDL /
transaction marker), the tables in source order, the columns an UPDATE
assigns and a SELECT references, the cost class and scatter-gather merge
kind of a read, the DDL kind, and the source span of every
non-deterministic macro call (NOW(), RAND(), ...).  A statement the parser
rejects raises :class:`~repro.errors.SQLSyntaxError` here, before any
backend sees it.

Because applications issue the same statement shapes over and over (the
paper's parsing cache, §2.4.2), :class:`RequestFactory` keeps the analysis
in an LRU :class:`ParsingCache` keyed by the statement text, stripped of
surrounding whitespace and one trailing ``;``.  A cached template stamps its
facts onto each fresh request.  A write that calls a macro has each call
replaced by a ``?`` once, at template build; every instantiation binds fresh
controller values to those slots (:func:`~repro.core.macros.bind_macros`),
so the text never changes and both this cache and the engines' statement
caches hit.  The engines still parse the text they receive: the executor
hangs per-catalog plans on its tree, so backends never share the
controller's.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Type

from repro.core.macros import bind_macros
from repro.core.request import (
    AbstractRequest,
    BatchWriteRequest,
    BeginRequest,
    CommitRequest,
    DDLRequest,
    RollbackRequest,
    SelectRequest,
    WriteRequest,
    freeze_parameter_sets,
)
from repro.errors import CJDBCError, SQLSyntaxError
from repro.planner.plan import (
    MERGE_AGGREGATE,
    MERGE_ORDERED,
    MERGE_UNION,
    READ_COMPLEX,
    READ_SIMPLE,
    WRITE,
)
from repro.sql import ast
from repro.sql.functions import AGGREGATE_NAMES, VOLATILE_FUNCTIONS
from repro.sql.parser import parse

#: DDL kinds, one per DDL statement of the dialect
CREATE_TABLE = "create table"
DROP_TABLE = "drop table"
_DDL_KINDS = {
    ast.CreateTable: CREATE_TABLE,
    ast.DropTable: DROP_TABLE,
    ast.CreateIndex: "create index",
    ast.DropIndex: "drop index",
    ast.AlterTableAddColumn: "alter table",
}
_REQUEST_CLASSES = {
    ast.Select: SelectRequest,
    ast.Insert: WriteRequest,
    ast.Update: WriteRequest,
    ast.Delete: WriteRequest,
    ast.BeginTransaction: BeginRequest,
    ast.Commit: CommitRequest,
    ast.Rollback: RollbackRequest,
    **{statement: DDLRequest for statement in _DDL_KINDS},
}
#: statements that name their target table in a ``table`` field
_TABLE_STATEMENTS = (ast.Insert, ast.Update, ast.Delete, *_DDL_KINDS)
_NODES = (
    ast.Expression,
    ast.Statement,
    ast.SelectItem,
    ast.TableRef,
    ast.Join,
    ast.OrderItem,
)


class _Walk:
    """One pass over a statement tree, noting what the controller needs."""

    def __init__(self):
        #: lower-cased name -> the name as first written, in source order
        self.tables: Dict[str, str] = {}
        #: lower-cased referenced column names; None once a ``*`` is seen
        self.columns: Optional[set] = set()
        self.macro_sites: List[Tuple[int, int, str]] = []
        self.parameter_starts: List[int] = []
        self.complex = self.aggregate = self.ordered = False

    def visit(self, node) -> None:
        """Visit ``node`` and its children in source order."""
        if isinstance(node, (list, tuple)):
            for item in node:
                self.visit(item)
            return
        if not isinstance(node, _NODES):
            return
        kind = type(node)
        if kind is ast.ColumnRef:
            if self.columns is not None:
                self.columns.add(node.name.lower())
            return
        if kind is ast.Star:
            self.columns = None
            return
        if kind is ast.TableRef:
            self.tables.setdefault(node.name.lower(), node.name)
            return
        if kind is ast.Parameter:
            self.parameter_starts.append(node.span[0])
            return
        if kind is ast.FunctionCall:
            name = node.name.upper()
            if name in AGGREGATE_NAMES:
                self.aggregate = True
            elif name in VOLATILE_FUNCTIONS and not node.args:
                self.macro_sites.append((*node.span, name))
        elif kind is ast.Select:
            self.complex |= bool(node.joins) or node.distinct
            self.aggregate |= bool(node.group_by)
            self.ordered |= bool(node.order_by)
        elif isinstance(node, _TABLE_STATEMENTS) and node.table:
            self.tables.setdefault(node.table.lower(), node.table)
        for value in vars(node).values():
            if isinstance(value, (list, tuple, _NODES)):
                self.visit(value)


class ParsedTemplate:
    """Everything the controller knows about one SQL text, built once.

    ``macro_sites`` holds each macro call as ``(start, end, NAME)`` offsets
    into the analysed text.  In a write each call becomes a ``?``: ``sql``
    is the text with those placeholders, the one every backend receives, and
    ``macro_slots`` holds ``(slot, NAME)``, the index in the parameter tuple
    each controller value fills, in slot order.  A read keeps its calls (they
    run wherever the read does) and is never served from the result cache.
    """

    __slots__ = (
        "request_class",
        "sql",
        "tables",
        "cost_class",
        "merge",
        "ddl_kind",
        "assigned_columns",
        "read_columns",
        "macro_sites",
        "macro_slots",
        "cached_plan",
    )

    def __init__(self, sql: str):
        statement = parse(sql)
        walk = _Walk()
        walk.visit(statement)
        self.request_class: Type[AbstractRequest] = _REQUEST_CLASSES[type(statement)]
        self.tables: Tuple[str, ...] = tuple(walk.tables.values())
        is_read = self.request_class is SelectRequest
        if not is_read:
            self.cost_class = WRITE
        elif len(walk.tables) > 1 or walk.complex or walk.aggregate or walk.ordered:
            self.cost_class = READ_COMPLEX
        else:
            self.cost_class = READ_SIMPLE
        if walk.aggregate:
            self.merge = MERGE_AGGREGATE
        else:
            self.merge = MERGE_ORDERED if walk.ordered else MERGE_UNION
        self.ddl_kind: Optional[str] = _DDL_KINDS.get(type(statement))
        #: lower-cased columns an UPDATE assigns; None for any other statement
        self.assigned_columns: Optional[FrozenSet[str]] = (
            frozenset(column.lower() for column, _ in statement.assignments)
            if type(statement) is ast.Update
            else None
        )
        #: lower-cased columns a SELECT references; None for ``*`` or a non-read
        self.read_columns: Optional[FrozenSet[str]] = (
            frozenset(walk.columns) if is_read and walk.columns is not None else None
        )
        self.macro_sites: Tuple[Tuple[int, int, str], ...] = tuple(sorted(walk.macro_sites))
        self.macro_slots: Tuple[Tuple[int, str], ...] = ()
        if self.request_class is WriteRequest and self.macro_sites:
            # every backend must store the same value (paper §2.4.1): each call
            # becomes a ?, its slot after the placeholders and calls before it
            starts = sorted(walk.parameter_starts)
            self.macro_slots = tuple(
                (index + bisect_left(starts, start), name)
                for index, (start, _, name) in enumerate(self.macro_sites)
            )
            for start, end, _ in reversed(self.macro_sites):
                sql = sql[:start] + "?" + sql[end:]
        self.sql = sql
        #: ``(planner, version, RoutePlan)`` stamped by the query planner;
        #: re-executions of this statement shape skip planning while the
        #: planner's version counter stands still
        self.cached_plan = None

    @property
    def is_write(self) -> bool:
        """True for INSERT/UPDATE/DELETE templates (the batchable shapes)."""
        return self.request_class is WriteRequest

    @property
    def is_read_only(self) -> bool:
        return self.request_class is SelectRequest

    def require_batchable(self, error_class: type = CJDBCError) -> None:
        """Raise unless this template may be executed as a batch.

        The single source of the batchability rule: every layer (driver
        ``add_batch``, controller handle, distributed replica) funnels
        through here, with ``error_class`` selecting the layer's idiom
        (``InterfaceError`` at the driver, ``CJDBCError`` elsewhere).
        """
        if not self.is_write:
            raise error_class(
                f"only INSERT/UPDATE/DELETE statements can be batched,"
                f" got: {self.sql[:80]!r}"
            )

    def instantiate(
        self,
        parameters: Sequence[object],
        login: str,
        transaction_id: Optional[int],
    ) -> AbstractRequest:
        parameters = tuple(parameters)
        if self.macro_slots:
            (parameters,) = bind_macros((parameters,), self.macro_slots)
        return self.request_class(
            sql=self.sql,
            tables=self.tables,
            parameters=parameters,
            login=login,
            transaction_id=transaction_id,
            template=self,
        )

    def instantiate_batch(
        self,
        parameter_sets: Sequence[Sequence[object]],
        login: str,
        transaction_id: Optional[int],
    ) -> BatchWriteRequest:
        """One :class:`BatchWriteRequest` covering every parameter set.

        Macro values are drawn once per batch, so every row of the batch (and
        every backend it is broadcast to) sees the same NOW()/RAND() value —
        the same determinism guarantee a single write gets.
        """
        self.require_batchable()
        parameter_sets = freeze_parameter_sets(parameter_sets)
        if not parameter_sets:
            raise CJDBCError("a batch needs at least one parameter set")
        if self.macro_slots:
            parameter_sets = bind_macros(parameter_sets, self.macro_slots)
        return BatchWriteRequest(
            sql=self.sql,
            tables=self.tables,
            parameter_sets=parameter_sets,
            login=login,
            transaction_id=transaction_id,
            template=self,
        )


@dataclass
class ParsingCacheStatistics:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_ratio(self) -> float:
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_ratio": round(self.hit_ratio, 4),
        }


class ParsingCache:
    """Bounded LRU cache of :class:`ParsedTemplate` objects, keyed by SQL text."""

    def __init__(self, max_entries: int = 1024):
        if max_entries < 1:
            raise ValueError(f"parsing cache needs max_entries >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, ParsedTemplate]" = OrderedDict()
        self._lock = threading.Lock()
        self.statistics = ParsingCacheStatistics()

    def get(self, key: str) -> Optional[ParsedTemplate]:
        with self._lock:
            template = self._entries.get(key)
            if template is None:
                self.statistics.misses += 1
                return None
            self._entries.move_to_end(key)
            self.statistics.hits += 1
            return template

    def put(self, key: str, template: ParsedTemplate) -> None:
        with self._lock:
            self._entries[key] = template
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.statistics.evictions += 1

    def flush(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def as_dict(self) -> dict:
        """Statistics plus occupancy, for controller monitoring."""
        stats = self.statistics.as_dict()
        stats["entries"] = len(self)
        stats["max_entries"] = self.max_entries
        return stats


class RequestFactory:
    """Builds request objects from raw SQL strings.

    ``parsing_cache_size`` bounds the LRU parsing cache; ``0`` disables
    caching entirely (every statement is parsed again).
    """

    def __init__(self, parsing_cache_size: int = 1024):
        self.parsing_cache: Optional[ParsingCache] = (
            ParsingCache(max_entries=parsing_cache_size) if parsing_cache_size > 0 else None
        )

    def get_template(self, sql: str) -> ParsedTemplate:
        """The (cached) analysis of ``sql``.

        This is the handle behind prepared statements: holding on to the
        template lets repeated executions skip the analysis entirely,
        paying only request instantiation.
        """
        # the text the analysis parses, so spacing and a final ";" share an entry
        sql = sql.strip().removesuffix(";").rstrip()
        cache = self.parsing_cache
        if cache is None:
            return _analyse(sql)
        template = cache.get(sql)
        if template is None:
            template = _analyse(sql)
            cache.put(sql, template)
        return template

    def create_request(
        self,
        sql: str,
        parameters: Sequence[object] = (),
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> AbstractRequest:
        """Parse ``sql`` and wrap it in the appropriate request object."""
        return self.get_template(sql).instantiate(parameters, login, transaction_id)

    def create_batch_request(
        self,
        sql: str,
        parameter_sets: Sequence[Sequence[object]],
        login: str = "",
        transaction_id: Optional[int] = None,
    ) -> BatchWriteRequest:
        """Parse a write template and bind N parameter sets to it."""
        return self.get_template(sql).instantiate_batch(
            parameter_sets, login, transaction_id
        )


def _analyse(sql: str) -> ParsedTemplate:
    if not sql:
        raise SQLSyntaxError("empty SQL statement")
    return ParsedTemplate(sql)
