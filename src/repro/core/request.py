"""Request objects exchanged between the C-JDBC driver and the controller.

Every SQL statement received by the virtual database is wrapped in a request
object carrying the information the request manager needs to route it: the
SQL text, bound parameters, whether it is a read or a write, the tables it
touches, the transaction it belongs to and the login that issued it
(paper §2.4).  Transaction demarcation (begin/commit/rollback) travels as
dedicated request types because the scheduler must broadcast those to all
backends in the same order as writes.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, List, Optional, Sequence, Tuple


class RequestType(Enum):
    SELECT = "SELECT"
    WRITE = "WRITE"          # INSERT / UPDATE / DELETE
    DDL = "DDL"              # CREATE / DROP / ALTER
    BEGIN = "BEGIN"
    COMMIT = "COMMIT"
    ROLLBACK = "ROLLBACK"


_request_ids = itertools.count(1)
_request_ids_lock = threading.Lock()


def _next_request_id() -> int:
    with _request_ids_lock:
        return next(_request_ids)


@dataclass
class AbstractRequest:
    """Common state of every request handled by the request manager."""

    sql: str
    parameters: Tuple[Any, ...] = ()
    login: str = ""
    transaction_id: Optional[int] = None
    request_id: int = field(default_factory=_next_request_id)
    #: tables referenced by the request (filled by the request parser)
    tables: Tuple[str, ...] = ()
    #: the :class:`~repro.core.requestparser.ParsedTemplate` this request was
    #: built from: its statement analysis, and the planner's plan cache
    template: Any = field(default=None, compare=False, repr=False)

    @property
    def is_autocommit(self) -> bool:
        return self.transaction_id is None

    @property
    def request_type(self) -> RequestType:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def is_read_only(self) -> bool:
        return self.request_type is RequestType.SELECT

    @property
    def alters_database(self) -> bool:
        return self.request_type in (RequestType.WRITE, RequestType.DDL)

    @property
    def alters_schema(self) -> bool:
        return self.request_type is RequestType.DDL

    def cache_key(self) -> Tuple[str, Tuple[Any, ...]]:
        """Key under which a SELECT result may be cached."""
        return (self.sql, tuple(self.parameters))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        text = self.sql if len(self.sql) <= 60 else self.sql[:57] + "..."
        return f"{type(self).__name__}(#{self.request_id}, {text!r})"


@dataclass(repr=False)
class SelectRequest(AbstractRequest):
    """A read-only request, routed to a single backend (read-one)."""

    @property
    def request_type(self) -> RequestType:
        return RequestType.SELECT


@dataclass(repr=False)
class WriteRequest(AbstractRequest):
    """An INSERT/UPDATE/DELETE, broadcast to every backend holding the tables."""

    @property
    def request_type(self) -> RequestType:
        return RequestType.WRITE


@dataclass(repr=False)
class DDLRequest(AbstractRequest):
    """CREATE/DROP/ALTER: broadcast like a write and updates backend schemas."""

    @property
    def request_type(self) -> RequestType:
        return RequestType.DDL


def freeze_parameter_sets(parameter_sets) -> Tuple[Tuple[Any, ...], ...]:
    """A tuple-of-tuples view of ``parameter_sets``, copying only if needed.

    Batch parameter sets cross several layers (driver → factory → request →
    recovery log); each one requires the frozen shape, and this helper makes
    re-freezing an already-frozen batch free instead of an O(rows) copy.
    """
    if type(parameter_sets) is tuple and all(
        type(parameters) is tuple for parameters in parameter_sets
    ):
        return parameter_sets
    return tuple(tuple(parameters) for parameters in parameter_sets)


@dataclass(repr=False)
class BatchWriteRequest(AbstractRequest):
    """One write template executed with many parameter sets (server-side batch).

    The whole batch flows through the controller pipeline *once*: one
    scheduler ticket, one recovery-log group, one cache-invalidation pass
    over the written tables, and one broadcast task per backend that checks
    out a single connection and executes every parameter set on it.  This is
    the server-side counterpart of JDBC's ``addBatch``/``executeBatch``.
    """

    #: the parameter sets to execute, in order, against :attr:`sql`
    parameter_sets: Tuple[Tuple[Any, ...], ...] = ()

    @property
    def request_type(self) -> RequestType:
        return RequestType.WRITE

    @property
    def batch_size(self) -> int:
        return len(self.parameter_sets)


@dataclass(repr=False)
class TransactionMarkerRequest(AbstractRequest):
    """Base class for begin/commit/rollback markers."""


@dataclass(repr=False)
class BeginRequest(TransactionMarkerRequest):
    @property
    def request_type(self) -> RequestType:
        return RequestType.BEGIN


@dataclass(repr=False)
class CommitRequest(TransactionMarkerRequest):
    @property
    def request_type(self) -> RequestType:
        return RequestType.COMMIT


@dataclass(repr=False)
class RollbackRequest(TransactionMarkerRequest):
    @property
    def request_type(self) -> RequestType:
        return RequestType.ROLLBACK


@dataclass
class RequestResult:
    """Result returned by the controller to the driver.

    For SELECTs this is a fully materialized result set (the C-JDBC driver
    serializes the whole ResultSet so the client can browse it locally,
    paper §2.3); for writes it is the update count.  Each row is the tuple
    the engine's projection built; the backend, the result cache, the wire
    and the driver's cursor hand it on unchanged, so a row is immutable
    wherever a client meets it.
    """

    columns: List[str] = field(default_factory=list)
    rows: List[Tuple[Any, ...]] = field(default_factory=list)
    update_count: int = -1
    #: name of the backend that produced the result (reads) or number of
    #: backends that executed it (writes); useful for tests and monitoring.
    backend_name: Optional[str] = None
    backends_executed: int = 0
    from_cache: bool = False
    #: transaction id allocated by the controller for a BEGIN request
    transaction_id: Optional[int] = None

    @property
    def is_query_result(self) -> bool:
        return bool(self.columns)

    def as_dicts(self) -> List[dict]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def scalar(self) -> Any:
        if not self.rows or not self.rows[0]:
            return None
        return self.rows[0][0]

    def checkout(self) -> "RequestResult":
        """A per-client view of a cached master copy (rows shared, containers not).

        The rows are immutable tuples, so sharing them is safe; only the
        lists are the client's own, so draining or editing them cannot
        change what another client of the same cache entry reads.

        Copies the instance dict, so every field is carried (incl. any added
        later) without the three Python calls of ``dataclasses.replace`` on
        every cache hit.
        """
        view = object.__new__(type(self))
        view.__dict__.update(self.__dict__, columns=list(self.columns), rows=list(self.rows))
        return view

    def __len__(self) -> int:
        return len(self.rows)
