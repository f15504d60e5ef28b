"""Per-operation counts for the request hot path, pinned in one table.

Each row of :data:`BUDGETS` is one operation and its exact cost on CPython
3.11, measured in-process with ``sys.setprofile``:

* ``calls`` — Python function calls (``call`` events);
* ``sql`` — the engine calls: frames under ``repro/sql/`` that run inside
  a method of a :class:`~repro.core.backend.DatabaseBackend`, which
  :func:`measure` also counts per backend; ``calls - sql`` is what the
  middleware spent.  Engine code also runs outside the backends: the
  controller's parser, once per distinct statement text
  (:class:`~repro.core.requestparser.ParsedTemplate`), a volatile function
  such as ``NOW()``, once per call in a write
  (:func:`~repro.core.macros.bind_macros`), and the driver's cursor; those
  calls are keyed ``middleware/sql/...`` and count as middleware.  A frame
  outside ``repro`` (``enum``, ``threading``, a generated ``__init__``)
  counts where its nearest ``repro`` caller counts;
* ``locks`` — lock operations: ``c_call`` events for ``acquire`` or
  ``__exit__`` on a ``_thread.lock``/``RLock``.  CPython 3.11 emits no event
  for a ``with`` block's ``__enter__``, so a ``with lock:`` counts once (its
  exit), as does an explicit ``acquire()``.

The first five rows are the canonical operations; the next ones restate the
hot-path ablations (parsing cache on/off per statement shape, indexed vs
full-scan cache invalidation per cache size, server batch vs a looped
``executemany``, one UPDATE with bound values vs with literals) as counts.
The four ``wire:`` rows are both ends of the wire codec
(:mod:`repro.net.protocol`) in one thread: a prepared statement's request
frame and its result frames encoded and decoded, for a point read, a 50-row
read (the same count: the rows never pass through Python) and an update
count, and one multicast write's ``GROUP_DELIVER`` frame from the sender's
payload to the receiver's message.  The six ``TPC-W:`` rows are the read-only
interactions of the load benchmark's ``tpcw_browse`` workload, one seeded
interaction each on a single backend without a result cache, after a warm-up
that issues the same statements; their ``sql`` column is the engine's cost
of browsing.  The last three are the paper's Table 1: one
seeded RUBiS bidding-mix run on a single backend without a result cache,
with a coherent one and with a relaxed one.  Their ``sql`` column stands for
the database's work; the paper reports database CPU 100% / 85% / 20%.

Each row is measured twice in one process and the two measurements must
agree, so a count that depends on timing or on the host fails here rather
than in the table (a Table 1 row measures two identical fresh clusters).  A
row that moves fails with its per-function counts; when the change is
intended, update the table.

Print the measured table with ``PYTHONPATH=src python tests/test_op_budget.py``.
"""

import gc
import itertools
import sys
import _thread
from collections import Counter
from types import FunctionType
from typing import Callable, Dict, NamedTuple, Optional

import pytest

from repro.cluster.fixture import boot, descriptor
from repro.core.backend import DatabaseBackend
from repro.core.cache import FullScanTableGranularity, ResultCache, TableGranularity
from repro.core.recovery import MemoryRecoveryLog
from repro.core.request import RequestResult, SelectRequest, WriteRequest
from repro.core.request_manager import RequestManager
from repro.core.requestparser import RequestFactory
from repro.distrib.distributed_vdb import _WriteCommand
from repro.groupcomm.message import payload_from_wire
from repro.groupcomm.node import _body, _message
from repro.net.protocol import (
    MessageType,
    decode_frame_payload,
    encode_frame,
    result_frames,
    result_from_frames,
)
from repro.sql import DatabaseEngine, DatabaseMetaData, dbapi
from repro.workloads.rubis import BIDDING_MIX, RUBISDataGenerator, RUBiSInteractions
from repro.workloads.rubis.schema import RUBISScale, create_schema
from repro.workloads.tpcw import TPCWDataGenerator, TPCWInteractions
from repro.workloads.tpcw import create_schema as create_tpcw_schema
from repro.workloads.tpcw.schema import TPCWScale


class Count(NamedTuple):
    calls: int
    sql: int
    locks: int


#: statement shapes of the parsing rows (TPC-W-like: joined selects, point
#: reads, writes with and without macros)
_PARSE_WORKLOAD = {
    "item by id": "SELECT * FROM item WHERE i_id = ?",
    "items by subject": "SELECT i_title, i_cost FROM item WHERE i_subject = ? ORDER BY i_pub_date",
    "item join author": "SELECT * FROM item JOIN author ON item.i_a_id = author.a_id"
    " WHERE a_lname = ?",
    "orders left join": "SELECT o.o_id, ol.ol_qty FROM orders o LEFT JOIN order_line ol"
    " ON o.o_id = ol.ol_o_id WHERE o.o_c_id = ?",
    "cart line count": "SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = ?",
    "insert cart line": "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty)"
    " VALUES (?, ?, ?)",
    "update stock": "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?",
    "update cart NOW()": "UPDATE shopping_cart SET sc_time = NOW() WHERE sc_id = ?",
    "delete cart lines": "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?",
    "insert order NOW()": "INSERT INTO orders (o_c_id, o_date, o_total) VALUES (?, NOW(), ?)",
}

#: cache sizes of the invalidation rows; entries spread over 50 tables
_CACHE_SIZES = (250, 1000, 4000)

#: the Table 1 rows: descriptor ``cache:`` section per configuration
_RUBIS_CACHES = {
    "no cache": {"enabled": False},
    "coherent cache": {"enabled": True},
    "relaxed cache": {"enabled": True, "relaxation_rules": [{"staleness_seconds": 60.0}]},
}
RUBIS_SCALE = RUBISScale(users=60, items=40, bids_per_item=4)
RUBIS_RUN_LENGTH = 150  # interactions

#: the TPC-W rows: the read-only interactions of the load benchmark's
#: ``tpcw_browse`` workload, at its scale
TPCW_BROWSING = (
    "home",
    "new_products",
    "product_detail",
    "search_request",
    "search_results",
    "order_inquiry",
)
TPCW_SCALE = TPCWScale(items=50, customers=100)

#: the pinned counts, CPython 3.11: (calls, of them under repro/sql/, lock ops)
BUDGETS: Dict[str, Count] = {
    # the five canonical operations, each after a warm-up of the same statement
    "cached read": Count(23, 0, 4),  # 3-replica manager, result cache hit
    "PK read, no cache": Count(94, 38, 18),  # engine (sql) vs middleware calls
    "3-replica UPDATE": Count(294, 186, 53),  # autocommit, result cache, memory log
    "replicated prepared UPDATE": Count(338, 124, 71),  # 2 controllers x 1 backend
    "100-row batch": Count(13835, 13524, 1839),  # one execute_batch, 3 replicas
    # server batch vs the client loop it replaces
    "100-row looped executemany": Count(26902, 16200, 5300),
    # the same UPDATE with bound values and with literals, one backend, no cache
    "UPDATE, bound values": Count(130, 62, 24),
    "UPDATE, literals": Count(130, 62, 24),
    # both ends of the wire codec, in one thread
    "wire: cached point read": Count(17, 0, 0),
    "wire: 50-row read": Count(17, 0, 0),
    "wire: update count": Count(17, 0, 0),
    "wire: group deliver": Count(15, 0, 1),
    # parsing cache on vs off, per statement shape: off parses the text every
    # time; on, a NOW() write only binds a fresh value to the call's slot
    "parse, cache on: item by id": Count(7, 0, 2),
    "parse, cache off: item by id": Count(296, 0, 1),
    "parse, cache on: items by subject": Count(7, 0, 2),
    "parse, cache off: items by subject": Count(618, 0, 1),
    "parse, cache on: item join author": Count(7, 0, 2),
    "parse, cache off: item join author": Count(540, 0, 1),
    "parse, cache on: orders left join": Count(7, 0, 2),
    "parse, cache off: orders left join": Count(804, 0, 1),
    "parse, cache on: cart line count": Count(7, 0, 2),
    "parse, cache off: cart line count": Count(414, 0, 1),
    "parse, cache on: insert cart line": Count(7, 0, 2),
    "parse, cache off: insert cart line": Count(397, 0, 1),
    "parse, cache on: update stock": Count(7, 0, 2),
    "parse, cache off: update stock": Count(366, 0, 1),
    "parse, cache on: update cart NOW()": Count(9, 0, 2),
    "parse, cache off: update cart NOW()": Count(356, 0, 1),
    "parse, cache on: delete cart lines": Count(7, 0, 2),
    "parse, cache off: delete cart lines": Count(228, 0, 1),
    "parse, cache on: insert order NOW()": Count(9, 0, 2),
    "parse, cache off: insert order NOW()": Count(429, 0, 1),
    # one write on a table that caches nothing: indexed vs full-scan candidates
    "invalidate, indexed: 250": Count(3, 0, 1),
    "invalidate, full scan: 250": Count(1003, 0, 1),
    "invalidate, indexed: 1000": Count(3, 0, 1),
    "invalidate, full scan: 1000": Count(4003, 0, 1),
    "invalidate, indexed: 4000": Count(3, 0, 1),
    "invalidate, full scan: 4000": Count(16003, 0, 1),
    # one seeded TPC-W browsing interaction, one backend, no result cache
    "TPC-W: home": Count(225, 88, 38),
    "TPC-W: new_products": Count(175, 104, 19),
    "TPC-W: product_detail": Count(122, 49, 19),
    "TPC-W: search_request": Count(111, 38, 19),
    "TPC-W: search_results": Count(261, 187, 19),
    "TPC-W: order_inquiry": Count(113, 40, 19),
    # Table 1: 150 RUBiS bidding-mix interactions, one backend
    "RUBiS bidding, no cache": Count(59259, 28546, 5134),
    "RUBiS bidding, coherent cache": Count(57672, 26152, 5086),
    "RUBiS bidding, relaxed cache": Count(56944, 24266, 4596),
}

#: what each Table 1 run does outside the count table, on any interpreter:
#: statements the backend executed (reads, writes) and the result cache's
#: hits, stale hits and invalidations
TABLE_1_RUNS = {
    "no cache": ((175, 46), None),
    "coherent cache": ((145, 46), (30, 0, 109)),
    "relaxed cache": ((110, 46), (65, 40, 0)),
}

READ = "SELECT v FROM kv WHERE k = ?"
WRITE = "UPDATE kv SET v = ? WHERE k = ?"
LITERAL_WRITE = "UPDATE kv SET v = 'next' WHERE k = 1"
INSERT = "INSERT INTO kv (k, v) VALUES (?, ?)"
BATCH_ROWS = 100

_LOCK_TYPES = (_thread.LockType, _thread.RLock)
_LOCK_METHODS = ("acquire", "__exit__")
#: what a frame is: engine code (under ``repro/sql/``), middleware (the rest
#: of ``repro``), code outside ``repro`` (charged to its nearest ``repro``
#: caller), or a method of a backend (middleware whose engine calls are that
#: backend's)
_ENGINE, _MIDDLEWARE, _FOREIGN, _BACKEND = range(4)
_BACKEND_CODES = frozenset(
    id(member.__code__)
    for member in vars(DatabaseBackend).values()
    if isinstance(member, FunctionType)
)


def _classify(code):
    """``(key, kind, code)`` of a code object; the key is ``path:function``."""
    _, in_repro, path = code.co_filename.rpartition("/repro/")
    if not in_repro:
        return f"{code.co_filename.rpartition('/')[2]}:{code.co_name}", _FOREIGN, code
    if id(code) in _BACKEND_CODES:
        kind = _BACKEND
    else:
        kind = _ENGINE if path.startswith("sql/") else _MIDDLEWARE
    return f"{path}:{code.co_name}", kind, code


class Measurement(NamedTuple):
    count: Count
    #: Python calls keyed by ``path:function`` (path relative to ``repro/``)
    calls: Counter
    #: engine calls keyed by the name of the backend that ran them
    backends: Counter


def measure(operation: Callable[[], object]) -> Measurement:
    """Count what one ``operation()`` costs in this thread.

    One rule places every call.  A frame outside ``repro`` (the standard
    library, a generated ``__init__``) belongs to its nearest ``repro``
    caller and is keyed ``caller-path:caller-function > file:function``.
    A frame that is engine code, by its own path or its caller's, is an
    engine call of the backend whose method is innermost on the stack;
    engine code that no backend runs (the controller's statement analysis
    and macro values, the driver's cursor) is middleware, keyed
    ``middleware/sql/...``.
    """
    calls = Counter()
    on_backends = Counter()
    locks = 0
    owners = []  # the backends whose methods are on the stack, innermost last
    known = {}  # id(code) -> _classify(code); the entry keeps the id taken

    def profile(frame, event, arg):
        nonlocal locks
        if event == "call":
            code = frame.f_code
            entry = known.get(id(code))
            if entry is None:
                entry = known[id(code)] = _classify(code)
            key, kind, _ = entry
            if kind == _BACKEND:
                owners.append(frame.f_locals["self"])
            elif kind == _FOREIGN:
                caller = frame.f_back
                while caller is not None:
                    code = caller.f_code
                    entry = known.get(id(code))
                    if entry is None:
                        entry = known[id(code)] = _classify(code)
                    caller_key, kind, _ = entry
                    if kind != _FOREIGN:
                        key = f"{caller_key} > {key}"
                        break
                    caller = caller.f_back
            if kind == _ENGINE:
                if owners:
                    on_backends[owners[-1]] += 1
                else:
                    key = "middleware/" + key
            calls[key] += 1
        elif event == "return":
            if id(frame.f_code) in _BACKEND_CODES:
                owners.pop()
        elif (
            event == "c_call"
            and arg.__name__ in _LOCK_METHODS
            and isinstance(getattr(arg, "__self__", None), _LOCK_TYPES)
        ):
            locks += 1

    gc.disable()
    sys.setprofile(profile)
    try:
        operation()
    finally:
        sys.setprofile(None)
        gc.enable()
    backends = Counter()
    for backend, count in on_backends.items():
        backends[backend.name] += count
    return Measurement(
        Count(sum(calls.values()), sum(backends.values()), locks), calls, backends
    )


def make_manager(backends=3, cache=True):
    members = []
    for index in range(backends):
        engine = DatabaseEngine(f"budget-{id(members)}-{index}")
        backend = DatabaseBackend(
            name=f"backend{index}",
            connection_factory=lambda engine=engine: dbapi.connect(engine),
            metadata_factory=lambda engine=engine: DatabaseMetaData(engine),
        )
        backend.enable()
        members.append(backend)
    manager = RequestManager(
        backends=members,
        result_cache=ResultCache() if cache else None,
        recovery_log=MemoryRecoveryLog(),
    )
    manager.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    manager.execute(INSERT, (1, "one"))
    return manager


# -- one setup per row: builds the fixture, returns the measured operation ------


def _cached_read():
    manager = make_manager()
    for _ in range(2):  # a miss that fills the cache, then a first hit
        manager.execute(READ, (1,))
    return lambda: manager.execute(READ, (1,))


def _pk_read():
    manager = make_manager(cache=False)
    for _ in manager.backends:  # each backend compiles its plan on its first read
        manager.execute(READ, (1,))
    return lambda: manager.execute(READ, (1,))


def _update():
    manager = make_manager()
    manager.execute(WRITE, ("warm", 1))
    return lambda: manager.execute(WRITE, ("next", 1))


def _single_update(sql, parameters=()):
    manager = make_manager(backends=1, cache=False)
    manager.execute(sql, parameters)
    return lambda: manager.execute(sql, parameters)


def _replicated_prepared_update():
    cluster = boot(descriptor("budget", 1, controllers=2, group_name="budget-group"))
    connection = cluster.connect(cluster.name, "bench", "bench")
    connection.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(20))")
    connection.execute(INSERT, (1, "one"))
    statement = connection.prepare(WRITE)
    statement.execute(("warm", 1))
    return lambda: statement.execute(("next", 1))


def _batches(batched):
    manager = make_manager()
    keys = itertools.count(1000, BATCH_ROWS)

    def insert_rows():
        base = next(keys)
        rows = [(base + offset, f"row-{offset}") for offset in range(BATCH_ROWS)]
        if batched:
            manager.execute_batch(INSERT, rows)
        else:
            for row in rows:
                manager.execute(INSERT, row)

    insert_rows()
    return insert_rows


def _wire(result, parameters):
    """A prepared execution's request and its result, encoded and decoded as the wire does."""
    request = {"statement_id": 1, "parameters": list(parameters), "transaction_id": None}

    def round_trip():
        decode_frame_payload(encode_frame(MessageType.EXECUTE_PREPARED, request)[4:])
        header, chunks = None, []
        for message_type, body in result_frames(result):
            decoded_type, decoded = decode_frame_payload(encode_frame(message_type, body)[4:])
            if decoded_type is MessageType.RESULT_HEADER:
                header = decoded
            else:
                chunks.append(decoded["rows"])
        return result_from_frames(header, iter(chunks))

    return round_trip


def _group_deliver():
    """A multicast write's GROUP_DELIVER body, built, encoded, decoded and delivered."""
    command = _WriteCommand(kind="execute", sql=WRITE, parameters=("next", 1), origin="c0")

    def round_trip():
        body = _body("budget-group", "c0", command, sequence=7)
        _, document = decode_frame_payload(encode_frame(MessageType.GROUP_DELIVER, body)[4:])
        return _message(document, payload_from_wire(document["payload"]))

    return round_trip


def _parse(sql, cache_size):
    factory = RequestFactory(parsing_cache_size=cache_size)
    factory.create_request(sql, (1,))
    return lambda: factory.create_request(sql, (1,))


def _invalidate(granularity, size):
    cache = ResultCache(granularity=granularity, max_entries=size)
    for index in range(size):
        table = f"table{index % 50}"
        cache.put(
            SelectRequest(
                sql=f"SELECT * FROM {table} WHERE id = ?", tables=(table,), parameters=(index,)
            ),
            RequestResult(columns=["id"], rows=[[index]]),
        )
    # the write hits a table that caches nothing: no entry is dropped, so
    # the row isolates the cost of choosing the candidates
    write = WriteRequest(sql="UPDATE uncached SET x = 1", tables=("uncached",))
    return lambda: cache.invalidate(write)


def _tpcw(interaction):
    cluster = boot(
        descriptor("tpcw", 1, replication="single", recovery_log="none", cache={"enabled": False})
    )
    connection = cluster.connect(cluster.name, "tpcw", "tpcw")
    create_tpcw_schema(connection)
    TPCWDataGenerator(TPCW_SCALE, seed=42).populate(connection)
    # one client per run, seeded alike: the warm-up issues the measured statements
    clients = iter(
        [TPCWInteractions(connection, TPCW_SCALE.items, TPCW_SCALE.customers) for _ in range(3)]
    )
    next(clients).run(interaction)
    return lambda: next(clients).run(interaction)


class RubisRun(NamedTuple):
    """A fresh single-backend RUBiS cluster, populated, and its seeded run."""

    run: Callable[[], None]
    backend: DatabaseBackend
    cache: Optional[ResultCache]


def _rubis_fixture(cache):
    cluster = boot(descriptor("rubis", 1, replication="single", recovery_log="none", cache=cache))
    connection = cluster.connect(cluster.name, "rubis", "rubis")
    create_schema(connection)
    RUBISDataGenerator(RUBIS_SCALE, seed=9).populate(connection)
    virtual_database = cluster.virtual_database(cluster.name)
    (backend,) = virtual_database.backends
    backend.refresh_schema()
    client = RUBiSInteractions(
        connection, users=RUBIS_SCALE.users, items=RUBIS_SCALE.items, seed=4
    )
    stream = BIDDING_MIX.interaction_stream(seed=8)

    def run():
        for _ in range(RUBIS_RUN_LENGTH):
            client.run(next(stream))

    return RubisRun(run, backend, virtual_database.request_manager.result_cache)


def _rubis(cache):
    # two identical fresh clusters, one per measurement
    runs = iter([_rubis_fixture(cache) for _ in range(2)])
    return lambda: next(runs).run()


SETUPS: Dict[str, Callable[[], Callable[[], object]]] = {
    "cached read": _cached_read,
    "PK read, no cache": _pk_read,
    "3-replica UPDATE": _update,
    "replicated prepared UPDATE": _replicated_prepared_update,
    "100-row batch": lambda: _batches(batched=True),
    "100-row looped executemany": lambda: _batches(batched=False),
    "UPDATE, bound values": lambda: _single_update(WRITE, ("next", 1)),
    "UPDATE, literals": lambda: _single_update(LITERAL_WRITE),
    "wire: cached point read": lambda: _wire(
        RequestResult(columns=["v"], rows=[["one"]], backend_name="backend0", from_cache=True),
        (1,),
    ),
    "wire: 50-row read": lambda: _wire(
        RequestResult(
            columns=["k", "v"],
            rows=[[k, f"row-{k}"] for k in range(50)],
            backend_name="backend0",
        ),
        (50,),
    ),
    "wire: update count": lambda: _wire(
        RequestResult(update_count=1, backends_executed=3), ("next", 1)
    ),
    "wire: group deliver": _group_deliver,
}
for _label, _sql in _PARSE_WORKLOAD.items():
    SETUPS[f"parse, cache on: {_label}"] = lambda sql=_sql: _parse(sql, 1024)
    SETUPS[f"parse, cache off: {_label}"] = lambda sql=_sql: _parse(sql, 0)
for _size in _CACHE_SIZES:
    SETUPS[f"invalidate, indexed: {_size}"] = lambda size=_size: _invalidate(
        TableGranularity(), size
    )
    SETUPS[f"invalidate, full scan: {_size}"] = lambda size=_size: _invalidate(
        FullScanTableGranularity(), size
    )
for _interaction in TPCW_BROWSING:
    SETUPS[f"TPC-W: {_interaction}"] = lambda interaction=_interaction: _tpcw(interaction)
for _label, _cache in _RUBIS_CACHES.items():
    SETUPS[f"RUBiS bidding, {_label}"] = lambda cache=_cache: _rubis(cache)


def measure_row(row):
    """The row's two measurements in this process."""
    operation = SETUPS[row]()
    return measure(operation), measure(operation)


def format_row(row, count):
    return f"{row:44} {count.calls:>7,} {count.sql:>7,} {count.locks:>6,}"


def format_calls(measurement):
    return "\n".join(
        f"  {count:6d}  {name}" for name, count in sorted(measurement.calls.items())
    )


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="counts measured on CPython 3.11")
class TestCountTable:
    def test_every_row_has_a_setup(self):
        assert list(BUDGETS) == list(SETUPS)

    @pytest.mark.parametrize("row", list(SETUPS))
    def test_row(self, row):
        first, second = measure_row(row)
        print(format_row(row, first.count))
        # which replica serves a read rotates; what each call costs does not
        assert (first.count, first.calls) == (second.count, second.calls), (
            f"{row}: two measurements differ, {first.count} vs {second.count}\n"
            f"first:\n{format_calls(first)}\nsecond:\n{format_calls(second)}"
        )
        assert first.count == BUDGETS[row], (
            f"{row}: measured {first.count}, table {BUDGETS[row]}\n{format_calls(first)}"
        )

    def test_a_bound_value_costs_the_engine_what_a_literal_costs(self):
        assert BUDGETS["UPDATE, bound values"].sql == BUDGETS["UPDATE, literals"].sql

    def test_cached_read_stays_off_the_backends(self):
        first, _ = measure_row("cached read")
        assert not [
            name for name in first.calls if name.startswith(("core/backend.py", "sql/"))
        ], format_calls(first)

    def test_the_table_keeps_the_ablation_claims(self):
        for label in _PARSE_WORKLOAD:
            assert (
                BUDGETS[f"parse, cache on: {label}"].calls
                < BUDGETS[f"parse, cache off: {label}"].calls
            )
        indexed = [BUDGETS[f"invalidate, indexed: {size}"] for size in _CACHE_SIZES]
        scan = [BUDGETS[f"invalidate, full scan: {size}"].calls for size in _CACHE_SIZES]
        assert len(set(indexed)) == 1  # flat in the cache size
        assert all(calls > size for calls, size in zip(scan, _CACHE_SIZES))
        assert BUDGETS["100-row batch"].calls < BUDGETS["100-row looped executemany"].calls
        # a result's codec cost is flat in its number of rows
        assert BUDGETS["wire: 50-row read"] == BUDGETS["wire: cached point read"]


class TestTable1:
    """The Table 1 runs' backend and cache counters, and the paper's ordering."""

    @pytest.mark.parametrize("label", list(_RUBIS_CACHES))
    def test_run_matches_its_counters(self, label):
        fixture = _rubis_fixture(_RUBIS_CACHES[label])
        backend = fixture.backend
        reads, writes = backend.total_reads, backend.total_writes
        fixture.run()
        statements, cache = TABLE_1_RUNS[label]
        assert (backend.total_reads - reads, backend.total_writes - writes) == statements
        if cache is None:
            assert fixture.cache is None
        else:
            stats = fixture.cache.statistics
            assert (stats.hits, stats.stale_hits, stats.invalidations) == cache

    def test_caching_lowers_the_database_work(self):
        # the paper: database CPU 100% / 85% / 20% for none / coherent / relaxed
        none, coherent, relaxed = (
            BUDGETS[f"RUBiS bidding, {label}"].sql for label in _RUBIS_CACHES
        )
        assert none > coherent > relaxed


if __name__ == "__main__":
    print(f"{'operation':44} {'calls':>7} {'sql':>7} {'locks':>6}")
    for _row in SETUPS:
        print(format_row(_row, measure_row(_row)[0].count))
