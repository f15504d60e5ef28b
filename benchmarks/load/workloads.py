"""The four load workloads: cluster descriptor, population, seeded op streams.

Everything the *generator* needs lives here and nothing of the program under
test is touched: a workload is a cluster descriptor (plain data handed to
``repro.load_cluster``), a population routine that runs over any DB-API
connection (the cluster's own, or a bare engine's for the single-database
baseline), and an :class:`OpStream` that turns ``--seed`` into operations.
The seed feeds only the streams; the program receives generated statements.

Operation choice is drawn from shuffled *decks* holding each operation type
in its exact mix proportion (the TPC-C card-deck idiom), so two seeds differ
in order and keys but not in how many operations of each type a window of a
given length holds; without this the mix's sampling noise alone moves
``ops_per_s`` by a few percent between seeds.
"""

from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.workloads.tpcw import BROWSING_MIX, TPCWDataGenerator, TPCWInteractions, create_schema
from repro.workloads.tpcw.schema import TPCWScale

#: closed-loop client threads of the load generator (= nproc of the sandbox)
CLIENTS = 2
VDB = "db"

KV_ROWS = 2000
HOT_KEYS = 200

#: why each workload is in the set (BENCHMARK.json carries the same text)
WORKLOADS: Dict[str, str] = {
    "cached_point_read": (
        "hot set fits the result cache: net, driver, pipeline and cache do all"
        " the work and the backends none"
    ),
    "tpcw_browse": (
        "TPC-W read-only browsing with the cache off: the SQL engine does most"
        " of the work and the middleware little"
    ),
    "oltp_write": (
        "write-heavy mix on 3 replicas: scheduler write mutex, recovery log,"
        " cache invalidation and the 3-way broadcast carry the cost"
    ),
    "replicated_write": (
        "same mix through 2 replicated controllers: adds group total order and"
        " multicast, the price of controller replication"
    ),
}

READ_KV = "SELECT v, n FROM kv WHERE k = ?"
UPDATE_KV = "UPDATE kv SET n = n + 1, v = ? WHERE k = ?"
INSERT_HIST = "INSERT INTO hist (k, note) VALUES (?, ?)"
DELETE_HIST = "DELETE FROM hist WHERE k = ?"

#: order_display is left out (its 3-table implicit join is a full cross
#: product in the engine and never returns) and so is best_sellers (DDL and
#: writes); see the README's findings
TPCW_READ_ONLY = (
    "home",
    "new_products",
    "product_detail",
    "search_request",
    "search_results",
    "order_inquiry",
)


def tpcw_scale(quick: bool) -> TPCWScale:
    # half the scale first planned: at 100 items the clients' joins contend for
    # the GIL long enough that latency, quantised by the wire stall into 44 ms
    # steps, jumps a whole step whenever the host slows down (see the README)
    return TPCWScale(items=20, customers=40) if quick else TPCWScale(items=50, customers=100)


# ---------------------------------------------------------------------------
# descriptors and population
# ---------------------------------------------------------------------------


def descriptor(workload: str) -> dict:
    """The cluster descriptor of ``workload`` (every controller listens on TCP)."""
    vdb: dict = {"name": VDB, "replication": "raidb1", "recovery_log": "memory"}
    controllers = [{"name": "c0", "listen": {"port": 0}}]
    if workload == "cached_point_read":
        vdb["backends"] = [{"name": "b0"}, {"name": "b1"}]
        vdb["cache"] = {"enabled": True, "max_entries": 10000}
    elif workload == "tpcw_browse":
        vdb["backends"] = [{"name": "b0"}, {"name": "b1"}]
    elif workload == "oltp_write":
        vdb["backends"] = [{"name": "b0"}, {"name": "b1"}, {"name": "b2"}]
        vdb["wait_for_completion"] = "all"
        vdb["cache"] = {"enabled": True, "max_entries": 10000}
    elif workload == "replicated_write":
        vdb["backends"] = [{"name": "b0"}]
        vdb["wait_for_completion"] = "all"
        vdb["cache"] = {"enabled": True, "max_entries": 10000}
        vdb["group_name"] = "load-group"
        vdb["group"] = {"transport": "tcp"}
        controllers.append({"name": "c1", "listen": {"port": 0}})
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return {"name": f"load-{workload}", "virtual_databases": [vdb], "controllers": controllers}


def populate(connection, workload: str, quick: bool = False) -> None:
    """Create and fill the workload's tables through a DB-API connection."""
    if workload == "tpcw_browse":
        create_schema(connection)
        TPCWDataGenerator(tpcw_scale(quick), seed=42).populate(connection)
        return
    cursor = connection.cursor()
    cursor.execute("CREATE TABLE kv (k INT PRIMARY KEY, v VARCHAR(40), n INT)")
    cursor.execute("CREATE TABLE hist (k INT, note VARCHAR(40))")
    # keeps DELETE ... WHERE k = ? a point lookup as hist grows, so the mix
    # costs the same at the end of a window as at its start
    cursor.execute("CREATE INDEX hist_k ON hist (k)")
    cursor.executemany(
        "INSERT INTO kv (k, v, n) VALUES (?, ?, ?)",
        [(k, f"v{k}", 0) for k in range(KV_ROWS)],
    )
    connection.commit()


# ---------------------------------------------------------------------------
# op streams
# ---------------------------------------------------------------------------


class Op(NamedTuple):
    """One client operation: a statement, or the statements of one interaction."""

    kind: str  # "read" | "write"
    name: str  # operation type within the mix
    calls: Tuple[Tuple[str, tuple], ...]  # ((sql, parameters), ...)


def execute(statements: Dict[str, object], op: Op) -> List[Tuple[Optional[list], int]]:
    """Run ``op`` on prepared ``statements`` (SQL text -> statement); ``(rows, rowcount)`` per call."""
    results = []
    for sql, parameters in op.calls:
        statement = statements[sql]
        statement.execute(parameters)
        rows = statement.fetchall() if statement.description is not None else None
        results.append((rows, statement.rowcount))
    return results


def _deck(weights: Dict[str, float], size: int) -> List[str]:
    """``size`` cards in the proportions of ``weights`` (largest remainder, min 1)."""
    total = sum(weights.values())
    exact = {name: weight / total * size for name, weight in weights.items()}
    counts = {name: max(1, int(share)) for name, share in exact.items()}
    by_remainder = sorted(exact, key=lambda name: exact[name] - int(exact[name]), reverse=True)
    index = 0
    while sum(counts.values()) < size:
        counts[by_remainder[index % len(by_remainder)]] += 1
        index += 1
    largest = max(counts, key=counts.get)
    counts[largest] -= sum(counts.values()) - size
    return [name for name, count in counts.items() for _ in range(count)]


class OpStream:
    """Seeded operation source of one client, plus the model its results must match."""

    #: every SQL text the stream can issue (prepared once per connection)
    statements: Sequence[str] = ()

    def __init__(self, deck: List[str], rng: random.Random):
        self._cards = deck
        self._hand: List[str] = []
        self.rng = rng
        self.wrong = 0

    def _draw(self) -> str:
        if not self._hand:
            self._hand = list(self._cards)
            self.rng.shuffle(self._hand)
        return self._hand.pop()

    def warmup(self) -> List[Op]:
        """Operations this client must run before a window is representative."""
        return []

    def next(self) -> Op:
        raise NotImplementedError

    def acknowledge(self, op: Op, results: List[Tuple[Optional[list], int]]) -> None:
        """Check ``results`` (``(rows, rowcount)`` per call) and update the model.

        Called only for operations the driver acknowledged; a result that
        does not match what the model predicts is counted in ``wrong``.
        """
        raise NotImplementedError


class KVStream(OpStream):
    """``cached_point_read`` (hot-set reads) and the OLTP write mix over ``kv``/``hist``."""

    statements = (READ_KV, UPDATE_KV, INSERT_HIST, DELETE_HIST)
    _OLTP_MIX = {"update": 5, "insert": 2, "delete": 1, "select": 2}

    def __init__(self, workload: str, seed: int, client: int, clients: int, quick: bool = False):
        cached = workload == "cached_point_read"
        deck = ["select"] if cached else _deck(self._OLTP_MIX, 10)
        super().__init__(deck, random.Random(f"{workload}:{seed}:{client}"))
        self.client = client
        self.clients = clients
        # the hot set belongs to the run, not to a client: both read the same keys
        hot = random.Random(f"hot:{seed}").sample(range(KV_ROWS), HOT_KEYS)
        self._read_keys = hot if cached else range(KV_ROWS)
        self._sweep = hot[client::clients] if cached and not quick else []
        self._sequence = 0
        #: acknowledged UPDATEs (each adds 1 to SUM(n))
        self.updates = 0
        #: hist rows this client inserted and has not deleted: key -> notes
        self.hist: Dict[int, List[str]] = {}

    def warmup(self) -> List[Op]:
        # one pass over this client's share of the hot set fills the cache
        return [Op("read", "select", ((READ_KV, (k,)),)) for k in self._sweep]

    def _own_key(self) -> int:
        # hist keys are partitioned by client, so each client's model of its
        # rows is exact whatever the interleaving with the other client
        return self.rng.randrange(KV_ROWS // self.clients) * self.clients + self.client

    def next(self) -> Op:
        card = self._draw()
        self._sequence += 1
        if card == "select":
            return Op("read", card, ((READ_KV, (self.rng.choice(self._read_keys),)),))
        if card == "update":
            k = self.rng.randrange(KV_ROWS)
            return Op("write", card, ((UPDATE_KV, (f"v{k}.{self.client}.{self._sequence}", k)),))
        if card == "insert":
            note = f"c{self.client}.{self._sequence}"
            return Op("write", card, ((INSERT_HIST, (self._own_key(), note)),))
        # delete the oldest key still holding rows, so hist stays small
        k = next(iter(self.hist)) if self.hist else self._own_key()
        return Op("write", card, ((DELETE_HIST, (k,)),))

    def acknowledge(self, op: Op, results) -> None:
        (sql, parameters), (rows, rowcount) = op.calls[0], results[0]
        if op.name == "select":
            k = parameters[0]
            ok = (
                rows is not None
                and len(rows) == 1
                and (rows[0][0] == f"v{k}" or str(rows[0][0]).startswith(f"v{k}."))
            )
        elif op.name == "update":
            self.updates += 1
            ok = rowcount == 1
        elif op.name == "insert":
            self.hist.setdefault(parameters[0], []).append(parameters[1])
            ok = rowcount == 1
        else:
            ok = rowcount == len(self.hist.pop(parameters[0], ()))
        if not ok:
            self.wrong += 1


class _StatementRecorder:
    """DB-API stand-in: keeps what ``TPCWInteractions`` issues instead of running it."""

    def __init__(self):
        self.calls: List[Tuple[str, tuple]] = []

    def cursor(self):
        return self

    def execute(self, sql, parameters=()):
        self.calls.append((sql, tuple(parameters)))
        return self

    def fetchall(self):
        return []


class TPCWStream(OpStream):
    """Read-only TPC-W interactions, weighted as the browsing mix renormalised."""

    def __init__(self, seed: int, client: int, quick: bool = False):
        weights = {name: BROWSING_MIX.weights[name] for name in TPCW_READ_ONLY}
        super().__init__(_deck(weights, 100), random.Random(f"tpcw:{seed}:{client}"))
        self._recorder = _StatementRecorder()
        scale = tpcw_scale(quick)
        self._interactions = TPCWInteractions(
            self._recorder, scale.items, scale.customers, seed=seed * 1009 + client
        )
        self.statements = self._all_statements()

    def _all_statements(self) -> Tuple[str, ...]:
        # run every interaction on a scratch generator until no new SQL text
        # appears (search_results picks one of three shapes at random)
        recorder = _StatementRecorder()
        scratch = TPCWInteractions(recorder, 10, 10, seed=0)
        for _ in range(40):
            for name in TPCW_READ_ONLY:
                scratch.run(name)
        return tuple(dict.fromkeys(sql for sql, _ in recorder.calls))

    def next(self) -> Op:
        name = self._draw()
        self._recorder.calls = []
        self._interactions.run(name)
        return Op("read", name, tuple(self._recorder.calls))

    def acknowledge(self, op: Op, results) -> None:
        for (sql, parameters), (rows, _rowcount) in zip(op.calls, results):
            if rows is None:
                ok = False
            elif "WHERE c_id = ?" in sql or "SELECT i_subject" in sql:
                ok = len(rows) == 1
            elif "AND i_id = ?" in sql:  # product_detail returns the item asked for
                ok = len(rows) == 1 and rows[0][0] == parameters[0]
            else:
                ok = len(rows) <= 50
            if not ok:
                self.wrong += 1


def make_stream(
    workload: str, seed: int, client: int, clients: int = CLIENTS, quick: bool = False
) -> OpStream:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    if workload == "tpcw_browse":
        return TPCWStream(seed, client, quick)
    return KVStream(workload, seed, client, clients, quick)
