"""The paper's Figures 10-12, counted on the real middleware.

The paper runs TPC-W's browsing, shopping and ordering mixes (Figures 10,
11 and 12) against 1-6 backends and reports the throughput of full
replication (RAIDb-1) and of partial replication (RAIDb-2), where the
write-heavy ordering tables and the best-seller temporary tables live on 2
backends only (§6.3).  Here each cell of a figure is one seeded client's
stream of :data:`STREAM_LENGTH` interactions of the mix, run through a real
in-process cluster booted from :func:`repro.cluster.fixture.descriptor`:
N = 1, 2, 4 or 6 backends, RAIDb-1 or RAIDb-2, result cache off or on.
:func:`test_op_budget.measure` counts the calls, and charges each engine
call to the backend that ran it.  What is pinned per cell is the
middleware's calls (``calls - sql``), each backend's engine calls and each
backend's statements (``total_reads``/``total_writes``); every cell ends
with every backend enabled.

The paper's figures are measured with saturated backends, so a cell's
throughput is bounded by its busiest backend's work per interaction.  The
counted speedup at N is the busiest backend's engine calls at N = 1
divided by the busiest backend's at N, capped where the middleware's calls
exceed that: the controller is one more machine that saturates.  The
``backends`` column is the same ratio without the cap.  RAIDb-2 needs the
2 backends its placement names, so its curve starts at N = 2 and shares the
N = 1 baseline of RAIDb-1 with the same cache setting.

Each backend starts from a copy of one populated engine's tables (those its
placement hosts), as a backend restored from a dump would.  A cell starts
cold: the controller's parsing cache and the engines' statement caches are
empty, so its counts include each statement text's first parse.

Print the tables with ``PYTHONPATH=src python tests/test_tpcw_figures.py``;
it measures every cell twice and exits 1 unless the two agree.
"""

import functools
import pickle
import re
import sys
from typing import Dict, NamedTuple, Tuple

import pytest

from repro.cluster.fixture import boot, descriptor
from repro.sql import DatabaseEngine, dbapi
from repro.sql.expressions import like_regex
from repro.workloads.tpcw import TPCWDataGenerator, TPCWInteractions, create_schema
from repro.workloads.tpcw.mixes import mix_by_name
from test_op_budget import TPCW_SCALE, measure

FIGURES = {"Figure 10": "browsing", "Figure 11": "shopping", "Figure 12": "ordering"}
BACKEND_COUNTS = (1, 2, 4, 6)
STREAM_LENGTH = 12  # interactions per cell
#: the paper's partial replication: the ordering path's tables and the
#: best-seller temporary tables on two backends, everything else everywhere
PARTIAL_TABLES = ("orders", "order_line", "cc_xacts", "shopping_cart", "shopping_cart_line")
PARTIAL_MAP = {table: ["b0", "b1"] for table in (*PARTIAL_TABLES, "tpcw_bestseller_%")}


class Cell(NamedTuple):
    mix: str
    replication: str  # "raidb1" or "raidb2"
    backends: int
    cache: bool

    @property
    def label(self) -> str:
        level = "RAIDb-1" if self.replication == "raidb1" else "RAIDb-2"
        return f"{level} x{self.backends}, {'cache' if self.cache else 'no cache'}"

    @property
    def baseline(self) -> "Cell":
        return Cell(self.mix, "raidb1", 1, self.cache)


class Work(NamedTuple):
    middleware: int
    #: engine calls of b0, b1, ...
    engine: Tuple[int, ...]
    #: (reads, writes) each backend executed
    statements: Tuple[Tuple[int, int], ...]


CELLS = [
    Cell(mix, replication, backends, cache)
    for mix in FIGURES.values()
    for replication in ("raidb1", "raidb2")
    for cache in (False, True)
    for backends in BACKEND_COUNTS
    if replication == "raidb1" or backends >= 2
]

#: the pinned counts; ``engine`` and ``middleware`` on CPython 3.11
COUNTS: Dict[Cell, Work] = {
    # Figure 10: browsing
    Cell("browsing", "raidb1", 1, False): Work(14415, (28581,), ((18, 12),)),
    Cell("browsing", "raidb1", 2, False): Work(14897, (18322, 23325), ((9, 12), (9, 12))),
    Cell("browsing", "raidb1", 4, False): Work(
        15861,
        (16448, 16468, 14358, 19196),
        ((5, 12), (5, 12), (4, 12), (4, 12)),
    ),
    Cell("browsing", "raidb1", 6, False): Work(
        16825,
        (13767, 13195, 14301, 16719, 16378, 18234),
        ((3, 12), (3, 12), (3, 12), (3, 12), (3, 12), (3, 12)),
    ),
    Cell("browsing", "raidb1", 1, True): Work(14550, (28532,), ((17, 12),)),
    Cell("browsing", "raidb1", 2, True): Work(15030, (23927, 18972), ((9, 12), (8, 12))),
    Cell("browsing", "raidb1", 4, True): Work(
        15990,
        (16450, 14553, 19234, 16758),
        ((5, 12), (4, 12), (4, 12), (4, 12)),
    ),
    Cell("browsing", "raidb1", 6, True): Work(
        16950,
        (14496, 14504, 16175, 16719, 18079, 13154),
        ((3, 12), (3, 12), (3, 12), (3, 12), (3, 12), (2, 12)),
    ),
    Cell("browsing", "raidb2", 2, False): Work(15041, (18322, 23325), ((9, 12), (9, 12))),
    Cell("browsing", "raidb2", 4, False): Work(
        15381,
        (16874, 23286, 3494, 1940),
        ((6, 12), (8, 12), (3, 1), (1, 1)),
    ),
    Cell("browsing", "raidb2", 6, False): Work(
        15721,
        (17417, 23237, 3437, 1940, 2716, 2095),
        ((5, 12), (7, 12), (2, 1), (1, 1), (2, 1), (1, 1)),
    ),
    Cell("browsing", "raidb2", 2, True): Work(15174, (23927, 18972), ((9, 12), (8, 12))),
    Cell("browsing", "raidb2", 4, True): Work(
        15510,
        (22577, 18894, 2669, 1979),
        ((8, 12), (6, 12), (1, 1), (2, 1)),
    ),
    Cell("browsing", "raidb2", 6, True): Work(
        15846,
        (23847, 18845, 2087, 1940, 1940, 2716),
        ((7, 12), (5, 12), (1, 1), (1, 1), (1, 1), (2, 1)),
    ),
    # Figure 11: shopping
    Cell("shopping", "raidb1", 1, False): Work(12745, (22968,), ((15, 8),)),
    Cell("shopping", "raidb1", 2, False): Work(13130, (18058, 15015), ((7, 8), (8, 8))),
    Cell("shopping", "raidb1", 4, False): Work(
        13900,
        (16042, 13446, 10812, 10515),
        ((4, 8), (5, 8), (3, 8), (3, 8)),
    ),
    Cell("shopping", "raidb1", 6, False): Work(
        14670,
        (12679, 10975, 12058, 11438, 10449, 9266),
        ((3, 8), (4, 8), (2, 8), (2, 8), (2, 8), (2, 8)),
    ),
    Cell("shopping", "raidb1", 1, True): Work(12875, (22968,), ((15, 8),)),
    Cell("shopping", "raidb1", 2, True): Work(13260, (18058, 15015), ((7, 8), (8, 8))),
    Cell("shopping", "raidb1", 4, True): Work(
        14030,
        (16042, 13446, 10812, 10515),
        ((4, 8), (5, 8), (3, 8), (3, 8)),
    ),
    Cell("shopping", "raidb1", 6, True): Work(
        14800,
        (12679, 10975, 12058, 11438, 10449, 9266),
        ((3, 8), (4, 8), (2, 8), (2, 8), (2, 8), (2, 8)),
    ),
    Cell("shopping", "raidb2", 2, False): Work(13251, (18058, 15015), ((7, 8), (8, 8))),
    Cell("shopping", "raidb2", 4, False): Work(
        13703,
        (16042, 13446, 4354, 4057),
        ((4, 8), (5, 8), (3, 2), (3, 2)),
    ),
    Cell("shopping", "raidb2", 6, False): Work(
        14155,
        (15903, 13460, 2376, 2495, 3991, 2695),
        ((4, 8), (5, 8), (1, 2), (1, 2), (2, 2), (2, 2)),
    ),
    Cell("shopping", "raidb2", 2, True): Work(13381, (18058, 15015), ((7, 8), (8, 8))),
    Cell("shopping", "raidb2", 4, True): Work(
        13833,
        (16042, 13446, 4354, 4057),
        ((4, 8), (5, 8), (3, 2), (3, 2)),
    ),
    Cell("shopping", "raidb2", 6, True): Work(
        14285,
        (15903, 13460, 2376, 2495, 3991, 2695),
        ((4, 8), (5, 8), (1, 2), (1, 2), (2, 2), (2, 2)),
    ),
    # Figure 12: ordering
    Cell("ordering", "raidb1", 1, False): Work(13724, (16316,), ((14, 10),)),
    Cell("ordering", "raidb1", 2, False): Work(14123, (12534, 11573), ((7, 10), (7, 10))),
    Cell("ordering", "raidb1", 4, False): Work(
        14921,
        (10853, 10260, 8748, 9214),
        ((4, 10), (4, 10), (3, 10), (3, 10)),
    ),
    Cell("ordering", "raidb1", 6, False): Work(
        15719,
        (8648, 8791, 9951, 7999, 7135, 7983),
        ((3, 10), (3, 10), (2, 10), (2, 10), (2, 10), (2, 10)),
    ),
    Cell("ordering", "raidb1", 1, True): Work(13837, (16316,), ((14, 10),)),
    Cell("ordering", "raidb1", 2, True): Work(14236, (12534, 11573), ((7, 10), (7, 10))),
    Cell("ordering", "raidb1", 4, True): Work(
        15034,
        (10853, 10260, 8748, 9214),
        ((4, 10), (4, 10), (3, 10), (3, 10)),
    ),
    Cell("ordering", "raidb1", 6, True): Work(
        15832,
        (8648, 8791, 9951, 7999, 7135, 7983),
        ((3, 10), (3, 10), (2, 10), (2, 10), (2, 10), (2, 10)),
    ),
    Cell("ordering", "raidb2", 2, False): Work(14261, (12534, 11573), ((7, 10), (7, 10))),
    Cell("ordering", "raidb2", 4, False): Work(
        14935,
        (11732, 10260, 5043, 6388),
        ((5, 10), (4, 10), (2, 6), (3, 6)),
    ),
    Cell("ordering", "raidb2", 6, False): Work(
        15609,
        (11999, 8791, 3774, 5173, 4309, 5157),
        ((5, 10), (3, 10), (0, 6), (2, 6), (2, 6), (2, 6)),
    ),
    Cell("ordering", "raidb2", 2, True): Work(14374, (12534, 11573), ((7, 10), (7, 10))),
    Cell("ordering", "raidb2", 4, True): Work(
        15048,
        (11732, 10260, 5043, 6388),
        ((5, 10), (4, 10), (2, 6), (3, 6)),
    ),
    Cell("ordering", "raidb2", 6, True): Work(
        15722,
        (11999, 8791, 3774, 5173, 4309, 5157),
        ((5, 10), (3, 10), (0, 6), (2, 6), (2, 6), (2, 6)),
    ),
}


@functools.lru_cache(maxsize=None)
def _images() -> Dict[bool, bytes]:
    """Pickled tables of one populated engine: all of them, and all but the partial ones."""
    engine = DatabaseEngine("tpcw-figures")
    connection = dbapi.connect(engine)
    create_schema(connection)
    TPCWDataGenerator(TPCW_SCALE, seed=42).populate(connection)
    tables = engine.catalog.tables()
    return {
        True: pickle.dumps(tables),
        False: pickle.dumps([t for t in tables if t.schema.name not in PARTIAL_TABLES]),
    }


def run_cell(cell: Cell) -> Tuple[Work, int]:
    """One measured run of ``cell`` on a fresh cluster: its work and its disabled backends."""
    keys = {"replication_map": PARTIAL_MAP} if cell.replication == "raidb2" else {}
    cluster = boot(
        descriptor(
            "figure",
            cell.backends,
            replication=cell.replication,
            recovery_log="none",
            cache={"enabled": cell.cache},
            **keys,
        )
    )
    backends = cluster.virtual_database(cluster.name).backends
    for backend in backends:
        hosts_all = cell.replication == "raidb1" or backend.name in PARTIAL_MAP["orders"]
        catalog = cluster.engine(backend.name).catalog
        for table in pickle.loads(_images()[hosts_all]):
            catalog.restore_table(table)
        backend.refresh_schema()
    client = TPCWInteractions(
        cluster.connect(cluster.name, "tpcw", "tpcw"), TPCW_SCALE.items, TPCW_SCALE.customers
    )
    stream = mix_by_name(cell.mix).interaction_stream(seed=8)
    names = [next(stream) for _ in range(STREAM_LENGTH)]
    before = [(backend.total_reads, backend.total_writes) for backend in backends]
    # the engine's LIKE patterns and re's compiled expressions are cached per
    # process; a fresh cluster starts them cold, whatever ran before it
    like_regex.cache_clear()
    re.purge()

    def run():
        for name in names:
            client.run(name)

    measurement = measure(run)
    work = Work(
        middleware=measurement.count.calls - measurement.count.sql,
        engine=tuple(measurement.backends[backend.name] for backend in backends),
        statements=tuple(
            (backend.total_reads - reads, backend.total_writes - writes)
            for backend, (reads, writes) in zip(backends, before)
        ),
    )
    return work, sum(not backend.is_enabled for backend in backends)


def speedups(cell: Cell, counts: Dict[Cell, Work]) -> Tuple[float, float]:
    """``(backends, counted)``: the baseline's busiest backend over this cell's,
    uncapped and capped by the middleware's calls."""
    baseline = max(counts[cell.baseline].engine)
    work = counts[cell]
    busiest = max(work.engine)
    return baseline / busiest, baseline / max(busiest, work.middleware)


def format_figure(figure: str, counts: Dict[Cell, Work]) -> str:
    mix = FIGURES[figure]
    lines = [
        f"{figure}: TPC-W {mix} mix, {STREAM_LENGTH} interactions of one client",
        f"{'cell':24} {'middleware':>10} {'busiest':>8} {'backends':>8} {'speedup':>7}"
        "  engine calls per backend",
    ]
    for cell in CELLS:
        if cell.mix != mix:
            continue
        work = counts[cell]
        bound, counted = speedups(cell, counts)
        lines.append(
            f"{cell.label:24} {work.middleware:>10,} {max(work.engine):>8,}"
            f" {bound:>8.2f} {counted:>7.2f}  {' '.join(f'{n:,}' for n in work.engine)}"
        )
    return "\n".join(lines)


def test_every_cell_is_pinned():
    assert list(COUNTS) == CELLS


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: f"{cell.mix}: {cell.label}")
def test_cell(cell):
    work, disabled = run_cell(cell)
    assert disabled == 0
    pinned = COUNTS[cell]
    assert work.statements == pinned.statements
    if sys.version_info[:2] == (3, 11):  # call counts are CPython 3.11's
        assert work == pinned, f"{cell.label}: measured {work}, table {pinned}"


if __name__ == "__main__":
    measured = {}
    for _cell in CELLS:
        (first, first_disabled), (second, _) = run_cell(_cell), run_cell(_cell)
        if first != second or first_disabled:
            sys.exit(f"{_cell.label}: {first} then {second}, {first_disabled} disabled")
        measured[_cell] = first
    print("\n\n".join(format_figure(figure, measured) for figure in FIGURES))
