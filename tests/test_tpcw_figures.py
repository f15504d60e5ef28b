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
    Cell("browsing", "raidb1", 1, False): Work(14546, (28731,), ((18, 12),)),
    Cell("browsing", "raidb1", 2, False): Work(15028, (18409, 23412), ((9, 12), (9, 12))),
    Cell("browsing", "raidb1", 4, False): Work(
        15992,
        (16507, 16527, 14410, 19248),
        ((5, 12), (5, 12), (4, 12), (4, 12)),
    ),
    Cell("browsing", "raidb1", 6, False): Work(
        16956,
        (13812, 13240, 14346, 16764, 16423, 18279),
        ((3, 12), (3, 12), (3, 12), (3, 12), (3, 12), (3, 12)),
    ),
    Cell("browsing", "raidb1", 1, True): Work(14750, (28675,), ((17, 12),)),
    Cell("browsing", "raidb1", 2, True): Work(15230, (24014, 19052), ((9, 12), (8, 12))),
    Cell("browsing", "raidb1", 4, True): Work(
        16190,
        (16509, 14605, 19286, 16810),
        ((5, 12), (4, 12), (4, 12), (4, 12)),
    ),
    Cell("browsing", "raidb1", 6, True): Work(
        17150,
        (14541, 14549, 16220, 16764, 18124, 13192),
        ((3, 12), (3, 12), (3, 12), (3, 12), (3, 12), (2, 12)),
    ),
    Cell("browsing", "raidb2", 2, False): Work(15172, (18409, 23412), ((9, 12), (9, 12))),
    Cell("browsing", "raidb2", 4, False): Work(
        15512,
        (16940, 23366, 3517, 1949),
        ((6, 12), (8, 12), (3, 1), (1, 1)),
    ),
    Cell("browsing", "raidb2", 6, False): Work(
        15852,
        (17476, 23310, 3453, 1949, 2732, 2104),
        ((5, 12), (7, 12), (2, 1), (1, 1), (2, 1), (1, 1)),
    ),
    Cell("browsing", "raidb2", 2, True): Work(15374, (24014, 19052), ((9, 12), (8, 12))),
    Cell("browsing", "raidb2", 4, True): Work(
        15710,
        (22657, 18960, 2678, 1995),
        ((8, 12), (6, 12), (1, 1), (2, 1)),
    ),
    Cell("browsing", "raidb2", 6, True): Work(
        16046,
        (23920, 18904, 2096, 1949, 1949, 2732),
        ((7, 12), (5, 12), (1, 1), (1, 1), (1, 1), (2, 1)),
    ),
    # Figure 11: shopping
    Cell("shopping", "raidb1", 1, False): Work(12851, (23089,), ((15, 8),)),
    Cell("shopping", "raidb1", 2, False): Work(13236, (18123, 15087), ((7, 8), (8, 8))),
    Cell("shopping", "raidb1", 4, False): Work(
        14006,
        (16086, 13497, 10849, 10552),
        ((4, 8), (5, 8), (3, 8), (3, 8)),
    ),
    Cell("shopping", "raidb1", 6, False): Work(
        14776,
        (12716, 11019, 12088, 11468, 10479, 9296),
        ((3, 8), (4, 8), (2, 8), (2, 8), (2, 8), (2, 8)),
    ),
    Cell("shopping", "raidb1", 1, True): Work(13041, (23089,), ((15, 8),)),
    Cell("shopping", "raidb1", 2, True): Work(13426, (18123, 15087), ((7, 8), (8, 8))),
    Cell("shopping", "raidb1", 4, True): Work(
        14196,
        (16086, 13497, 10849, 10552),
        ((4, 8), (5, 8), (3, 8), (3, 8)),
    ),
    Cell("shopping", "raidb1", 6, True): Work(
        14966,
        (12716, 11019, 12088, 11468, 10479, 9296),
        ((3, 8), (4, 8), (2, 8), (2, 8), (2, 8), (2, 8)),
    ),
    Cell("shopping", "raidb2", 2, False): Work(13357, (18123, 15087), ((7, 8), (8, 8))),
    Cell("shopping", "raidb2", 4, False): Work(
        13809,
        (16086, 13497, 4379, 4082),
        ((4, 8), (5, 8), (3, 2), (3, 2)),
    ),
    Cell("shopping", "raidb2", 6, False): Work(
        14261,
        (15947, 13511, 2387, 2506, 4009, 2713),
        ((4, 8), (5, 8), (1, 2), (1, 2), (2, 2), (2, 2)),
    ),
    Cell("shopping", "raidb2", 2, True): Work(13547, (18123, 15087), ((7, 8), (8, 8))),
    Cell("shopping", "raidb2", 4, True): Work(
        13999,
        (16086, 13497, 4379, 4082),
        ((4, 8), (5, 8), (3, 2), (3, 2)),
    ),
    Cell("shopping", "raidb2", 6, True): Work(
        14451,
        (15947, 13511, 2387, 2506, 4009, 2713),
        ((4, 8), (5, 8), (1, 2), (1, 2), (2, 2), (2, 2)),
    ),
    # Figure 12: ordering
    Cell("ordering", "raidb1", 1, False): Work(13827, (16434,), ((14, 10),)),
    Cell("ordering", "raidb1", 2, False): Work(14226, (12603, 11642), ((7, 10), (7, 10))),
    Cell("ordering", "raidb1", 4, False): Work(
        15024,
        (10901, 10308, 8789, 9255),
        ((4, 10), (4, 10), (3, 10), (3, 10)),
    ),
    Cell("ordering", "raidb1", 6, False): Work(
        15822,
        (8689, 8832, 9985, 8033, 7169, 8017),
        ((3, 10), (3, 10), (2, 10), (2, 10), (2, 10), (2, 10)),
    ),
    Cell("ordering", "raidb1", 1, True): Work(13985, (16434,), ((14, 10),)),
    Cell("ordering", "raidb1", 2, True): Work(14384, (12603, 11642), ((7, 10), (7, 10))),
    Cell("ordering", "raidb1", 4, True): Work(
        15182,
        (10901, 10308, 8789, 9255),
        ((4, 10), (4, 10), (3, 10), (3, 10)),
    ),
    Cell("ordering", "raidb1", 6, True): Work(
        15980,
        (8689, 8832, 9985, 8033, 7169, 8017),
        ((3, 10), (3, 10), (2, 10), (2, 10), (2, 10), (2, 10)),
    ),
    Cell("ordering", "raidb2", 2, False): Work(14364, (12603, 11642), ((7, 10), (7, 10))),
    Cell("ordering", "raidb2", 4, False): Work(
        15038,
        (11787, 10308, 5069, 6421),
        ((5, 10), (4, 10), (2, 6), (3, 6)),
    ),
    Cell("ordering", "raidb2", 6, False): Work(
        15712,
        (12054, 8832, 3786, 5199, 4335, 5183),
        ((5, 10), (3, 10), (0, 6), (2, 6), (2, 6), (2, 6)),
    ),
    Cell("ordering", "raidb2", 2, True): Work(14522, (12603, 11642), ((7, 10), (7, 10))),
    Cell("ordering", "raidb2", 4, True): Work(
        15196,
        (11787, 10308, 5069, 6421),
        ((5, 10), (4, 10), (2, 6), (3, 6)),
    ),
    Cell("ordering", "raidb2", 6, True): Work(
        15870,
        (12054, 8832, 3786, 5199, 4335, 5183),
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
