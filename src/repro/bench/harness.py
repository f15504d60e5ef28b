"""Experiment drivers for every figure and table of the paper.

* :func:`run_tpcw_scalability` — Figures 10, 11 and 12: maximum throughput in
  SQL requests per minute as a function of the number of backends, for the
  single-database baseline, full replication and partial replication;
* :func:`run_rubis_cache_experiment` — Table 1: RUBiS bidding mix with 450
  clients on a single backend, without cache / with a coherent cache / with a
  relaxed (60 s staleness) cache;
* :func:`run_optimization_ablation` — ablation of the §2.4.4 optimisations
  (early response, lazy transaction begin is exercised functionally in the
  test suite);
* :func:`run_loadbalancer_ablation` — round robin vs weighted round robin vs
  least pending requests first under heterogeneous backend speeds;
* :func:`run_overhead_microbenchmark` — functional (wall-clock) comparison of
  direct backend access vs access through the C-JDBC controller.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cluster.fixture import boot, descriptor, seed_kv
from repro.simulation import ClusterSimulation, SimulationConfig, SimulationResult
from repro.simulation.cluster import tpcw_partial_placement
from repro.planner.costmodel import RUBIS_COST_MODEL, TPCW_COST_MODEL, CostModel
from repro.sql import dbapi
from repro.workloads.rubis import BIDDING_MIX, RUBIS_INTERACTIONS
from repro.workloads.tpcw import INTERACTIONS
from repro.workloads.tpcw.mixes import mix_by_name

# Default simulated durations: long enough for stable averages at the
# paper-scale request rates, short enough that the whole figure regenerates
# in seconds of wall-clock time.
DEFAULT_WARMUP = 120.0
DEFAULT_MEASUREMENT = 600.0


def write_bench_json(results: dict, path: Union[str, Path]) -> Path:
    """Write a bench run's results as indented, key-sorted JSON."""
    path = Path(path)
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")
    return path


# ---------------------------------------------------------------------------
# Figures 10-12: TPC-W throughput scalability
# ---------------------------------------------------------------------------


def run_tpcw_scalability(
    mix_name: str,
    backend_counts: Optional[List[int]] = None,
    clients_per_backend: int = 130,
    cost_model: Optional[CostModel] = None,
    warmup: float = DEFAULT_WARMUP,
    measurement: float = DEFAULT_MEASUREMENT,
) -> Dict[str, List[SimulationResult]]:
    """Reproduce one TPC-W figure (browsing/shopping/ordering).

    Returns three series keyed ``"single"``, ``"full"`` and ``"partial"``.
    The single-database baseline bypasses the middleware entirely (one
    backend, no replication); full and partial replication sweep the backend
    counts.  The client population grows with the cluster size, the same way
    the paper increases the offered load until each configuration saturates.
    """
    mix = mix_by_name(mix_name)
    counts = backend_counts or [1, 2, 3, 4, 5, 6]
    model = cost_model or TPCW_COST_MODEL
    series: Dict[str, List[SimulationResult]] = {"single": [], "full": [], "partial": []}

    baseline = ClusterSimulation(
        SimulationConfig(
            interactions=INTERACTIONS,
            mix=mix,
            backends=1,
            replication="single",
            clients=clients_per_backend,
            warmup=warmup,
            measurement=measurement,
            cost_model=model,
        ),
        label=f"tpcw-{mix_name}-single-1",
    ).run()
    series["single"].append(baseline)

    for replication in ("full", "partial"):
        for backends in counts:
            placement = tpcw_partial_placement(backends) if replication == "partial" else {}
            result = ClusterSimulation(
                SimulationConfig(
                    interactions=INTERACTIONS,
                    mix=mix,
                    backends=backends,
                    replication=replication,
                    table_placement=placement,
                    clients=clients_per_backend * backends,
                    warmup=warmup,
                    measurement=measurement,
                    cost_model=model,
                ),
                label=f"tpcw-{mix_name}-{replication}-{backends}",
            ).run()
            series[replication].append(result)
    return series


def tpcw_speedups(series: Dict[str, List[SimulationResult]]) -> Dict[str, float]:
    """Speedup of the largest full/partial configuration over the single DB."""
    baseline = series["single"][0].sql_requests_per_minute
    return {
        replication: series[replication][-1].sql_requests_per_minute / baseline
        for replication in ("full", "partial")
        if series.get(replication)
    }


# ---------------------------------------------------------------------------
# Table 1: RUBiS query result caching
# ---------------------------------------------------------------------------


def run_rubis_cache_experiment(
    clients: int = 450,
    staleness_seconds: float = 60.0,
    cost_model: Optional[CostModel] = None,
    warmup: float = DEFAULT_WARMUP,
    measurement: float = DEFAULT_MEASUREMENT,
) -> Dict[str, SimulationResult]:
    """Reproduce Table 1: no cache vs coherent cache vs relaxed cache."""
    model = cost_model or RUBIS_COST_MODEL
    results: Dict[str, SimulationResult] = {}
    for cache_mode in ("none", "coherent", "relaxed"):
        results[cache_mode] = ClusterSimulation(
            SimulationConfig(
                interactions=RUBIS_INTERACTIONS,
                mix=BIDDING_MIX,
                backends=1,
                replication="single",
                cache_mode=cache_mode,
                cache_staleness_seconds=staleness_seconds,
                clients=clients,
                warmup=warmup,
                measurement=measurement,
                cost_model=model,
            ),
            label=f"rubis-{cache_mode}",
        ).run()
    return results


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def run_optimization_ablation(
    mix_name: str = "ordering",
    backends: int = 6,
    clients: int = 600,
    warmup: float = DEFAULT_WARMUP,
    measurement: float = DEFAULT_MEASUREMENT,
) -> Dict[str, SimulationResult]:
    """Early response on/off for a write-heavy mix (ablation E5 of DESIGN.md)."""
    mix = mix_by_name(mix_name)
    results = {}
    for early_response in (True, False):
        label = "early_response" if early_response else "wait_all"
        results[label] = ClusterSimulation(
            SimulationConfig(
                interactions=INTERACTIONS,
                mix=mix,
                backends=backends,
                replication="full",
                clients=clients,
                warmup=warmup,
                measurement=measurement,
                cost_model=TPCW_COST_MODEL,
                early_response=early_response,
            ),
            label=f"ablation-{label}",
        ).run()
    return results


def run_loadbalancer_ablation(
    requests: int = 4000,
    backends: int = 3,
    slow_backend_factor: float = 3.0,
) -> Dict[str, float]:
    """Compare RR / WRR / LPRF on the real middleware with a slow backend.

    This ablation runs *functionally* (real middleware, real in-memory
    engines): one backend is made ``slow_backend_factor`` times slower by
    wrapping its connection factory with a busy-wait, and we measure how many
    requests each policy sends to the slow backend (fewer is better for LPRF
    and for a WRR that weights it down).  Returns the fraction of reads that
    landed on the slow backend for each policy.
    """
    from repro.core.loadbalancer.policies import (
        LeastPendingRequestsFirst,
        RoundRobinPolicy,
        WeightedRoundRobinPolicy,
    )

    fractions: Dict[str, float] = {}
    for policy_name in ("rr", "wrr", "lprf"):
        document = descriptor(
            "lb", backends, load_balancing_policy=policy_name, recovery_log="none"
        )
        document["virtual_databases"][0]["backends"] = [
            {"name": f"b{index}", "weight": 1 if index == 0 else int(slow_backend_factor)}
            for index in range(backends)
        ]
        cluster = boot(document)
        vdb = cluster.virtual_database(cluster.name)
        cursor = cluster.connect(cluster.name, "bench", "bench").cursor()
        seed_kv(cursor.execute, 100)
        for key in range(requests):
            cursor.execute("SELECT v FROM kv WHERE k = ?", (key % 100,))
            cursor.fetchall()
        slow = vdb.get_backend("b0")
        total_reads = sum(backend.total_reads for backend in vdb.backends)
        fractions[policy_name] = slow.total_reads / total_reads if total_reads else 0.0
    return fractions


# ---------------------------------------------------------------------------
# Routing ablation: cost-based planner vs read-policy routing (RAIDb-2)
# ---------------------------------------------------------------------------

def run_routing_ablation(
    requests: int = 2400,
    slow_latency_ms: float = 2.0,
    warmup_requests: int = 100,
) -> dict:
    """Cost-based routing vs read-policy routing on two RAIDb-2 layouts.

    Functional ablation (real middleware, real engines):

    * ``uniform`` — every table replicated on all three backends, no faults.
      Cost-based routing's estimates all tie, so it degenerates to the lprf
      read policy's choice.
    * ``skewed`` — TPC-W-style partial replication (``item`` everywhere,
      ``orders``/``order_line`` co-located on backend0+backend1) with a
      ``slow_latency_ms`` fault armed on backend0.  The lprf policy sees
      equal pending depths and keeps landing half the reads on the slow
      host; the cost model learns its EWMA service time and avoids it except
      for the periodic exploration probe.

    Returns per layout and routing mode the wall-clock seconds of the timed
    reads, the reads the backends served (``reads``; one per request when
    every read completes), those served by a backend that ended the run
    disabled (``reads_on_disabled``) and the fraction sent to the slow
    backend (``slow_read_fraction``), plus the cost/policy speedup.
    """
    all_backends = ["b0", "b1", "b2"]
    layouts = {
        "uniform": {
            "replication_map": {t: all_backends for t in ("item", "orders", "order_line")},
            "slow_backend": None,
        },
        "skewed": {
            "replication_map": {
                "item": all_backends,
                "orders": ["b0", "b1"],
                "order_line": ["b0", "b1"],
            },
            "slow_backend": "b0",
        },
    }
    results: Dict[str, dict] = {}
    for layout_name, layout in layouts.items():
        layout_result: Dict[str, object] = {}
        for routing_policy in ("policy", "cost"):
            cluster = boot(
                descriptor(
                    "routing",
                    3,
                    replication="raidb2",
                    replication_map=layout["replication_map"],
                    routing={"policy": routing_policy},
                    recovery_log="none",
                )
            )
            vdb = cluster.virtual_database(cluster.name)
            manager = vdb.request_manager
            manager.execute("CREATE TABLE item (i_id INT PRIMARY KEY, i_title VARCHAR(32))")
            manager.execute("CREATE TABLE orders (o_id INT PRIMARY KEY, o_total INT)")
            manager.execute(
                "CREATE TABLE order_line (ol_id INT PRIMARY KEY, ol_o_id INT, ol_qty INT)"
            )
            for key in range(100):
                manager.execute(
                    "INSERT INTO item (i_id, i_title) VALUES (?, ?)", (key, f"title-{key}")
                )
                manager.execute(
                    "INSERT INTO orders (o_id, o_total) VALUES (?, ?)", (key, key * 10)
                )
            # arm the slow backend only after the setup writes: the ablation
            # measures read routing, not broadcast writes
            if layout["slow_backend"]:
                vdb.fault_injector(layout["slow_backend"]).inject(
                    "latency", latency_ms=slow_latency_ms, probability=1.0
                )
            # warm-up: let the cost model's EWMAs observe every backend (and
            # keep the fair comparison — both modes get the same warm-up)
            for key in range(warmup_requests):
                manager.execute("SELECT o_total FROM orders WHERE o_id = ?", (key % 100,))
            warmup_reads = {b.name: b.total_reads for b in vdb.backends}
            seconds = _time_loop(
                lambda i: manager.execute(
                    "SELECT o_total FROM orders WHERE o_id = ?", (i % 100,)
                ),
                requests,
            )
            slow_name = layout["slow_backend"]
            total_reads = sum(
                backend.total_reads - warmup_reads[backend.name]
                for backend in vdb.backends
            )
            slow_reads = (
                vdb.get_backend(slow_name).total_reads - warmup_reads[slow_name]
                if slow_name
                else 0
            )
            layout_result[routing_policy] = {
                "seconds": round(seconds, 6),
                "reads_per_second": round(requests / seconds, 1) if seconds > 0 else 0.0,
                "reads": total_reads,
                "reads_on_disabled": sum(
                    backend.total_reads - warmup_reads[backend.name]
                    for backend in vdb.backends
                    if not backend.is_enabled
                ),
                "slow_read_fraction": (
                    round(slow_reads / total_reads, 4) if total_reads else 0.0
                ),
            }
        policy_seconds = layout_result["policy"]["seconds"]
        cost_seconds = layout_result["cost"]["seconds"]
        layout_result["cost_speedup"] = (
            round(policy_seconds / cost_seconds, 2) if cost_seconds > 0 else 0.0
        )
        results[layout_name] = layout_result
    return {
        "benchmark": "routing",
        "config": {
            "requests": requests,
            "slow_latency_ms": slow_latency_ms,
            "warmup_requests": warmup_requests,
        },
        "layouts": results,
    }


# ---------------------------------------------------------------------------
# Middleware overhead micro-benchmark (functional, wall clock)
# ---------------------------------------------------------------------------


@dataclass
class OverheadResult:
    direct_seconds: float
    middleware_seconds: float
    statements: int

    @property
    def overhead_factor(self) -> float:
        if self.direct_seconds == 0:
            return 0.0
        return self.middleware_seconds / self.direct_seconds


def run_overhead_microbenchmark(statements: int = 2000) -> OverheadResult:
    """Wall-clock cost of going through the controller vs hitting the engine.

    This is the §6.1 sanity check that the middleware adds acceptable
    overhead on the read path; it uses the real engine, controller, driver
    and cache-less RAIDb-1 configuration with one backend.
    """
    cluster = boot(descriptor("overhead", 1, replication="single", recovery_log="none"))
    virtual_cursor = cluster.connect(cluster.name, "bench", "bench").cursor()
    seed_kv(virtual_cursor.execute, 200)
    cursor = dbapi.connect(cluster.engines["b0"]).cursor()

    start = time.perf_counter()
    for index in range(statements):
        cursor.execute("SELECT v FROM kv WHERE k = ?", (index % 200,))
        cursor.fetchall()
    direct_seconds = time.perf_counter() - start

    start = time.perf_counter()
    for index in range(statements):
        virtual_cursor.execute("SELECT v FROM kv WHERE k = ?", (index % 200,))
        virtual_cursor.fetchall()
    middleware_seconds = time.perf_counter() - start

    return OverheadResult(
        direct_seconds=direct_seconds,
        middleware_seconds=middleware_seconds,
        statements=statements,
    )


# ---------------------------------------------------------------------------
# Hot-path micro-benchmark: parsing cache, cached reads, write invalidation
# ---------------------------------------------------------------------------

#: statement shapes cycled by the parse scenario (TPC-W-like shapes: joined
#: selects, point reads, writes with and without macros)
_PARSE_WORKLOAD = [
    "SELECT * FROM item WHERE i_id = ?",
    "SELECT i_title, i_cost FROM item WHERE i_subject = ? ORDER BY i_pub_date",
    "SELECT * FROM item JOIN author ON item.i_a_id = author.a_id WHERE a_lname = ?",
    "SELECT o.o_id, ol.ol_qty FROM orders o LEFT JOIN order_line ol"
    " ON o.o_id = ol.ol_o_id WHERE o.o_c_id = ?",
    "SELECT COUNT(*) FROM shopping_cart_line WHERE scl_sc_id = ?",
    "INSERT INTO shopping_cart_line (scl_sc_id, scl_i_id, scl_qty) VALUES (?, ?, ?)",
    "UPDATE item SET i_stock = i_stock - ? WHERE i_id = ?",
    "UPDATE shopping_cart SET sc_time = NOW() WHERE sc_id = ?",
    "DELETE FROM shopping_cart_line WHERE scl_sc_id = ?",
    "INSERT INTO orders (o_c_id, o_date, o_total) VALUES (?, NOW(), ?)",
]


@dataclass
class HotpathScenarioResult:
    """Throughput of one hot-path scenario."""

    name: str
    operations: int
    seconds: float

    @property
    def ops_per_second(self) -> float:
        return self.operations / self.seconds if self.seconds > 0 else 0.0

    def as_dict(self) -> dict:
        return {
            "operations": self.operations,
            "seconds": round(self.seconds, 6),
            "ops_per_second": round(self.ops_per_second, 1),
        }


def _time_loop(operation: Callable[[int], object], operations: int) -> float:
    start = time.perf_counter()
    for index in range(operations):
        operation(index)
    return time.perf_counter() - start


def _run_parse_scenarios(
    statements: int,
) -> Tuple[Dict[str, HotpathScenarioResult], int]:
    """Parse throughput with the parsing cache on and off.

    Also returns the cache-on run's parsing-cache misses: one per distinct
    statement shape, however many statements the loop parses.
    """
    from repro.core.requestparser import RequestFactory

    workload = _PARSE_WORKLOAD
    count = len(workload)
    scenarios = {}
    for label, cache_size in (("parse_cache_on", 1024), ("parse_cache_off", 0)):
        factory = RequestFactory(parsing_cache_size=cache_size)
        seconds = _time_loop(
            lambda i, f=factory: f.create_request(workload[i % count], (i,)), statements
        )
        scenarios[label] = HotpathScenarioResult(label, statements, seconds)
        if cache_size:
            misses = factory.parsing_cache.statistics.misses
    return scenarios, misses


def _hotpath_manager(backends: int):
    """The request manager of a RAIDb-1 vdb with result + parsing caches enabled."""
    cluster = boot(
        descriptor("hotpath", backends, cache={"enabled": True}, recovery_log="none")
    )
    manager = cluster.virtual_database(cluster.name).request_manager
    seed_kv(manager.execute, 100)
    manager.execute("CREATE TABLE audit (a_id INT PRIMARY KEY, note VARCHAR(32))")
    for key in range(100):
        manager.execute("INSERT INTO audit (a_id, note) VALUES (?, ?)", (key, f"note-{key}"))
    return manager


def _run_cached_read_scenario(backends: int, statements: int) -> HotpathScenarioResult:
    manager = _hotpath_manager(backends)
    # warm the result cache with the 20 point reads the loop will cycle
    for key in range(20):
        manager.execute("SELECT v FROM kv WHERE k = ?", (key,))
    seconds = _time_loop(
        lambda i: manager.execute("SELECT v FROM kv WHERE k = ?", (i % 20,)), statements
    )
    return HotpathScenarioResult(f"cached_read_{backends}_backends", statements, seconds)


def _run_write_invalidate_scenario(backends: int, statements: int) -> HotpathScenarioResult:
    """Write throughput against a populated cache.

    The cache holds entries on ``audit`` while the writes hit ``kv``: every
    write runs invalidation against a full cache without emptying it, the
    steady state the invalidation index is built for.
    """
    manager = _hotpath_manager(backends)
    for key in range(100):
        manager.execute("SELECT note FROM audit WHERE a_id = ?", (key,))
    seconds = _time_loop(
        lambda i: manager.execute(
            "UPDATE kv SET v = ? WHERE k = ?", (f"updated-{i}", i % 100)
        ),
        statements,
    )
    return HotpathScenarioResult(f"write_invalidate_{backends}_backends", statements, seconds)


def _run_invalidate_index_ablation(
    cache_sizes: Sequence[int], tables: int, writes: int
) -> dict:
    """Invalidation cost vs cache size: inverted index vs full scan.

    The cache is filled with entries spread over ``tables`` tables and the
    measured writes hit a table that caches nothing, so no entries are
    dropped and the cache stays at the configured size: the measurement
    isolates the candidate-selection cost.  The full-scan variant uses a
    table granularity that opts out of the index, i.e. the pre-index code
    path.
    """
    from repro.core.cache import (
        FullScanTableGranularity,
        ResultCache,
        TableGranularity,
    )
    from repro.core.request import RequestResult, SelectRequest, WriteRequest

    write_request = WriteRequest(
        sql="UPDATE uncached_table SET x = 1", tables=("uncached_table",)
    )
    result = {
        "cache_sizes": list(cache_sizes),
        "tables": tables,
        "writes_per_size": writes,
        "indexed_ops_per_second": [],
        "full_scan_ops_per_second": [],
    }
    for size in cache_sizes:
        for granularity, column in (
            (TableGranularity(), "indexed_ops_per_second"),
            (FullScanTableGranularity(), "full_scan_ops_per_second"),
        ):
            cache = ResultCache(granularity=granularity, max_entries=size)
            for index in range(size):
                table = f"table{index % tables}"
                request = SelectRequest(
                    sql=f"SELECT * FROM {table} WHERE id = ?",
                    tables=(table,),
                    parameters=(index,),
                )
                cache.put(request, RequestResult(columns=["id"], rows=[[index]]))
            seconds = _time_loop(lambda i: cache.invalidate(write_request), writes)
            result[column].append(round(writes / seconds, 1) if seconds > 0 else 0.0)

    def slowdown(column: str) -> float:
        series = result[column]
        return round(series[0] / series[-1], 2) if series and series[-1] else 0.0

    result["indexed_slowdown_largest_vs_smallest"] = slowdown("indexed_ops_per_second")
    result["full_scan_slowdown_largest_vs_smallest"] = slowdown("full_scan_ops_per_second")
    return result


def _run_batch_insert_scenarios(
    batch_size: int, batches: int
) -> Tuple[Dict[str, HotpathScenarioResult], Dict[str, Dict[str, dict]]]:
    """Bulk-insert throughput: looped ``executemany`` vs server-side batch.

    Both variants insert ``batches`` groups of ``batch_size`` rows into a
    2-backend RAIDb-1 virtual database.  ``batch_insert_looped`` replays the
    pre-batching client loop — one full pipeline traversal (scheduler
    ticket, recovery-log entry, cache-invalidation pass, per-backend
    broadcast) per row.  ``batch_insert_server`` ships each group through
    the pipeline once as a :class:`repro.core.request.BatchWriteRequest`.
    Operations are counted in *rows inserted* so the two ops/s figures are
    directly comparable; their ratio is the ``batch_speedup`` ablation.
    Also returns each variant's per-backend ``total_batches`` and
    ``total_batched_statements`` counters.
    """
    sql = "INSERT INTO bulk (b_id, payload) VALUES (?, ?)"
    scenarios: Dict[str, HotpathScenarioResult] = {}
    backend_counts: Dict[str, Dict[str, dict]] = {}
    for label, batched in (("batch_insert_looped", False), ("batch_insert_server", True)):
        manager = _hotpath_manager(2)
        manager.execute("CREATE TABLE bulk (b_id INT PRIMARY KEY, payload VARCHAR(32))")

        def run_batch(index: int) -> None:
            base = index * batch_size
            parameter_sets = [
                (base + offset, f"row-{base + offset}") for offset in range(batch_size)
            ]
            if batched:
                manager.execute_batch(sql, parameter_sets)
            else:
                for parameters in parameter_sets:
                    manager.execute(sql, parameters)

        seconds = _time_loop(run_batch, batches)
        scenarios[label] = HotpathScenarioResult(label, batches * batch_size, seconds)
        backend_counts[label] = {
            backend.name: {
                "total_batches": backend.total_batches,
                "total_batched_statements": backend.total_batched_statements,
            }
            for backend in manager.backends
        }
    return scenarios, backend_counts


def run_hotpath_microbenchmark(
    parse_statements: int = 20000,
    read_statements: int = 5000,
    write_statements: int = 1200,
    backend_counts: Sequence[int] = (1, 4, 16),
    invalidate_cache_sizes: Sequence[int] = (250, 1000, 4000),
    invalidate_tables: int = 50,
    invalidate_writes: int = 300,
    batch_size: int = 100,
    batch_count: int = 10,
) -> dict:
    """Measure the controller hot paths and the cache ablations.

    Returns a machine-readable document: ops/s for statement parsing
    (parsing cache on/off), cached reads, write+invalidate at each backend
    count and bulk inserts (looped vs server-side batch), plus three
    ablations — the parsing cache speedup and misses, the invalidation-index
    cost vs cache size, and the server-side batching speedup with each
    backend's batch counters.
    """
    scenarios, parse_misses = _run_parse_scenarios(parse_statements)
    for backends in backend_counts:
        read = _run_cached_read_scenario(backends, read_statements)
        scenarios[read.name] = read
        write = _run_write_invalidate_scenario(backends, write_statements)
        scenarios[write.name] = write
    batch_scenarios, backend_batches = _run_batch_insert_scenarios(
        batch_size, batch_count
    )
    scenarios.update(batch_scenarios)

    index_ablation = _run_invalidate_index_ablation(
        invalidate_cache_sizes, invalidate_tables, invalidate_writes
    )
    parse_on = scenarios["parse_cache_on"].ops_per_second
    parse_off = scenarios["parse_cache_off"].ops_per_second
    looped_ops = scenarios["batch_insert_looped"].ops_per_second
    server_ops = scenarios["batch_insert_server"].ops_per_second
    batch_ablation = {
        "batch_size": batch_size,
        "batches": batch_count,
        "looped_rows_per_second": round(looped_ops, 1),
        "server_rows_per_second": round(server_ops, 1),
        "speedup": round(server_ops / looped_ops, 2) if looped_ops else 0.0,
        "backends": backend_batches,
    }
    return {
        "benchmark": "hotpath",
        "config": {
            "parse_statements": parse_statements,
            "read_statements": read_statements,
            "write_statements": write_statements,
            "backend_counts": list(backend_counts),
            "batch_size": batch_size,
            "batch_count": batch_count,
        },
        "scenarios": {name: result.as_dict() for name, result in scenarios.items()},
        "ablations": {
            "parse_cache_speedup": round(parse_on / parse_off, 2) if parse_off else 0.0,
            "parse_cache_misses": parse_misses,
            "invalidate_index_vs_scan": index_ablation,
            "batch_speedup": batch_ablation,
        },
    }
