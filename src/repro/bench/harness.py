"""Experiment drivers for the paper's figures and the ablations.

* :func:`run_tpcw_scalability` — Figures 10, 11 and 12: maximum throughput in
  SQL requests per minute as a function of the number of backends, for the
  single-database baseline, full replication and partial replication;
* :func:`run_optimization_ablation` — ablation of the §2.4.4 optimisations
  (early response, lazy transaction begin is exercised functionally in the
  test suite);
* :func:`run_loadbalancer_ablation` — round robin vs weighted round robin vs
  least pending requests first under heterogeneous backend speeds;
* :func:`run_routing_ablation` — cost-based planner vs read-policy routing
  on two RAIDb-2 layouts.

Table 1 (RUBiS query result caching) is counted on the real middleware by
``tests/test_op_budget.py``.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.cluster.fixture import boot, descriptor, seed_kv
from repro.simulation import ClusterSimulation, SimulationConfig, SimulationResult
from repro.simulation.cluster import tpcw_partial_placement
from repro.planner.costmodel import TPCW_COST_MODEL, CostModel
from repro.workloads.tpcw import INTERACTIONS
from repro.workloads.tpcw.mixes import mix_by_name

# Default simulated durations: long enough for stable averages at the
# paper-scale request rates, short enough that the whole figure regenerates
# in seconds of wall-clock time.
DEFAULT_WARMUP = 120.0
DEFAULT_MEASUREMENT = 600.0


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
            started = time.perf_counter()
            for key in range(requests):
                manager.execute("SELECT o_total FROM orders WHERE o_id = ?", (key % 100,))
            seconds = time.perf_counter() - started
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
