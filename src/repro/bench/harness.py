"""Ablation drivers that run the real middleware.

* :func:`run_loadbalancer_ablation` — round robin vs weighted round robin vs
  least pending requests first, with one backend weighted down;
* :func:`run_routing_ablation` — cost-based planner vs read-policy routing
  on two RAIDb-2 layouts.

The paper's Table 1 and Figures 10-12 are count tables under ``tests/``
(``test_op_budget.py`` and ``test_tpcw_figures.py``), measured on the same
middleware.
"""

from __future__ import annotations

import time
from typing import Dict

from repro.cluster.fixture import boot, descriptor, seed_kv


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------


def run_loadbalancer_ablation(
    requests: int = 4000,
    backends: int = 3,
    slow_backend_factor: float = 3.0,
) -> Dict[str, float]:
    """Compare RR / WRR / LPRF on the real middleware with one weaker backend.

    The ablation runs real in-memory engines behind the real middleware:
    backend ``b0`` has weight 1 and the others ``slow_backend_factor``, as
    an operator would weight down a slower machine.  Returns the fraction of
    the reads each policy sent to ``b0`` (a WRR honouring the weights sends
    it less than its fair share).
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
