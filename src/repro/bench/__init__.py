"""Benchmark harness: experiment drivers and report formatting.

Each function in :mod:`repro.bench.harness` regenerates one of the paper's
figures or tables (or one of the ablations listed in DESIGN.md) and returns
plain data structures; :mod:`repro.bench.report` renders them in the same
rows/series the paper reports.  The pytest-benchmark targets in
``benchmarks/`` are thin wrappers around these functions.
"""

from repro.bench.chaos import (
    CHAOS_SCENARIOS,
    CHAOS_SMOKE_SCENARIOS,
    ChaosResult,
    format_chaos_report,
    run_chaos_scenario,
    run_chaos_suite,
    table_digests,
)
from repro.bench.harness import (
    run_loadbalancer_ablation,
    run_optimization_ablation,
    run_rubis_cache_experiment,
    run_routing_ablation,
    run_tpcw_scalability,
)
from repro.bench.scheduler_bench import run_scheduler_ablation
from repro.bench.report import (
    format_rubis_table,
    format_scalability_table,
)

__all__ = [
    "CHAOS_SCENARIOS",
    "CHAOS_SMOKE_SCENARIOS",
    "ChaosResult",
    "format_chaos_report",
    "format_rubis_table",
    "format_scalability_table",
    "run_chaos_scenario",
    "run_chaos_suite",
    "run_loadbalancer_ablation",
    "run_optimization_ablation",
    "run_routing_ablation",
    "run_rubis_cache_experiment",
    "run_scheduler_ablation",
    "run_tpcw_scalability",
    "table_digests",
]
