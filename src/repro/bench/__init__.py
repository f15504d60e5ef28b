"""Benchmark harness: experiment drivers and report formatting.

Each function in :mod:`repro.bench.harness` regenerates one of the paper's
figures (or one of the ablations listed in DESIGN.md) and returns plain data
structures; :mod:`repro.bench.report` renders them in the same rows/series
the paper reports.  The pytest-benchmark targets in ``benchmarks/`` are thin
wrappers around these functions.  The paper's Table 1 (query result caching
on RUBiS) is not modelled here: ``tests/test_op_budget.py`` counts it on the
real middleware.
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
    run_routing_ablation,
    run_tpcw_scalability,
)
from repro.bench.scheduler_bench import run_scheduler_ablation
from repro.bench.report import format_scalability_table

__all__ = [
    "CHAOS_SCENARIOS",
    "CHAOS_SMOKE_SCENARIOS",
    "ChaosResult",
    "format_chaos_report",
    "format_scalability_table",
    "run_chaos_scenario",
    "run_chaos_suite",
    "run_loadbalancer_ablation",
    "run_optimization_ablation",
    "run_routing_ablation",
    "run_scheduler_ablation",
    "run_tpcw_scalability",
    "table_digests",
]
