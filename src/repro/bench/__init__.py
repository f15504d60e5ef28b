"""Live experiment drivers: ablations, chaos scenarios, the scheduler bench.

Each driver boots real in-process clusters and returns plain data
structures; ``tests/test_bench_smoke.py`` asserts each claim on a small live
run.  The paper's Table 1 and Figures 10-12 are exact count tables on the
same middleware, in ``tests/test_op_budget.py`` and
``tests/test_tpcw_figures.py``.
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
from repro.bench.harness import run_loadbalancer_ablation, run_routing_ablation
from repro.bench.scheduler_bench import run_scheduler_ablation

__all__ = [
    "CHAOS_SCENARIOS",
    "CHAOS_SMOKE_SCENARIOS",
    "ChaosResult",
    "format_chaos_report",
    "run_chaos_scenario",
    "run_chaos_suite",
    "run_loadbalancer_ablation",
    "run_routing_ablation",
    "run_scheduler_ablation",
    "table_digests",
]
