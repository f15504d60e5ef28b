"""Tier-1 smoke runs of every benchmark harness entry point.

Each test runs one ``repro.bench`` driver at tiny iteration counts so the
benchmarks cannot bit-rot between the full runs (marker: ``bench_smoke``;
select them with ``pytest -m bench_smoke``).  Each ablation's claim is
asserted here, once, on the live run, from counters the code already keeps
— never against a committed number and never as a wall-clock comparison.
The hot-path ablations are exact call counts in ``tests/test_op_budget.py``.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    run_chaos_scenario,
    run_loadbalancer_ablation,
    run_routing_ablation,
    run_scheduler_ablation,
)
from repro.isolation import run_isolation_matrix

pytestmark = pytest.mark.bench_smoke


class TestBenchSmoke:
    def test_loadbalancer_ablation_smoke(self):
        fractions = run_loadbalancer_ablation(requests=60, backends=2)
        assert set(fractions) == {"rr", "wrr", "lprf"}


class TestRoutingCounts:
    REQUESTS = 400

    @pytest.fixture(scope="class")
    def layouts(self):
        return run_routing_ablation(requests=self.REQUESTS, slow_latency_ms=3.0)[
            "layouts"
        ]

    def test_cost_routing_avoids_the_slow_backend(self, layouts):
        # the lprf policy sees equal queue depths and keeps feeding the slow
        # backend; the cost model avoids it except for exploration probes
        skewed = layouts["skewed"]
        assert skewed["policy"]["slow_read_fraction"] >= 0.3
        assert skewed["cost"]["slow_read_fraction"] < 0.15

    def test_uniform_layout_serves_every_read_on_an_enabled_backend(self, layouts):
        for mode in ("policy", "cost"):
            assert layouts["uniform"][mode]["reads"] == self.REQUESTS
            assert layouts["uniform"][mode]["reads_on_disabled"] == 0

    def test_skewed_layout_serves_every_read_despite_the_slow_backend(self, layouts):
        # the slow backend is delayed, not failed: both modes still complete
        # every read, and none lands on a disabled backend
        for mode in ("policy", "cost"):
            assert layouts["skewed"][mode]["reads"] == self.REQUESTS
            assert layouts["skewed"][mode]["reads_on_disabled"] == 0


class TestSchedulerCounts:
    @pytest.fixture(scope="class")
    def cells(self):
        return run_scheduler_ablation(duration=0.15)["cells"]

    def test_every_cell_runs_without_errors(self, cells):
        assert set(cells) == {"r3w1_uniform", "r3w1_hot", "r2w2_uniform", "r2w2_hot"}
        for per_scheduler in cells.values():
            assert len(per_scheduler) == 5
            for cell in per_scheduler.values():
                assert cell["operations"] > 0
                assert cell["errors"] == 0

    def test_pessimistic_readers_block_behind_writes(self, cells):
        for per_scheduler in cells.values():
            assert per_scheduler["pessimistic"]["read_wait"]["count"] >= 1

    def test_non_blocking_schedulers_do_not_block_readers(self, cells):
        # the wait counter's 1 ms threshold can catch one GIL hand-off, so
        # the bound is one recorded wait per cell, not zero
        for per_scheduler in cells.values():
            for scheduler in ("passthrough", "optimistic", "mvcc"):
                assert per_scheduler[scheduler]["read_wait"]["count"] <= 1

    def test_subset_run_reports_only_the_requested_cells(self):
        results = run_scheduler_ablation(
            schedulers=("pessimistic", "mvcc"),
            mixes=((2, 2),),
            skews=("hot",),
            duration=0.15,
        )
        assert set(results["cells"]) == {"r2w2_hot"}
        assert set(results["cells"]["r2w2_hot"]) == {"pessimistic", "mvcc"}
        assert results["config"]["schedulers"] == ["pessimistic", "mvcc"]
        assert json.loads(json.dumps(results)) == results


class TestIsolationSmoke:
    def test_scheduler_isolation_mix_scenario(self):
        """Every ordered scheduler survives the random mix converged."""
        result = run_chaos_scenario("scheduler_isolation_mix", seed=7, scale=0.3)
        assert result.violations == []
        assert result.details["mvcc"]["operations"] > 0
        assert "diverged_tables" in result.details["passthrough"]

    def test_isolation_matrix_smoke(self):
        """The acceptance pair of the matrix holds at reduced scale."""
        matrix = run_isolation_matrix(["passthrough", "pessimistic"], scale=0.4)
        lost_update = {
            name: cells["lost_update"]["status"]
            for name, cells in matrix["schedulers"].items()
        }
        assert lost_update == {"passthrough": "observed", "pessimistic": "prevented"}
