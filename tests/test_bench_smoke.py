"""Tier-1 smoke runs of every benchmark harness entry point.

Each test runs one ``repro.bench`` driver at tiny iteration counts so the
benchmarks cannot bit-rot between the full runs (marker: ``bench_smoke``;
select them with ``pytest -m bench_smoke``).  Each ablation's claim is
asserted here, once, on the live run: as an exact count from a counter the
code already keeps, or as a comparison between two measurements of the same
run with a wide margin — never against a committed number.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    format_hotpath_report,
    run_chaos_scenario,
    run_hotpath_microbenchmark,
    run_loadbalancer_ablation,
    run_optimization_ablation,
    run_overhead_microbenchmark,
    run_routing_ablation,
    run_rubis_cache_experiment,
    run_scheduler_ablation,
    run_tpcw_scalability,
    write_bench_json,
)
from repro.bench.harness import _PARSE_WORKLOAD
from repro.isolation import run_isolation_matrix

pytestmark = pytest.mark.bench_smoke


class TestBenchSmoke:
    def test_tpcw_scalability_smoke(self):
        series = run_tpcw_scalability(
            "ordering", backend_counts=[1, 2], clients_per_backend=20,
            warmup=5, measurement=20,
        )
        assert set(series) == {"single", "full", "partial"}
        assert all(result.sql_requests_per_minute > 0 for result in series["full"])

    def test_rubis_cache_smoke(self):
        results = run_rubis_cache_experiment(clients=30, warmup=5, measurement=20)
        assert set(results) == {"none", "coherent", "relaxed"}

    def test_optimization_ablation_smoke(self):
        results = run_optimization_ablation(backends=2, clients=40, warmup=5, measurement=20)
        assert set(results) == {"early_response", "wait_all"}

    def test_loadbalancer_ablation_smoke(self):
        fractions = run_loadbalancer_ablation(requests=60, backends=2)
        assert set(fractions) == {"rr", "wrr", "lprf"}

    def test_overhead_smoke(self):
        result = run_overhead_microbenchmark(statements=50)
        assert result.middleware_seconds > 0


class TestHotpathCounts:
    BATCH_SIZE = 100
    BATCH_COUNT = 2

    @pytest.fixture(scope="class")
    def results(self):
        results = run_hotpath_microbenchmark(
            parse_statements=200,
            read_statements=100,
            write_statements=30,
            backend_counts=(1, 2),
            # a 16x cache growth keeps the index-vs-scan margin wide
            invalidate_cache_sizes=(250, 4000),
            invalidate_tables=50,
            invalidate_writes=50,
            batch_size=self.BATCH_SIZE,
            batch_count=self.BATCH_COUNT,
        )
        print(format_hotpath_report(results))
        return results

    def test_every_scenario_runs(self, results):
        assert set(results["scenarios"]) == {
            "parse_cache_on",
            "parse_cache_off",
            "cached_read_1_backends",
            "cached_read_2_backends",
            "write_invalidate_1_backends",
            "write_invalidate_2_backends",
            "batch_insert_looped",
            "batch_insert_server",
        }
        assert all(s["ops_per_second"] > 0 for s in results["scenarios"].values())
        report = format_hotpath_report(results)
        assert "parsing cache speedup" in report
        assert "server-side batching speedup" in report
        assert "write-invalidate cost vs cache size" in report

    def test_parse_cache_misses_once_per_statement_shape(self, results):
        assert results["ablations"]["parse_cache_misses"] == len(_PARSE_WORKLOAD)

    def test_server_batch_is_one_batch_per_backend(self, results):
        backends = results["ablations"]["batch_speedup"]["backends"]
        for counters in backends["batch_insert_server"].values():
            assert counters == {
                "total_batches": self.BATCH_COUNT,
                "total_batched_statements": self.BATCH_COUNT * self.BATCH_SIZE,
            }
        for counters in backends["batch_insert_looped"].values():
            assert counters["total_batches"] == 0
        assert len(backends["batch_insert_server"]) == 2

    def test_invalidation_index_stays_flat_while_scan_grows(self, results):
        index = results["ablations"]["invalidate_index_vs_scan"]
        assert (
            index["indexed_slowdown_largest_vs_smallest"]
            < index["full_scan_slowdown_largest_vs_smallest"] / 2
        )


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

    def test_subset_run_reports_only_the_requested_cells(self, tmp_path):
        results = run_scheduler_ablation(
            schedulers=("pessimistic", "mvcc"),
            mixes=((2, 2),),
            skews=("hot",),
            duration=0.15,
        )
        assert set(results["cells"]) == {"r2w2_hot"}
        assert set(results["cells"]["r2w2_hot"]) == {"pessimistic", "mvcc"}
        assert results["config"]["schedulers"] == ["pessimistic", "mvcc"]
        path = write_bench_json(results, tmp_path / "scheduler.json")
        assert json.loads(path.read_text()) == results


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
