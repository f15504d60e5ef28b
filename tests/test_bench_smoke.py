"""Tier-1 smoke runs of every benchmark harness entry point.

Each test runs one ``repro.bench`` driver at tiny iteration counts so the
benchmarks cannot bit-rot between the full runs (marker: ``bench_smoke``;
select them with ``pytest -m bench_smoke``).  The hot-path baseline gate is
exercised both against the committed ``BENCH_hotpath.json`` (structure) and
against synthetic data (regression detection).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import (
    ROUTING_BENCH_VERSION,
    SCHEDULER_BENCH_VERSION,
    check_hotpath_baseline,
    check_routing_baseline,
    check_scheduler_baseline,
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
from repro.isolation import run_isolation_matrix

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_hotpath.json"
ROUTING_BASELINE_PATH = REPO_ROOT / "BENCH_routing.json"
SCHEDULER_BASELINE_PATH = REPO_ROOT / "BENCH_scheduler.json"

pytestmark = pytest.mark.bench_smoke


def tiny_hotpath_run() -> dict:
    return run_hotpath_microbenchmark(
        parse_statements=200,
        read_statements=100,
        write_statements=30,
        backend_counts=(1, 2),
        invalidate_cache_sizes=(20, 80),
        invalidate_tables=5,
        invalidate_writes=10,
        # keep the 100-row batch shape; run only a couple of batches
        batch_count=2,
    )


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

    def test_hotpath_smoke_and_report(self):
        results = tiny_hotpath_run()
        scenarios = results["scenarios"]
        assert {"parse_cache_on", "parse_cache_off"} <= set(scenarios)
        assert "cached_read_1_backends" in scenarios
        assert "write_invalidate_2_backends" in scenarios
        assert {"cached_read_pipeline", "cached_read_inline"} <= set(scenarios)
        assert {"batch_insert_looped", "batch_insert_server"} <= set(scenarios)
        assert all(s["ops_per_second"] > 0 for s in scenarios.values())
        overhead = results["ablations"]["pipeline_overhead"]
        assert overhead["pipeline_ops_per_second"] > 0
        assert overhead["inline_ops_per_second"] > 0
        assert "overhead_pct" in overhead
        batch = results["ablations"]["batch_speedup"]
        assert batch["batch_size"] == 100
        assert batch["server_rows_per_second"] > 0
        report = format_hotpath_report(results)
        assert "parsing cache speedup" in report
        assert "pipeline overhead" in report
        assert "server-side batching speedup" in report
        assert "write-invalidate cost vs cache size" in report


class TestHotpathBaselineGate:
    def test_committed_baseline_matches_harness_scenarios(self):
        """BENCH_hotpath.json must stay structurally in sync with the harness."""
        assert BASELINE_PATH.exists(), "BENCH_hotpath.json baseline not committed"
        baseline = json.loads(BASELINE_PATH.read_text())
        results = tiny_hotpath_run()
        assert baseline["version"] == results["version"]
        # every 1/4/16-backend scenario of the committed baseline must still
        # be producible by the harness defaults
        default_names = {
            "parse_cache_on",
            "parse_cache_off",
            "cached_read_pipeline",
            "cached_read_inline",
            "batch_insert_looped",
            "batch_insert_server",
            *(f"cached_read_{n}_backends" for n in (1, 4, 16)),
            *(f"write_invalidate_{n}_backends" for n in (1, 4, 16)),
        }
        assert set(baseline["scenarios"]) == default_names
        assert baseline["ablations"]["parse_cache_speedup"] >= 3.0
        # server-side batching must amortize the per-statement pipeline cost:
        # >= 3x over looped executemany for 100-row batches on 2 backends
        batch = baseline["ablations"]["batch_speedup"]
        assert batch["batch_size"] == 100
        assert batch["speedup"] >= 3.0
        # the composable pipeline must stay cheap on the hottest request
        # shape: cached reads through the full pipeline keep a bounded cost
        # vs the hand-inlined (pre-pipeline) code path
        overhead = baseline["ablations"]["pipeline_overhead"]
        assert overhead["pipeline_ops_per_second"] > 0
        assert overhead["overhead_pct"] < 40.0
        index = baseline["ablations"]["invalidate_index_vs_scan"]
        # the committed run must show the index keeping invalidation cost
        # sub-linear in cache size while the full scan degrades linearly
        assert (
            index["indexed_slowdown_largest_vs_smallest"]
            < index["full_scan_slowdown_largest_vs_smallest"] / 2
        )

    def test_check_baseline_detects_regressions(self, tmp_path):
        results = tiny_hotpath_run()
        baseline_file = write_bench_json(results, tmp_path / "baseline.json")
        assert check_hotpath_baseline(results, baseline_file) == []
        # a >30% ops/s drop in any scenario must be reported
        regressed = json.loads(json.dumps(results))
        scenario = regressed["scenarios"]["parse_cache_on"]
        scenario["ops_per_second"] = scenario["ops_per_second"] * 0.5
        problems = check_hotpath_baseline(regressed, baseline_file)
        assert len(problems) == 1
        assert "parse_cache_on" in problems[0]
        assert "regressed" in problems[0]

    def test_check_baseline_fails_loudly_on_bad_baseline(self, tmp_path):
        results = tiny_hotpath_run()
        assert check_hotpath_baseline(results, tmp_path / "missing.json") != []
        wrong_version = {"version": -1, "scenarios": {}}
        assert any(
            "version" in problem
            for problem in check_hotpath_baseline(results, wrong_version)
        )
        # a scenario dropped from the harness is a failure, not a silent pass
        baseline = json.loads(json.dumps(results))
        baseline["scenarios"]["ghost_scenario"] = {"ops_per_second": 1000.0}
        problems = check_hotpath_baseline(results, baseline)
        assert any("ghost_scenario" in problem for problem in problems)


class TestRoutingBaselineGate:
    def test_committed_routing_baseline_passes_gates(self):
        """The committed routing ablation must show cost-based routing winning.

        Gate: on the skewed TPC-W partial layout (one slow co-located
        backend) cost-based routing is >= 1.3x faster than the lprf read
        policy, and on the uniform layout it is no slower than 0.9x.
        """
        assert ROUTING_BASELINE_PATH.exists(), "BENCH_routing.json baseline not committed"
        assert check_routing_baseline(ROUTING_BASELINE_PATH) == []
        baseline = json.loads(ROUTING_BASELINE_PATH.read_text())
        assert baseline["version"] == ROUTING_BENCH_VERSION
        skewed = baseline["layouts"]["skewed"]
        # the read policy keeps landing half its reads on the slow backend;
        # the cost model must learn to avoid it (exploration probes only)
        assert skewed["policy"]["slow_read_fraction"] > 0.3
        assert skewed["cost"]["slow_read_fraction"] < 0.15

    def test_routing_ablation_smoke_live(self, tmp_path):
        """A small live run routes around the slow backend (looser gates)."""
        results = run_routing_ablation(requests=400, slow_latency_ms=3.0)
        assert set(results["layouts"]) == {"uniform", "skewed"}
        # looser than the committed gates: tiny run, noisy timings
        skewed = results["layouts"]["skewed"]
        assert skewed["cost_speedup"] >= 1.2
        assert skewed["cost"]["slow_read_fraction"] < skewed["policy"]["slow_read_fraction"]
        assert results["layouts"]["uniform"]["cost_speedup"] >= 0.7
        baseline_file = write_bench_json(results, tmp_path / "routing.json")
        assert check_routing_baseline(
            baseline_file, min_skewed_speedup=1.2, min_uniform_speedup=0.7
        ) == []

    def test_check_routing_baseline_fails_loudly(self, tmp_path):
        assert check_routing_baseline(tmp_path / "missing.json") != []
        assert any(
            "version" in problem
            for problem in check_routing_baseline({"version": -1, "layouts": {}})
        )
        degraded = {
            "version": ROUTING_BENCH_VERSION,
            "layouts": {
                "uniform": {"cost_speedup": 1.0},
                "skewed": {"cost_speedup": 1.1},
            },
        }
        problems = check_routing_baseline(degraded)
        assert any("skewed" in problem and "1.30x gate" in problem for problem in problems)


class TestSchedulerBaselineGate:
    def test_committed_scheduler_baseline_passes_gates(self):
        """The committed contention ablation must show MVCC reads winning.

        Gate: in the contended cell (half the clients writing, hot skew)
        the MVCC scheduler's read throughput is >= 1.3x the pessimistic
        scheduler's, with every cell populated and error-free.
        """
        assert (
            SCHEDULER_BASELINE_PATH.exists()
        ), "BENCH_scheduler.json baseline not committed"
        assert check_scheduler_baseline(SCHEDULER_BASELINE_PATH) == []
        baseline = json.loads(SCHEDULER_BASELINE_PATH.read_text())
        assert baseline["version"] == SCHEDULER_BENCH_VERSION
        assert baseline["contended_read_speedup"] >= 1.3
        cells = baseline["cells"]
        # table-lock granularity: reads collapse only when the writes hit
        # the same hot table the readers are on
        table_lock_uniform = cells["r2w2_uniform"]["table_lock"]["read_ops_per_second"]
        table_lock_hot = cells["r2w2_hot"]["table_lock"]["read_ops_per_second"]
        assert table_lock_uniform > table_lock_hot
        # non-blocking-read schedulers never record a blocked read
        for scheduler in ("passthrough", "optimistic", "mvcc"):
            for cell in (cells["r2w2_hot"], cells["r3w1_hot"]):
                assert cell[scheduler]["read_wait"]["count"] == 0

    def test_scheduler_ablation_smoke_live(self, tmp_path):
        """A tiny live run of the contended cell keeps the gate direction."""
        results = run_scheduler_ablation(
            schedulers=("pessimistic", "mvcc"),
            mixes=((2, 2),),
            skews=("hot",),
            duration=0.15,
        )
        # looser than the committed gate: tiny run, noisy timings
        assert results["contended_read_speedup"] >= 1.0
        baseline_file = write_bench_json(results, tmp_path / "scheduler.json")
        assert (
            check_scheduler_baseline(baseline_file, min_contended_read_speedup=1.0)
            == []
        )

    def test_check_scheduler_baseline_fails_loudly(self, tmp_path):
        assert check_scheduler_baseline(tmp_path / "missing.json") != []
        assert any(
            "version" in problem
            for problem in check_scheduler_baseline({"version": -1, "cells": {}})
        )
        degraded = {
            "version": SCHEDULER_BENCH_VERSION,
            "config": {"schedulers": ["pessimistic", "mvcc"]},
            "cells": {
                "r2w2_hot": {
                    "pessimistic": {"operations": 10, "errors": 0},
                    "mvcc": {"operations": 10, "errors": 2},
                }
            },
            "contended_read_speedup": 1.1,
        }
        problems = check_scheduler_baseline(degraded)
        assert any("1.30x gate" in problem for problem in problems)
        assert any("client errors" in problem for problem in problems)
        incomplete = {
            "version": SCHEDULER_BENCH_VERSION,
            "config": {"schedulers": ["pessimistic", "mvcc"]},
            "cells": {"r2w2_hot": {"mvcc": {"operations": 10, "errors": 0}}},
        }
        problems = check_scheduler_baseline(incomplete)
        assert any("missing scheduler" in problem for problem in problems)
        assert any("contended_read_speedup" in problem for problem in problems)


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
