"""Tests for the benchmark harness (fast, reduced-size configurations)."""

import pytest

from repro.bench import (
    format_rubis_table,
    format_scalability_table,
    run_loadbalancer_ablation,
    run_rubis_cache_experiment,
    run_tpcw_scalability,
)
from repro.bench.harness import tpcw_speedups


@pytest.fixture(scope="module")
def browsing_series():
    return run_tpcw_scalability(
        "browsing",
        backend_counts=[1, 2, 6],
        clients_per_backend=60,
        warmup=30,
        measurement=180,
    )


class TestTPCWScalabilityHarness:
    def test_series_structure(self, browsing_series):
        assert set(browsing_series) == {"single", "full", "partial"}
        assert len(browsing_series["single"]) == 1
        assert len(browsing_series["full"]) == 3
        assert [r.backends for r in browsing_series["partial"]] == [1, 2, 6]

    def test_shape_full_replication_scales_sublinearly(self, browsing_series):
        speedups = tpcw_speedups(browsing_series)
        assert 3.0 < speedups["full"] < 6.0

    def test_shape_partial_beats_full_on_browsing(self, browsing_series):
        full = browsing_series["full"][-1].sql_requests_per_minute
        partial = browsing_series["partial"][-1].sql_requests_per_minute
        assert partial > full

    def test_report_formatting(self, browsing_series):
        text = format_scalability_table("browsing", browsing_series)
        assert "browsing mix" in text
        assert "paper @6 backends" in text
        assert "measured speedups" in text


class TestRUBiSCacheHarness:
    @pytest.fixture(scope="class")
    def results(self):
        return run_rubis_cache_experiment(clients=200, warmup=30, measurement=180)

    def test_all_three_configurations_present(self, results):
        assert set(results) == {"none", "coherent", "relaxed"}

    def test_shape_matches_paper(self, results):
        none, coherent, relaxed = results["none"], results["coherent"], results["relaxed"]
        # throughput: cache never hurts
        assert coherent.sql_requests_per_minute >= none.sql_requests_per_minute * 0.95
        assert relaxed.sql_requests_per_minute >= coherent.sql_requests_per_minute * 0.95
        # response time improves with caching, dramatically with relaxed consistency
        assert coherent.avg_response_time_ms < none.avg_response_time_ms
        assert relaxed.avg_response_time_ms < coherent.avg_response_time_ms
        # database CPU load drops with the relaxed cache
        assert relaxed.backend_cpu_utilization < none.backend_cpu_utilization
        # the relaxed cache hits much more often than the coherent one
        assert relaxed.cache_hit_ratio > coherent.cache_hit_ratio

    def test_report_formatting(self, results):
        text = format_rubis_table(results)
        assert "Throughput (rq/min)" in text
        assert "C-JDBC CPU load" in text


class TestLoadBalancerAblation:
    def test_loadbalancer_ablation_prefers_fast_backends(self):
        fractions = run_loadbalancer_ablation(requests=600, backends=3)
        assert set(fractions) == {"rr", "wrr", "lprf"}
        # plain round robin sends ~1/3 of the reads to the low-weight backend;
        # weighted round robin sends it less than its fair share
        assert fractions["rr"] == pytest.approx(1 / 3, abs=0.05)
        assert fractions["wrr"] < fractions["rr"]
