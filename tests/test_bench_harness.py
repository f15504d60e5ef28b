"""Tests for the benchmark harness (fast, reduced-size configurations)."""

import pytest

from repro.bench import (
    format_scalability_table,
    run_loadbalancer_ablation,
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


class TestLoadBalancerAblation:
    def test_loadbalancer_ablation_prefers_fast_backends(self):
        fractions = run_loadbalancer_ablation(requests=600, backends=3)
        assert set(fractions) == {"rr", "wrr", "lprf"}
        # plain round robin sends ~1/3 of the reads to the low-weight backend;
        # weighted round robin sends it less than its fair share
        assert fractions["rr"] == pytest.approx(1 / 3, abs=0.05)
        assert fractions["wrr"] < fractions["rr"]
