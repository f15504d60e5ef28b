"""Tests for the benchmark harness's load-balancing ablation."""

import pytest

from repro.bench import run_loadbalancer_ablation


class TestLoadBalancerAblation:
    def test_loadbalancer_ablation_prefers_fast_backends(self):
        fractions = run_loadbalancer_ablation(requests=600, backends=3)
        assert set(fractions) == {"rr", "wrr", "lprf"}
        # plain round robin sends ~1/3 of the reads to the low-weight backend;
        # weighted round robin sends it less than its fair share
        assert fractions["rr"] == pytest.approx(1 / 3, abs=0.05)
        assert fractions["wrr"] < fractions["rr"]
        assert fractions["wrr"] < 0.25
        # LPRF balances on queue length: close to fair, never overloading one backend
        assert fractions["lprf"] < 0.5
