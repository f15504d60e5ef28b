"""Tier-1 runs of the chaos scenario harness.

The cheapest scenarios (including the controller-crash pair, at reduced
scale) are additionally marked ``bench_smoke`` so the CI perf-gate job
replays them on every PR.
"""

import pytest

from repro.bench import (
    CHAOS_SCENARIOS,
    CHAOS_SMOKE_SCENARIOS,
    format_chaos_report,
    run_chaos_scenario,
    run_chaos_suite,
)
from repro.bench.chaos import digest_mismatches, table_digests
from repro.cluster import load_descriptor
from repro.cluster.fixture import boot, check_acked, descriptor, seed_kv
from repro.errors import CJDBCError
from repro.sql import DatabaseEngine


class TestChaosSmoke:
    """Tiny seeded failover scenarios, replayed on every PR."""

    pytestmark = pytest.mark.bench_smoke

    @pytest.mark.parametrize("name", CHAOS_SMOKE_SCENARIOS)
    def test_smoke_scenario_passes(self, name):
        result = run_chaos_scenario(name, seed=7, scale=0.3)
        assert result.ok, result.violations


class TestChaosSuite:
    def test_full_suite_passes_at_reduced_scale(self):
        results = run_chaos_suite(seed=7, scale=0.5)
        assert len(results) == len(CHAOS_SCENARIOS) >= 6
        failures = [result for result in results if not result.ok]
        assert not failures, [
            (result.name, result.violations) for result in failures
        ]

    def test_scenarios_report_failover_latency(self):
        result = run_chaos_scenario("crash_mid_transaction", seed=3, scale=0.3)
        assert result.ok, result.violations
        assert result.details["failover_latency_s"] is not None
        assert result.details["failover_latency_s"] >= 0.0

    def test_reintegration_scenario_uses_the_write_barrier(self):
        result = run_chaos_scenario(
            "crash_reintegration_under_writes", seed=5, scale=0.4
        )
        assert result.ok, result.violations
        assert result.details["write_barriers"] >= 1
        assert result.details["resyncs_succeeded"] >= 1

    def test_distributed_scenario_multicasts_failure_events(self):
        result = run_chaos_scenario(
            "distributed_controller_backend_failure", seed=9, scale=0.5
        )
        assert result.ok, result.violations
        assert result.details["peer_failures_seen"] >= 1

    def test_seeds_are_deterministic(self):
        first = run_chaos_scenario("crash_mid_batch", seed=21, scale=0.3)
        second = run_chaos_scenario("crash_mid_batch", seed=21, scale=0.3)
        assert first.ok and second.ok
        assert first.details["replayed"] == second.details["replayed"]

    def test_unknown_scenario_rejected(self):
        with pytest.raises(CJDBCError, match="unknown chaos scenario"):
            run_chaos_scenario("meteor_strike")

    def test_report_formatting(self):
        results = run_chaos_suite(["crash_mid_transaction"], seed=7, scale=0.3)
        report = format_chaos_report(results)
        assert "chaos scenario suite" in report
        assert "crash_mid_transaction" in report
        assert "failover latency" in report
        assert "1/1 scenarios passed" in report


class TestDigests:
    def test_table_digests_are_order_independent(self):
        left = DatabaseEngine("digest-left")
        right = DatabaseEngine("digest-right")
        for engine in (left, right):
            engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        for key in (1, 2, 3):
            left.execute("INSERT INTO t VALUES (?, ?)", (key, f"v{key}"))
        for key in (3, 1, 2):
            right.execute("INSERT INTO t VALUES (?, ?)", (key, f"v{key}"))
        assert table_digests(left) == table_digests(right)
        assert digest_mismatches({"l": left, "r": right}) == []

    def test_digest_mismatch_is_reported(self):
        left = DatabaseEngine("digest-a")
        right = DatabaseEngine("digest-b")
        for engine in (left, right):
            engine.execute("CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR(10))")
        left.execute("INSERT INTO t VALUES (1, 'only-left')")
        problems = digest_mismatches({"l": left, "r": right})
        assert problems and "t" in problems[0]


class TestClusterFixture:
    """repro.cluster.fixture: the one way the suites stand a cluster up."""

    def test_descriptors_are_uniquely_named_and_valid(self):
        first = descriptor("fx", 2)
        second = descriptor("fx", 1, controllers=3, listen=True, group_name="fx-group")
        assert first["name"] != second["name"]
        spec = load_descriptor(second)
        assert [c.name for c in spec.controllers] == [
            f"{second['name']}-{letter}" for letter in "abc"
        ]
        assert all(c.listen is not None and c.listen.port == 0 for c in spec.controllers)
        assert all(c.virtual_databases == [second["name"]] for c in spec.controllers)
        assert load_descriptor(first).controllers[0].name == first["name"]

    def test_check_acked_names_the_engine_that_lost_a_write(self):
        cluster = boot(descriptor("fx", 2))
        try:
            manager = cluster.virtual_database(cluster.name).request_manager
            acked = seed_kv(manager.execute, 3)
            violations = []
            check_acked(cluster.engines, acked, violations)
            assert violations == []
            cluster.engine("b1").execute("DELETE FROM kv WHERE k = 2")
            check_acked(cluster.engines, acked, violations)
            assert len(violations) == 1
            assert "k=2" in violations[0] and "'b1'" in violations[0]
            assert digest_mismatches(cluster.engines)
        finally:
            cluster.shutdown()


class TestControllerCrashScenarios:
    """The PR-7 pair: sequencer crash failover and live controller rejoin."""

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_crash_failover_deterministic_across_seeds(self, seed):
        result = run_chaos_scenario("controller_crash_failover", seed=seed, scale=0.4)
        assert result.ok, result.violations
        # the client rode the sequencer's death on retries alone
        assert result.details["driver_failovers"] >= 1
        assert result.details["new_sequencer"] != result.details["killed_sequencer"]
        assert len(result.details["survivor_views"]) == 2

    @pytest.mark.parametrize("seed", [7, 11, 13])
    def test_rejoin_converges_via_state_transfer(self, seed):
        result = run_chaos_scenario("controller_rejoin", seed=seed, scale=0.4)
        assert result.ok, result.violations
        assert result.details["state_synced_from"] is not None
        assert sum(result.details["transfers_served"].values()) >= 1


class TestRemoteDisconnectScenario:
    def test_remote_failover_loses_no_acknowledged_write(self):
        result = run_chaos_scenario("remote_disconnect_failover", seed=11, scale=0.5)
        assert result.ok, result.violations
        assert result.details["driver_failovers"] >= 1
        assert result.details["fault_disconnects"] >= 1
        assert result.details["writes_acknowledged"] >= 8

    def test_remote_scenario_is_deterministic(self):
        first = run_chaos_scenario("remote_disconnect_failover", seed=4, scale=0.4)
        second = run_chaos_scenario("remote_disconnect_failover", seed=4, scale=0.4)
        assert first.ok and second.ok
        assert first.details["writes_acknowledged"] == second.details["writes_acknowledged"]
        assert first.details["driver_failovers"] == second.details["driver_failovers"]
