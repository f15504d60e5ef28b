"""Tests for the discrete-event simulator and the cluster performance model."""

import pytest

from repro.simulation import ClusterSimulation, SimulationConfig, Simulator
from repro.simulation.cluster import tpcw_partial_placement
from repro.planner.costmodel import TPCW_COST_MODEL, CostModel, scaled
from repro.simulation.resources import Server
from repro.workloads.profile import StatementClass
from repro.workloads.tpcw import BROWSING_MIX, INTERACTIONS, ORDERING_MIX


class TestSimulatorCore:
    def test_events_run_in_time_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(2.0, lambda: order.append("late"))
        simulator.schedule(1.0, lambda: order.append("early"))
        simulator.run()
        assert order == ["early", "late"]
        assert simulator.now == 2.0

    def test_ties_run_in_scheduling_order(self):
        simulator = Simulator()
        order = []
        simulator.schedule(1.0, lambda: order.append("first"))
        simulator.schedule(1.0, lambda: order.append("second"))
        simulator.run()
        assert order == ["first", "second"]

    def test_run_until_stops_at_boundary(self):
        simulator = Simulator()
        fired = []
        simulator.schedule(5.0, lambda: fired.append(5))
        simulator.schedule(10.0, lambda: fired.append(10))
        simulator.run_until(6.0)
        assert fired == [5]
        assert simulator.pending_events == 1
        assert simulator.now == 6.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1, lambda: None)

    def test_events_can_schedule_more_events(self):
        simulator = Simulator()
        counter = {"n": 0}

        def tick():
            counter["n"] += 1
            if counter["n"] < 5:
                simulator.schedule(1.0, tick)

        simulator.schedule(1.0, tick)
        simulator.run()
        assert counter["n"] == 5


class TestServer:
    def test_fifo_service_and_busy_time(self):
        simulator = Simulator()
        server = Server(simulator, "s", cpus=1)
        done = []
        server.submit(1.0, lambda: done.append("a"))
        server.submit(2.0, lambda: done.append("b"))
        simulator.run()
        assert done == ["a", "b"]
        assert simulator.now == pytest.approx(3.0)
        assert server.busy_time == pytest.approx(3.0)

    def test_parallel_cpus(self):
        simulator = Simulator()
        server = Server(simulator, "s", cpus=2)
        server.submit(1.0)
        server.submit(1.0)
        simulator.run()
        assert simulator.now == pytest.approx(1.0)

    def test_queue_length_counts_waiting_and_running(self):
        simulator = Simulator()
        server = Server(simulator, "s", cpus=1)
        server.submit(1.0)
        server.submit(1.0)
        assert server.queue_length == 2
        simulator.run()
        assert server.queue_length == 0

    def test_utilization(self):
        simulator = Simulator()
        server = Server(simulator, "s", cpus=1)
        server.submit(2.0)
        simulator.run_until(4.0)
        assert server.utilization(4.0) == pytest.approx(0.5)

    def test_speed_scales_service_time(self):
        simulator = Simulator()
        fast = Server(simulator, "fast", cpus=1, speed=2.0)
        fast.submit(1.0)
        simulator.run()
        assert simulator.now == pytest.approx(0.5)


class TestCostModel:
    def test_read_and_write_service_times(self):
        model = CostModel()
        assert model.read_service_time(StatementClass.READ_COMPLEX, 2.0) == pytest.approx(
            model.read_complex * 2
        )
        assert model.write_service_time(StatementClass.WRITE_SIMPLE) == model.write_simple
        with pytest.raises(ValueError):
            model.read_service_time(StatementClass.WRITE_SIMPLE)
        with pytest.raises(ValueError):
            model.write_service_time(StatementClass.READ_SIMPLE)

    def test_scaled_model(self):
        model = CostModel()
        slower = scaled(model, 8.0)
        assert slower.read_simple == pytest.approx(model.read_simple * 8)
        assert slower.controller_per_statement == pytest.approx(
            model.controller_per_statement * 8
        )


def quick_config(**overrides):
    defaults = dict(
        interactions=INTERACTIONS,
        mix=BROWSING_MIX,
        backends=2,
        replication="full",
        clients=60,
        warmup=30,
        measurement=120,
        cost_model=TPCW_COST_MODEL,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


class TestClusterSimulation:
    def test_simulation_is_deterministic(self):
        first = ClusterSimulation(quick_config(seed=3)).run()
        second = ClusterSimulation(quick_config(seed=3)).run()
        assert first.sql_requests_per_minute == second.sql_requests_per_minute
        assert first.avg_response_time_ms == second.avg_response_time_ms

    def test_more_backends_increase_throughput(self):
        small = ClusterSimulation(quick_config(backends=1, clients=120)).run()
        large = ClusterSimulation(quick_config(backends=4, clients=480)).run()
        assert large.sql_requests_per_minute > small.sql_requests_per_minute * 2

    def test_partial_beats_full_replication_on_browsing_mix(self):
        full = ClusterSimulation(quick_config(backends=6, clients=700)).run()
        partial = ClusterSimulation(
            quick_config(
                backends=6,
                clients=700,
                replication="partial",
                table_placement=tpcw_partial_placement(6),
            )
        ).run()
        assert partial.sql_requests_per_minute > full.sql_requests_per_minute

    def test_early_response_improves_write_latency(self):
        fast = ClusterSimulation(
            quick_config(mix=ORDERING_MIX, backends=4, clients=300, early_response=True)
        ).run()
        slow = ClusterSimulation(
            quick_config(mix=ORDERING_MIX, backends=4, clients=300, early_response=False)
        ).run()
        assert fast.avg_response_time_ms <= slow.avg_response_time_ms

    def test_partial_placement_helper(self):
        placement = tpcw_partial_placement(6)
        assert placement["order_line"] == {0, 1}
        assert "item" not in placement
        assert tpcw_partial_placement(1)["orders"] == {0}

    def test_result_as_dict(self):
        result = ClusterSimulation(quick_config(backends=1, clients=50, measurement=60)).run()
        data = result.as_dict()
        assert set(data) >= {
            "configuration",
            "backends",
            "sql_requests_per_minute",
            "avg_response_time_ms",
        }
