"""Detailed tests for the simulated controller: routing and early response."""

import pytest

from repro.simulation import ClusterSimulation, SimulationConfig, Simulator
from repro.simulation.cluster import SimulatedController, tpcw_partial_placement
from repro.planner.costmodel import CostModel
from repro.workloads.profile import StatementClass, StatementProfile
from repro.workloads.tpcw import BROWSING_MIX, INTERACTIONS


def make_controller(backends=3, replication="full", placement=None,
                    early_response=True, cost_model=None):
    config = SimulationConfig(
        interactions=INTERACTIONS,
        mix=BROWSING_MIX,
        backends=backends,
        replication=replication,
        table_placement=placement or {},
        early_response=early_response,
        cost_model=cost_model or CostModel(),
    )
    simulator = Simulator()
    return simulator, SimulatedController(simulator, config)


def read(tables=("item",), statement_class=StatementClass.READ_SIMPLE):
    return StatementProfile(statement_class, tuple(tables))


def write(tables=("item",), statement_class=StatementClass.WRITE_SIMPLE):
    return StatementProfile(statement_class, tuple(tables))


class TestRouting:
    def test_read_goes_to_exactly_one_backend(self):
        simulator, controller = make_controller()
        done = []
        controller.execute_statement(read(), lambda: done.append(True))
        simulator.run()
        assert done == [True]
        executed = [backend.server.jobs_completed for backend in controller.backends]
        assert sum(executed) == 1

    def test_read_prefers_least_loaded_backend(self):
        simulator, controller = make_controller(backends=2)
        # load backend0 with a long job
        controller.backends[0].server.submit(100.0, None)
        controller.execute_statement(read(), lambda: None)
        assert controller.backends[1].server.jobs_submitted == 1

    def test_write_broadcast_to_all_backends_full_replication(self):
        simulator, controller = make_controller(backends=3)
        controller.execute_statement(write(), lambda: None)
        simulator.run()
        assert all(backend.server.jobs_completed == 1 for backend in controller.backends)

    def test_partial_replication_restricts_writes(self):
        placement = {"orders": {0, 1}}
        simulator, controller = make_controller(backends=4, replication="partial", placement=placement)
        controller.execute_statement(write(tables=("orders",)), lambda: None)
        simulator.run()
        executed = [backend.server.jobs_completed for backend in controller.backends]
        assert executed == [1, 1, 0, 0]

    def test_partial_replication_reads_from_hosting_backends_only(self):
        placement = {"orders": {2, 3}}
        simulator, controller = make_controller(backends=4, replication="partial", placement=placement)
        for _ in range(6):
            controller.execute_statement(read(tables=("orders",)), lambda: None)
        simulator.run()
        executed = [backend.server.jobs_completed for backend in controller.backends]
        assert executed[0] == executed[1] == 0
        assert executed[2] + executed[3] == 6

    def test_bestseller_temp_table_work_on_every_order_line_replica(self):
        simulator, controller = make_controller(backends=3)
        controller.execute_statement(
            read(tables=("order_line", "item"), statement_class=StatementClass.READ_BESTSELLER),
            lambda: None,
        )
        simulator.run()
        # every backend executed something (the temp table), one of them also the select
        assert all(backend.server.jobs_completed == 1 for backend in controller.backends)
        busy = [backend.server.busy_time for backend in controller.backends]
        assert max(busy) > min(busy)  # the chosen backend also ran the select

    def test_bestseller_confined_by_partial_placement(self):
        placement = tpcw_partial_placement(4)
        simulator, controller = make_controller(backends=4, replication="partial", placement=placement)
        controller.execute_statement(
            read(tables=("order_line", "item"), statement_class=StatementClass.READ_BESTSELLER),
            lambda: None,
        )
        simulator.run()
        executed = [backend.server.jobs_completed for backend in controller.backends]
        assert executed[2] == executed[3] == 0


class TestEarlyResponse:
    def test_early_response_completes_after_first_backend(self):
        simulator, controller = make_controller(backends=3, early_response=True)
        completion_times = []
        controller.execute_statement(write(), lambda: completion_times.append(simulator.now))
        simulator.run()
        model = controller.cost_model
        assert completion_times[0] == pytest.approx(model.write_simple)
        # all backends still executed the write
        assert all(backend.server.jobs_completed == 1 for backend in controller.backends)

    def test_wait_all_completes_after_slowest_backend(self):
        simulator, controller = make_controller(backends=3, early_response=False)
        # make backend2 busy (both CPUs) so the broadcast finishes later there
        controller.backends[2].server.submit(1.0, None)
        controller.backends[2].server.submit(1.0, None)
        completion_times = []
        controller.execute_statement(write(), lambda: completion_times.append(simulator.now))
        simulator.run()
        assert completion_times[0] >= 1.0


class TestEndToEndShapes:
    def test_single_equals_full_with_one_backend(self):
        shared = dict(
            interactions=INTERACTIONS, mix=BROWSING_MIX, backends=1, clients=40,
            warmup=20, measurement=80,
        )
        single = ClusterSimulation(SimulationConfig(replication="single", **shared)).run()
        full = ClusterSimulation(SimulationConfig(replication="full", **shared)).run()
        assert single.sql_requests_per_minute == pytest.approx(
            full.sql_requests_per_minute, rel=0.05
        )

    def test_saturated_backend_reports_full_utilization(self):
        result = ClusterSimulation(
            SimulationConfig(
                interactions=INTERACTIONS, mix=BROWSING_MIX, backends=1, clients=200,
                warmup=30, measurement=120,
            )
        ).run()
        assert result.backend_cpu_utilization > 0.95
