"""Tests for the discrete-event simulator core."""

import pytest

from repro.simulation import Simulator


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
