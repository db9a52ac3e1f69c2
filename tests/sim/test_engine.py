"""Tests for the discrete-event engine and the serially-reusable resource."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim import Resource, Simulator


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_at(5.0, lambda: order.append("late"))
        sim.schedule_at(1.0, lambda: order.append("early"))
        sim.schedule_at(3.0, lambda: order.append("middle"))
        sim.run()
        assert order == ["early", "middle", "late"]
        assert sim.now == 5.0

    def test_simultaneous_events_fifo(self):
        sim = Simulator()
        order = []
        for tag in ("first", "second", "third"):
            sim.schedule_at(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["first", "second", "third"]

    def test_schedule_after(self):
        sim = Simulator()
        times = []
        sim.schedule_after(2.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [2.0]

    def test_cascading_events(self):
        sim = Simulator()
        hits = []

        def step(n):
            hits.append((sim.now, n))
            if n < 3:
                sim.schedule_after(1.0, lambda: step(n + 1))

        sim.schedule_at(0.0, lambda: step(0))
        sim.run()
        assert hits == [(0.0, 0), (1.0, 1), (2.0, 2), (3.0, 3)]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(1.0, lambda: fired.append(1))
        sim.schedule_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending == 1

    def test_run_until_reads_the_head_events_time(self):
        # The heap holds (time, sequence, callback) tuples: ``until`` is
        # compared with the time of the event at the head, inclusively,
        # and the clock lands on the head's time when that event fires.
        sim = Simulator()
        fired = []
        for when in (7.0, 3.0, 3.0, 9.0):
            sim.schedule_at(when, lambda w=when: fired.append((w, sim.now)))
        assert sim.run(until=3.0) == 3.0
        assert fired == [(3.0, 3.0), (3.0, 3.0)]
        assert sim.run(until=7.0) == 7.0
        assert fired[-1] == (7.0, 7.0)
        assert sim.pending == 1
        assert sim.run(until=8.5) == 8.5
        assert sim.pending == 1
        assert sim.run() == 9.0
        assert fired[-1] == (9.0, 9.0)
        assert sim.events_processed == 4

    def test_past_scheduling_rejected(self):
        sim = Simulator()
        sim.schedule_at(5.0, lambda: sim.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError, match="past"):
            sim.run()

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule_after(-1.0, lambda: None)

    def test_runaway_guard(self):
        sim = Simulator()

        def forever():
            sim.schedule_after(0.1, forever)

        sim.schedule_at(0.0, forever)
        with pytest.raises(SimulationError, match="runaway"):
            sim.run(max_events=100)

    def test_step_and_counters(self):
        sim = Simulator()
        sim.schedule_at(1.0, lambda: None)
        assert sim.step()
        assert not sim.step()
        assert sim.events_processed == 1


class TestResource:
    def test_serial_reservation(self):
        cpu = Resource("cpu")
        s1, e1 = cpu.reserve(0.0, 10.0)
        s2, e2 = cpu.reserve(5.0, 10.0)  # wants 5, must wait until 10
        assert (s1, e1) == (0.0, 10.0)
        assert (s2, e2) == (10.0, 20.0)
        assert cpu.busy_ms == 20.0

    def test_idle_gap(self):
        cpu = Resource("cpu")
        cpu.reserve(0.0, 5.0)
        start, end = cpu.reserve(100.0, 5.0)
        assert (start, end) == (100.0, 105.0)
        assert cpu.intervals == [(0.0, 5.0), (100.0, 105.0)]

    def test_negative_duration_rejected(self):
        with pytest.raises(SimulationError):
            Resource("cpu").reserve(0.0, -1.0)
