"""Unit tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.errors import ClockError, SimulationError
from repro.obs.live import TelemetryRecorder
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, lambda: fired.append("late"))
        sim.schedule(1.0, lambda: fired.append("early"))
        sim.run()
        assert fired == ["early", "late"]

    def test_same_time_events_fire_in_insertion_order(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        sim.schedule(3.5, lambda: None)
        sim.run()
        assert sim.now == pytest.approx(3.5)

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ClockError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ClockError):
            sim.schedule_at(0.5, lambda: None)

    def test_nested_scheduling_from_callback(self, sim):
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == pytest.approx(2.0)

    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        sim.run()

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestRunUntil:
    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        assert fired == ["a"]
        assert sim.now == pytest.approx(2.0)

    def test_run_until_advances_clock_even_when_idle(self, sim):
        sim.run(until=10.0)
        assert sim.now == pytest.approx(10.0)

    def test_later_events_fire_on_subsequent_run(self, sim):
        fired = []
        sim.schedule(5.0, lambda: fired.append("b"))
        sim.run(until=2.0)
        sim.run(until=6.0)
        assert fired == ["b"]

    def test_runaway_schedule_guard(self, sim):
        def runaway(sim):
            def loop():
                sim.schedule(0.0, loop)

            sim.schedule(0.0, loop)
            with pytest.raises(SimulationError):
                sim.run(max_events=100)
            return sim.events_processed

        assert runaway(sim) == 101
        # An attached recorder moves the guard by no event, whether its
        # cadence marks fall before, on or after the limit.
        for cadence in (1, 7, 100, 101, 500):
            watched = Simulator(seed=sim.seed)
            TelemetryRecorder(cadence_events=cadence, include_metrics=False).attach(
                watched
            )
            assert runaway(watched) == 101

    def test_step_returns_false_when_idle(self, sim):
        assert sim.step() is False

    def test_pending_counts_live_events(self, sim):
        e1 = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        e1.cancel()
        assert sim.pending() == 1


class TestPeriodic:
    def test_call_every_fires_repeatedly(self, sim):
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run(until=5.5)
        assert len(fired) == 5
        assert fired[0] == pytest.approx(1.0)

    def test_call_every_cancel_stops_firing(self, sim):
        fired = []
        cancel = sim.call_every(1.0, lambda: fired.append(sim.now))
        sim.run(until=2.5)
        cancel()
        sim.run(until=10.0)
        assert len(fired) == 2

    def test_call_every_with_jitter(self, sim):
        fired = []
        sim.call_every(1.0, lambda: fired.append(sim.now), jitter=lambda: 0.25)
        sim.run(until=5.0)
        assert fired[0] == pytest.approx(1.0)  # first firing is unjittered
        assert fired[1] == pytest.approx(2.25)

    def test_call_every_rejects_nonpositive_interval(self, sim):
        with pytest.raises(SimulationError):
            sim.call_every(0.0, lambda: None)

    def test_cancel_during_callback(self, sim):
        fired = []
        holder = {}

        def tick():
            fired.append(sim.now)
            if len(fired) == 3:
                holder["cancel"]()

        holder["cancel"] = sim.call_every(1.0, tick)
        sim.run(until=20.0)
        assert len(fired) == 3


class TestDeterminism:
    def test_same_seed_same_rng_streams(self):
        a = Simulator(seed=5).rng_stream("x")
        b = Simulator(seed=5).rng_stream("x")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_stream_names_are_independent(self):
        sim = Simulator(seed=5)
        a = sim.rng_stream("x")
        b = sim.rng_stream("y")
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = Simulator(seed=1).rng_stream("x")
        b = Simulator(seed=2).rng_stream("x")
        assert a.random() != b.random()

    def test_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()
