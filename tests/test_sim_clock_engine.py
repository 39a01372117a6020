"""Unit tests for the simulation clock and discrete-event engine."""

import pytest

from repro.sim import Engine, SimClock


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        assert clock.advance(1.5) == 1.5
        assert clock.advance(0.5) == 2.0

    def test_advance_negative_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0


class TestEngine:
    def test_schedule_and_run(self):
        engine = Engine()
        fired = []
        engine.schedule_every(1.0, lambda: fired.append(engine.clock.now), name="t")
        engine.run_until(2.0)
        assert fired == [1.0, 2.0]
        assert engine.clock.now == 2.0

    def test_run_until_only_due_events(self):
        engine = Engine()
        fired = []
        engine.schedule_every(1.0, lambda: fired.append("a"), name="a")
        engine.schedule_every(5.0, lambda: fired.append("b"), name="b")
        ran = engine.run_until(2.0)
        assert ran == 2
        assert fired == ["a", "a"]
        assert engine.clock.now == 2.0
        assert engine.events_run == 2

    def test_same_time_events_fifo(self):
        engine = Engine()
        fired = []
        for label in ("first", "second", "third"):
            engine.schedule_every(1.0, lambda lbl=label: fired.append(lbl), name=label)
        engine.run_until(2.0)
        assert fired == ["first", "second", "third"] * 2

    def test_negative_delay_rejected(self):
        # The first firing is one interval out: a zero or negative
        # interval would fire now or in the past, forever.
        engine = Engine()
        for interval in (0.0, -1.0):
            with pytest.raises(ValueError):
                engine.schedule_every(interval, lambda: None, name="t")

    def test_repeating_timer(self):
        engine = Engine()
        fired = []
        engine.schedule_every(1.0, lambda: fired.append(engine.clock.now), name="t")
        engine.run_until(3.5)
        assert fired == [1.0, 2.0, 3.0]
        engine.run_until(6.0)
        assert fired == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_reschedules_from_the_end_of_its_action(self):
        # An action that takes simulated time pushes the series back.
        engine = Engine()
        fired = []

        def slow():
            fired.append(engine.clock.now)
            engine.clock.advance(0.5)

        engine.schedule_every(1.0, slow, name="slow")
        engine.run_until(4.0)
        assert fired == [1.0, 2.5, 4.0]

    def test_event_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def spawn():
            if not fired:
                engine.schedule_every(
                    0.5, lambda: fired.append(engine.clock.now), name="child"
                )

        engine.schedule_every(1.0, spawn, name="parent")
        engine.run_until(2.0)
        assert fired == [1.5, 2.0]
