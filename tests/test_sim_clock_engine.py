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
        engine.schedule(1.0, lambda: fired.append(engine.clock.now))
        engine.schedule(2.0, lambda: fired.append(engine.clock.now))
        engine.run_until(2.0)
        assert fired == [1.0, 2.0]
        assert engine.clock.now == 2.0

    def test_run_until_only_due_events(self):
        engine = Engine()
        fired = []
        engine.schedule(1.0, lambda: fired.append("a"))
        engine.schedule(5.0, lambda: fired.append("b"))
        ran = engine.run_until(2.0)
        assert ran == 1
        assert fired == ["a"]
        assert engine.clock.now == 2.0
        assert engine._pending == 1

    def test_same_time_events_fifo(self):
        engine = Engine()
        fired = []
        for label in ("first", "second", "third"):
            engine.schedule(1.0, lambda lbl=label: fired.append(lbl))
        engine.run_until(1.0)
        assert fired == ["first", "second", "third"]

    def test_cancel(self):
        engine = Engine()
        fired = []
        event = engine.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        engine.run_until(1.0)
        assert fired == []

    def test_schedule_in_past_rejected(self):
        engine = Engine()
        engine.clock.advance(5.0)
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        engine = Engine()
        with pytest.raises(ValueError):
            engine.schedule(-1.0, lambda: None)

    def test_repeating_timer(self):
        engine = Engine()
        fired = []
        timer = engine.schedule_every(1.0, lambda: fired.append(engine.clock.now))
        engine.run_until(3.5)
        assert fired == [1.0, 2.0, 3.0]
        timer.cancel()
        engine.run_until(6.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_event_scheduled_during_run(self):
        engine = Engine()
        fired = []

        def chain():
            fired.append(engine.clock.now)
            if len(fired) < 3:
                engine.schedule(1.0, chain)

        engine.schedule(1.0, chain)
        engine.run_until(3.0)
        assert fired == [1.0, 2.0, 3.0]
