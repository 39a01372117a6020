"""The engine's pending-event count is a live counter, not a queue scan.

These tests pin the counter's bookkeeping across every path an event can
take out of the queue: running, cancellation before running, cancellation
*after* running (must not double-decrement), and periodic reschedules.
"""

from __future__ import annotations

from repro.sim.engine import Engine


def test_schedule_and_run_balance():
    engine = Engine()
    for i in range(5):
        engine.schedule_at(float(i), lambda: None)
    assert engine._pending == 5
    engine.run_until(4.0)
    assert engine._pending == 0


def test_cancel_decrements_once():
    engine = Engine()
    event = engine.schedule_at(1.0, lambda: None)
    assert engine._pending == 1
    event.cancel()
    assert engine._pending == 0
    event.cancel()  # idempotent
    assert engine._pending == 0
    engine.run_until(1.0)
    assert engine._pending == 0


def test_cancel_after_run_does_not_double_decrement():
    engine = Engine()
    event = engine.schedule_at(1.0, lambda: None)
    other = engine.schedule_at(2.0, lambda: None)
    engine.run_until(1.5)
    assert engine._pending == 1  # only `other` remains
    event.cancel()  # already departed; must be a no-op for the counter
    assert engine._pending == 1
    other.cancel()
    assert engine._pending == 0


def test_schedule_every_keeps_one_pending():
    engine = Engine()
    fired = []
    root = engine.schedule_every(1.0, lambda: fired.append(engine.clock.now))
    for horizon in (1.0, 2.0, 3.0):
        engine.run_until(horizon)
        assert engine._pending == 1  # the next firing is always queued
    root.cancel()
    # The next firing is already queued; it runs as a no-op (the series
    # checks the root's cancelled flag) and only then leaves the count.
    assert engine._pending == 1
    engine.run_until(10.0)
    assert engine._pending == 0
    assert fired == [1.0, 2.0, 3.0]


def test_pending_matches_queue_truth_under_mixed_ops():
    engine = Engine()
    live = [engine.schedule_at(float(i), lambda: None) for i in range(10)]
    for event in live[::2]:
        event.cancel()
    assert engine._pending == 5
    ran = engine.run_until(4.0)  # times 1.0 and 3.0 survive the cancels
    assert ran == 2
    assert engine._pending == 3
    engine.run_until(9.0)
    assert engine._pending == 0
