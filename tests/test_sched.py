"""Cooperative process scheduler (the kernel request path's core)."""

from __future__ import annotations

import pytest

from repro.sim.engine import Engine
from repro.sim.sched import Process, Scheduler


def _engine():
    return Engine()


class TestSchedulerBasics:
    def test_single_process_runs_to_completion(self):
        engine = _engine()
        sched = Scheduler(engine)
        seen = []

        def proc():
            for t in (1.0, 2.5, 4.0):
                yield t
                seen.append(engine.clock.now)

        sched.spawn(proc(), name="solo")
        sched.run()
        assert seen == [1.0, 2.5, 4.0]
        assert engine.clock.now == 4.0
        snap = sched.snapshot()
        assert snap["steps_run"] == 3
        assert snap["processes"][0]["done"] is True

    def test_empty_generator_is_done_at_spawn(self):
        sched = Scheduler(_engine())

        def empty():
            return
            yield  # pragma: no cover

        proc = sched.spawn(empty(), name="empty")
        assert proc.done
        sched.run()
        assert sched.snapshot()["steps_run"] == 0

    def test_interleaves_in_global_timestamp_order(self):
        engine = _engine()
        sched = Scheduler(engine)
        order = []

        def proc(label, times):
            for t in times:
                yield t
                order.append((label, engine.clock.now))

        sched.spawn(proc("a", [1.0, 3.0]), name="a")
        sched.spawn(proc("b", [2.0, 2.5]), name="b")
        sched.run()
        assert order == [("a", 1.0), ("b", 2.0), ("b", 2.5), ("a", 3.0)]

    def test_ties_break_by_spawn_order(self):
        engine = _engine()
        sched = Scheduler(engine)
        order = []

        def proc(label):
            yield 1.0
            order.append(label)

        sched.spawn(proc("first"), name="p0")
        sched.spawn(proc("second"), name="p1")
        sched.run()
        assert order == ["first", "second"]

    def test_engine_timers_fire_before_each_step(self):
        engine = _engine()
        fired = []
        engine.schedule_every(1.5, lambda: fired.append(engine.clock.now), name="timer")
        sched = Scheduler(engine)

        def proc():
            yield 1.0
            assert fired == []
            yield 2.0
            assert fired == [1.5]

        sched.spawn(proc(), name="p")
        sched.run()
        assert fired == [1.5]

    def test_clock_never_moves_backwards(self):
        engine = _engine()
        sched = Scheduler(engine)
        resumed = []

        def slow():
            yield 1.0
            engine.clock.advance(5.0)  # simulated work past t=2
            yield 2.0  # already in the past when we get back
            resumed.append(engine.clock.now)

        sched.spawn(slow(), name="slow")
        sched.run()
        # Resumed at the current clock, not rewound to t=2.
        assert resumed == [6.0]

    def test_dispatch_delay_accounting(self):
        engine = _engine()
        sched = Scheduler(engine)

        def hog():
            yield 1.0
            engine.clock.advance(10.0)

        def victim():
            yield 2.0  # will actually run at t=11

        sched.spawn(hog(), name="hog")
        proc = sched.spawn(victim(), name="victim")
        sched.run()
        assert proc.dispatch_delay_total == pytest.approx(9.0)
        assert proc.dispatch_delay_max == pytest.approx(9.0)
        snap = sched.snapshot()
        victim_snap = next(
            p for p in snap["processes"] if p["name"] == "victim"
        )
        assert victim_snap["dispatch_delay_total_s"] == pytest.approx(9.0)

    def test_process_exception_propagates_after_marking(self):
        sched = Scheduler(_engine())

        def boom():
            yield 1.0
            raise RuntimeError("boom")

        proc = sched.spawn(boom(), name="boom")
        with pytest.raises(RuntimeError):
            sched.run()
        assert proc.error is not None

