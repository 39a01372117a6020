"""The engine's traced ``pending`` detail is its queue depth after a firing.

Every timer keeps exactly one firing queued, so the detail reads the
number of live timers on every firing, and the queue-depth monitor
bounds it online.
"""

from __future__ import annotations

from repro.obs import Tracer, runtime
from repro.sim.engine import Engine


def _pending(tracer):
    return [r[6]["pending"] for r in tracer.records if r[1:3] == ("engine", "event")]


def test_schedule_and_run_balance():
    with runtime.tracing(Tracer()) as tracer:
        engine = Engine()
    for i in range(5):
        engine.schedule_every(float(i + 1), lambda: None, name=f"t{i}")
    assert engine.run_until(5.0) == 5 + 2 + 1 + 1 + 1
    assert set(_pending(tracer)) == {5}


def test_schedule_every_keeps_one_pending():
    with runtime.tracing(Tracer()) as tracer:
        engine = Engine()
    engine.schedule_every(1.0, lambda: None, name="tick")
    for step in range(1, 4):
        engine.run_until(float(step))
    assert _pending(tracer) == [1, 1, 1]
