"""Online invariant monitors: healthy streams stay silent, corrupted
streams raise structured violations, and real runs come up clean."""

import pytest

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.obs import Tracer, runtime
from repro.obs.monitor import (
    MONITORS,
    BufferAgeBoundMonitor,
    BufferConservationMonitor,
    MonitorSet,
    QueueDepthBoundMonitor,
    ReadOnlyTransitionMonitor,
    Violation,
    build_monitors,
)


def _with(monitor, **attrs):
    """``monitor`` with some class constants overridden on the instance."""
    for name, value in attrs.items():
        setattr(monitor, name, value)
    return monitor


def _feed(monitor, events):
    """Push (t, component, op, bytes, latency, outcome, detail) tuples."""
    for event in events:
        monitor.observe(event)
    monitor.finish()
    return monitor


class TestBufferConservation:
    def test_healthy_stream(self):
        m = _feed(BufferConservationMonitor(), [
            (0.0, "machine", "build", 0, 0.0, "ok", None),
            (1.0, "writebuffer", "put", 100, 0.0, "buffered", None),
            (2.0, "writebuffer", "put", 60, 0.0, "overwrite", {"prev": 100}),
            (3.0, "writebuffer", "flush", 60, 0.0, "age", None),
        ])
        assert m.violation_count == 0
        assert m.buffered == 0

    def test_negative_estimate_violates(self):
        m = _feed(BufferConservationMonitor(), [
            (1.0, "writebuffer", "flush", 100, 0.0, "sync", None),
        ])
        assert m.violation_count == 1
        assert "negative" in m.violations[0].message

    def test_power_loss_mismatch_violates(self):
        m = _feed(BufferConservationMonitor(), [
            (1.0, "writebuffer", "put", 100, 0.0, "buffered", None),
            (2.0, "writebuffer", "power_loss", 40, 0.0, "lost", None),
        ])
        assert m.violation_count == 1
        assert m.violations[0].detail == {"reported": 40, "tracked": 100}

    def test_power_loss_exact_ok(self):
        m = _feed(BufferConservationMonitor(), [
            (1.0, "writebuffer", "put", 100, 0.0, "buffered", None),
            (2.0, "writebuffer", "power_loss", 100, 0.0, "lost", None),
        ])
        assert m.violation_count == 0

    def test_machine_reset_clears_state(self):
        m = _feed(BufferConservationMonitor(), [
            (1.0, "writebuffer", "put", 100, 0.0, "buffered", None),
            (2.0, "machine", "build", 0, 0.0, "ok", None),
            (3.0, "writebuffer", "power_loss", 0, 0.0, "lost", None),
        ])
        assert m.violation_count == 0

    def test_writethrough_ignored(self):
        m = _feed(BufferConservationMonitor(), [
            (1.0, "writebuffer", "put", 100, 0.0, "writethrough", None),
        ])
        assert m.buffered == 0

    def test_overwrite_missing_prev_violates(self):
        m = _feed(BufferConservationMonitor(), [
            (1.0, "writebuffer", "put", 100, 0.0, "overwrite", None),
        ])
        assert m.violation_count == 1


class TestBufferAgeBound:
    def test_age_flush_below_limit_violates(self):
        m = _feed(BufferAgeBoundMonitor(), [
            (1.0, "writebuffer", "flush", 10, 0.0, "age",
             {"age_s": 2.0, "limit_s": 30.0}),
        ])
        assert m.violation_count == 1
        assert "below limit" in m.violations[0].message

    def test_overstayed_entry_violates(self):
        m = _feed(_with(BufferAgeBoundMonitor(), slack_s=5.0), [
            (1.0, "writebuffer", "flush", 10, 0.0, "sync",
             {"age_s": 40.0, "limit_s": 30.0}),
        ])
        assert m.violation_count == 1
        assert "stayed dirty" in m.violations[0].message

    def test_healthy_flushes(self):
        m = _feed(_with(BufferAgeBoundMonitor(), slack_s=5.0), [
            (1.0, "writebuffer", "flush", 10, 0.0, "age",
             {"age_s": 31.0, "limit_s": 30.0}),
            (2.0, "writebuffer", "flush", 10, 0.0, "sync",
             {"age_s": 3.0, "limit_s": 30.0}),
            (3.0, "writebuffer", "flush", 10, 0.0, "watermark", None),
        ])
        assert m.violation_count == 0


class TestQueueDepthBound:
    def test_tracks_high_water_and_violates_over_bound(self):
        m = _feed(_with(QueueDepthBoundMonitor(), bound=10), [
            (1.0, "engine", "event", 0, 0.0, "ok", {"pending": 4}),
            (2.0, "engine", "event", 0, 0.0, "ok", {"pending": 11}),
            (3.0, "engine", "event", 0, 0.0, "ok", {"pending": 2}),
        ])
        assert m.max_pending == 11
        assert m.violation_count == 1
        assert m.violations[0].detail["pending"] == 11


class TestReadOnlyTransition:
    def test_single_shot_transition_ok(self):
        m = _feed(ReadOnlyTransitionMonitor(), [
            (1.0, "storage-manager", "read_only", 0, 0.0, "degraded",
             {"reason": "x", "transition": 1}),
        ])
        assert m.violation_count == 0

    def test_double_transition_violates(self):
        m = _feed(ReadOnlyTransitionMonitor(), [
            (1.0, "storage-manager", "read_only", 0, 0.0, "degraded",
             {"reason": "x", "transition": 2}),
        ])
        assert m.violation_count == 1

    def test_write_after_degradation_violates(self):
        m = _feed(ReadOnlyTransitionMonitor(), [
            (1.0, "storage-manager", "read_only", 0, 0.0, "degraded",
             {"reason": "x", "transition": 1}),
            (2.0, "writebuffer", "put", 10, 0.0, "buffered", None),
        ])
        assert m.violation_count == 1
        assert "after read-only" in m.violations[0].message

    def test_reboot_clears_degradation(self):
        m = _feed(ReadOnlyTransitionMonitor(), [
            (1.0, "storage-manager", "read_only", 0, 0.0, "degraded",
             {"reason": "x", "transition": 1}),
            (2.0, "machine", "reboot", 0, 0.0, "ok", None),
            (3.0, "writebuffer", "put", 10, 0.0, "buffered", None),
        ])
        assert m.violation_count == 0


class TestMonitorSet:
    def test_build_monitors_registry(self):
        monitors = build_monitors()
        assert [m.name for m in monitors] == list(MONITORS)

    def test_subscription_sees_every_emit_despite_ring_drops(self):
        tracer = Tracer(capacity=4)
        mset = MonitorSet([QueueDepthBoundMonitor()])
        mset.attach(tracer)
        for i in range(100):
            tracer.emit("engine", "event", float(i), detail={"pending": 1})
        assert tracer.dropped > 0
        assert mset.monitors[0].events_seen == 100
        mset.detach()
        tracer.emit("engine", "event", 100.0, detail={"pending": 1})
        assert mset.monitors[0].events_seen == 100  # detached: no more

    def test_violation_cap_keeps_counting(self):
        m = _with(QueueDepthBoundMonitor(), bound=0)
        m.max_violations = 5
        for i in range(20):
            m.observe((float(i), "engine", "event", 0, 0.0, "ok",
                       {"pending": 1}))
        assert m.violation_count == 20
        assert len(m.violations) == 5

    def test_summary_and_render(self):
        mset = MonitorSet([QueueDepthBoundMonitor()])
        tracer = Tracer()
        mset.attach(tracer)
        tracer.emit("engine", "event", 1.0, detail={"pending": 3})
        summary = mset.summary()
        assert summary["violation_count"] == 0
        assert summary["monitors"]["engine-queue-depth"]["events_seen"] == 1
        assert "monitors ok" in mset.render()
        mset.monitors[0].violate(2.0, "boom", pending=9)
        assert "MONITOR VIOLATIONS: 1" in mset.render()
        assert mset.summary()["violations"][0]["message"] == "boom"

    def test_violations_sorted_by_time(self):
        a, b = QueueDepthBoundMonitor(), BufferConservationMonitor()
        mset = MonitorSet([a, b])
        a.violate(5.0, "late")
        b.violate(1.0, "early")
        times = [v.t for v in mset.violations()]
        assert times == [1.0, 5.0]

    def test_violation_str_and_dict(self):
        v = Violation("m", 1.25, "msg", {"k": 1})
        assert str(v) == "[m] t=1.250000: msg"
        assert v.to_dict() == {"monitor": "m", "t": 1.25, "message": "msg",
                               "detail": {"k": 1}}


class TestIntegration:
    def test_real_runs_are_clean(self):
        """Full monitored runs -- including one that degrades to
        read-only under battery failure -- raise zero violations."""
        tracer = Tracer(capacity=1 << 12)
        mset = MonitorSet(build_monitors())
        mset.attach(tracer)
        with runtime.tracing(tracer):
            machine = MobileComputer(SystemConfig(
                organization=Organization.SOLID_STATE, seed=1,
            ))
            machine.run_workload("office", duration_s=30.0)
            machine.inject_battery_failure()
            machine.reboot_after_power_loss()
            machine.run_workload("office", duration_s=10.0)
        mset.detach()
        mset.finish()
        assert mset.monitors[0].events_seen > 1000
        assert mset.violations() == []

    def test_corrupted_stream_is_caught(self):
        """Tamper with a live stream mid-run: the conservation monitor
        must notice a fabricated flush the buffer never saw."""
        tracer = Tracer()
        mset = MonitorSet([BufferConservationMonitor()])
        mset.attach(tracer)
        with runtime.tracing(tracer):
            machine = MobileComputer(SystemConfig(
                organization=Organization.SOLID_STATE, seed=2,
            ))
            machine.run_workload("office", duration_s=10.0)
            tracer.emit("writebuffer", "flush", machine.clock.now,
                        10 ** 9, outcome="sync")
        mset.detach()
        assert mset.violation_count == 1


#: Every component a real traced run emits (devices under their machine
#: names), so routing is checked on the stream the monitors really see.
STREAM_COMPONENTS = (
    "machine", "writebuffer", "engine", "storage-manager", "dram", "disk",
    "flash-data", "fs-checkpoint", "flash-programs", "flashstore", "vm",
    "faults",
)

_DEVICE_OPS = {
    "dram": ("charge_read", "charge_write"),
    "disk": ("read", "write"),
    "flash-data": ("read", "program", "erase"),
    "fs-checkpoint": ("read", "program", "erase"),
    "flash-programs": ("read", "program"),
    "flashstore": ("write", "gc_copy", "gc_clean", "ecc", "retire"),
    "vm": ("page_fault",),
    "faults": ("power_cut", "bit_flip"),
}


def _writebuffer_event(rng, t, buffered):
    """One healthy write-buffer event; returns it and the new buffered
    byte count."""
    op = rng.choice(("put", "put", "put", "flush", "drop", "restore"))
    detail = None
    if op == "put":
        nbytes = rng.randrange(1, 8192)
        outcome = rng.choice(("buffered", "overwrite", "writethrough"))
        if outcome == "overwrite":
            prev = rng.randrange(0, min(buffered, nbytes) + 1)
            detail = {"prev": prev}
            buffered -= prev
        if outcome != "writethrough":
            buffered += nbytes
    elif op == "restore":
        nbytes, outcome = rng.randrange(1, 4096), "ok"
        buffered += nbytes
    elif op == "drop":
        nbytes, outcome = rng.randrange(0, buffered + 1), "died"
        buffered -= nbytes
    else:
        nbytes = rng.randrange(0, buffered + 1)
        buffered -= nbytes
        outcome = rng.choice(("age", "sync", "watermark"))
        age = 30.0 + rng.uniform(0.0, 60.0) if outcome == "age" else rng.uniform(0.0, 30.0)
        detail = {"age_s": age, "limit_s": 30.0}
    return (t, "writebuffer", op, nbytes, 0.0, outcome, detail), buffered


#: Corruptions planted into the stream, keyed by the step they follow.
_PLANTED = {
    500: [("machine", "reboot", 0, "ok", None),
          ("writebuffer", "flush", 4096, "sync",  # nothing is buffered
           {"age_s": 1.0, "limit_s": 30.0})],
    1000: [("writebuffer", "power_loss", 7, "lost", None)],  # byte mismatch
    1500: [("writebuffer", "flush", 64, "age",  # under-age age flush
            {"age_s": 3.0, "limit_s": 30.0})],
    2000: [("engine", "event", 0, "ok", {"pending": 200_000})],  # over bound
    2500: [("storage-manager", "read_only", 0, "degraded",
            {"reason": "flash", "transition": 1}),
           ("writebuffer", "put", 512, "buffered", None),  # put after read_only
           ("storage-manager", "read_only", 0, "degraded",  # a second one
            {"reason": "flash", "transition": 2})],
    3000: [("machine", "reboot", 0, "ok", None)],
}


def _random_stream(seed, steps=4000):
    """A seeded event stream over every component a real traced run
    emits: healthy, apart from one planted corruption of each kind the
    stock monitors catch."""
    import random

    rng = random.Random(seed)
    t = 0.0
    buffered = 0
    stream = [(t, "machine", "build", 0, 0.0, "ok", None)]
    kinds = ["writebuffer"] * 4 + ["engine", "power_loss"] + list(_DEVICE_OPS) * 3
    for step in range(steps):
        t += rng.expovariate(50.0)
        for component, op, nbytes, outcome, detail in _PLANTED.get(step, ()):
            stream.append((t, component, op, nbytes, 0.0, outcome, detail))
            if component == "machine" or op == "power_loss":
                buffered = 0
            elif op == "put":
                buffered += nbytes
            elif op == "flush":  # the monitor resets a negative estimate
                buffered = max(0, buffered - nbytes)
        kind = rng.choice(kinds)
        if kind == "writebuffer":
            event, buffered = _writebuffer_event(rng, t, buffered)
        elif kind == "engine":
            event = (t, "engine", "event", 0, 0.0, "ok", {"pending": rng.randrange(500)})
        elif kind == "power_loss":  # reports exactly what is buffered
            event = (t, "writebuffer", "power_loss", buffered, 0.0, "lost", None)
            buffered = 0
        else:
            event = (t, kind, rng.choice(_DEVICE_OPS[kind]), rng.randrange(65536),
                     rng.uniform(0.0, 0.01), "ok", None)
        stream.append(event)
    return stream


def _end_state(monitor):
    return {key: getattr(monitor, key)
            for key in ("buffered", "max_pending", "read_only_since")
            if hasattr(monitor, key)}


class TestRouting:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_routed_monitors_match_unrouted(self, seed):
        stream = _random_stream(seed)
        assert {event[1] for event in stream} == set(STREAM_COMPONENTS)

        unrouted = build_monitors()
        for monitor in unrouted:
            _feed(monitor, stream)

        tracer = Tracer(capacity=256)  # the ring drops; monitors must not
        mset = MonitorSet(build_monitors())
        mset.attach(tracer)
        for t, component, op, nbytes, latency_s, outcome, detail in stream:
            tracer.emit(component, op, t, nbytes, latency_s, outcome, detail)
        mset.detach()
        mset.finish()
        assert tracer.dropped > 0
        assert mset.events_observed == len(stream)

        for plain, routed in zip(unrouted, mset.monitors):
            assert routed.name == plain.name
            assert routed.violations == plain.violations
            assert routed.violation_count == plain.violation_count
            assert _end_state(routed) == _end_state(plain)
            assert routed.events_seen == sum(
                1 for event in stream if event[1] in routed.components
            )

        # Every planted corruption is caught, and nothing else is: the
        # read-only monitor flags every put until the next reboot.
        kinds = {}
        for v in mset.violations():
            kind = (v.monitor, v.message.split(" ")[2])
            kinds[kind] = kinds.get(kind, 0) + 1
        puts = kinds.pop(("read-only-transition", "after"))
        assert puts >= 1
        assert kinds == {
            ("buffer-conservation", "went"): 1,  # flush of nothing
            ("buffer-conservation", "reported"): 1,  # power-loss mismatch
            ("buffer-age-bound", "at"): 1,  # under-age age flush
            ("engine-queue-depth", "depth"): 1,
            ("read-only-transition", "counter"): 1,  # second read_only
        }

    def test_events_reach_only_subscribed_components(self):
        tracer = Tracer()
        seen_a, seen_b = [], []
        tracer.subscribe(seen_a.append, (("engine", "x"), ("machine", "x")))
        tracer.subscribe(seen_b.append, (("engine", "x"),))
        tracer.subscribe(seen_b.append, (("engine", "x"),))  # no double delivery
        for component in ("engine", "dram", "machine"):
            tracer.emit(component, "x", 1.0)
            tracer.emit(component, "y", 1.0)  # an op nobody reads
        assert [r[1] for r in seen_a] == ["engine", "machine"]
        assert [r[1] for r in seen_b] == ["engine"]
        assert all(r[2] == "x" for r in seen_a + seen_b)
        # Every event of a subscribed component is counted, read or not.
        assert tracer.events_from(("engine", "machine", "dram")) == 4
        tracer.unsubscribe(seen_a.append)
        tracer.emit("machine", "x", 2.0)
        assert len(seen_a) == 2
        assert tracer.events_from(("machine",)) == 2  # unsubscribed: no more
        tracer.unsubscribe(seen_b.append)
        assert tracer._routes == {}

    def test_emitted_counts_dropped_and_buffered(self):
        tracer = Tracer(capacity=4)
        for i in range(11):
            tracer.emit("dram", "charge_read", float(i))
            assert tracer.emitted == i + 1 == tracer.dropped + len(tracer)

    def test_render_counts_the_whole_stream(self):
        tracer = Tracer()
        tracer.emit("dram", "charge_read", 0.0)  # before attach: not counted
        mset = MonitorSet([QueueDepthBoundMonitor()])
        mset.attach(tracer)
        tracer.emit("engine", "event", 1.0, detail={"pending": 1})
        for i in range(9):
            tracer.emit("dram", "charge_read", 2.0 + i)
        assert "observed 10 event(s)" in mset.render()
        mset.detach()
        tracer.emit("engine", "event", 20.0, detail={"pending": 1})
        assert mset.monitors[0].events_seen == 1
        assert "observed 10 event(s)" in mset.render()
