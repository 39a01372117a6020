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
        m = _feed(BufferAgeBoundMonitor(slack_s=5.0), [
            (1.0, "writebuffer", "flush", 10, 0.0, "sync",
             {"age_s": 40.0, "limit_s": 30.0}),
        ])
        assert m.violation_count == 1
        assert "stayed dirty" in m.violations[0].message

    def test_healthy_flushes(self):
        m = _feed(BufferAgeBoundMonitor(slack_s=5.0), [
            (1.0, "writebuffer", "flush", 10, 0.0, "age",
             {"age_s": 31.0, "limit_s": 30.0}),
            (2.0, "writebuffer", "flush", 10, 0.0, "sync",
             {"age_s": 3.0, "limit_s": 30.0}),
            (3.0, "writebuffer", "flush", 10, 0.0, "watermark", None),
        ])
        assert m.violation_count == 0


class TestQueueDepthBound:
    def test_tracks_high_water_and_violates_over_bound(self):
        m = _feed(QueueDepthBoundMonitor(bound=10), [
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
        assert sorted(m.name for m in monitors) == sorted(MONITORS)
        assert [m.name for m in build_monitors(["engine-queue-depth"])] == [
            "engine-queue-depth"
        ]
        with pytest.raises(ValueError, match="unknown monitor"):
            build_monitors(["nope"])

    def test_subscription_sees_every_emit_despite_ring_drops(self):
        tracer = Tracer(capacity=4)
        mset = MonitorSet(build_monitors(["engine-queue-depth"]))
        mset.attach(tracer)
        for i in range(100):
            tracer.emit("engine", "event", float(i), detail={"pending": 1})
        assert tracer.dropped > 0
        assert mset.monitors[0].events_seen == 100
        mset.detach()
        tracer.emit("engine", "event", 100.0, detail={"pending": 1})
        assert mset.monitors[0].events_seen == 100  # detached: no more

    def test_violation_cap_keeps_counting(self):
        m = QueueDepthBoundMonitor(bound=0)
        m.max_violations = 5
        for i in range(20):
            m.observe((float(i), "engine", "event", 0, 0.0, "ok",
                       {"pending": 1}))
        assert m.violation_count == 20
        assert len(m.violations) == 5

    def test_summary_and_render(self):
        mset = MonitorSet(build_monitors(["engine-queue-depth"]))
        mset.observe((1.0, "engine", "event", 0, 0.0, "ok", {"pending": 3}))
        summary = mset.summary()
        assert summary["violation_count"] == 0
        assert summary["monitors"]["engine-queue-depth"]["events_seen"] == 1
        assert "monitors ok" in mset.render()
        mset.monitors[0].violate(2.0, "boom", pending=9)
        assert "MONITOR VIOLATIONS: 1" in mset.render()
        assert mset.summary()["violations"][0]["message"] == "boom"

    def test_violations_sorted_by_time(self):
        a, b = build_monitors(["engine-queue-depth", "buffer-conservation"])
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
        mset = MonitorSet(build_monitors(["buffer-conservation"]))
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
