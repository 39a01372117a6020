"""Observability layer: tracer, schema, hub, manifest — plus the
metric/timer bugfix regressions that rode along with it.

The regression tests here each pin a specific latent bug:

- ``WriteBuffer.restore`` restarting the age clock (a block that kept
  failing to persist could evade the battery-loss bound forever);
- ``Engine.schedule_every`` pushing its root event past the
  ``schedule_at`` validation (a stale first_delay could land before now);
- ``StatRegistry.reset`` destroying gauge identity, and
  ``Histogram.stdev`` drifting from the exact sample stdev.
"""

import json
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.dram import DRAM
from repro.devices.flash import FlashMemory
from repro.obs import (
    MetricsHub,
    Tracer,
    flatten_numeric,
    jsonl_to_chrome,
    run_manifest,
    runtime,
    validate_event,
    validate_jsonl,
    write_manifest,
)
from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.sim.stats import Histogram, StatRegistry
from repro.storage.flashstore import FlashStore
from repro.storage.manager import StorageManager
from repro.storage.writebuffer import FlushItem, FlushReason, WriteBuffer

MB = 1024 * 1024


# ----------------------------------------------------------------------
# Tracer.
# ----------------------------------------------------------------------


class TestTracer:
    def test_emit_and_events(self):
        tr = Tracer()
        tr.emit("flash", "read", 1.5, 4096, 0.001)
        tr.emit("vm", "page_fault", 2.0, 4096, 0.0001, outcome="cow",
                detail={"why": "fork"})
        events = list(tr.events())
        assert len(events) == 2
        assert events[0] == {
            "t": 1.5, "component": "flash", "op": "read",
            "bytes": 4096, "latency_s": 0.001, "outcome": "ok",
        }
        assert events[1]["detail"] == {"why": "fork"}

    def test_ring_drops_oldest_half_and_counts(self):
        tr = Tracer(capacity=8)
        for i in range(13):
            tr.emit("c", "op", float(i))
        assert tr.emitted == 13
        # The ring dropped its oldest half twice: at the 9th emit and
        # again at the 13th.
        assert tr.dropped == 8
        assert len(tr) == 5
        # Oldest events went first; the newest survive.
        assert list(tr.events())[-1]["t"] == 12.0

    def test_jsonl_schema_valid(self, tmp_path):
        tr = Tracer()
        tr.emit("flash", "program", 0.5, 256, 0.003)
        tr.emit("engine", "event", 1.0, detail={"name": "tick"})
        path = str(tmp_path / "t.jsonl")
        assert tr.to_jsonl(path) == 2
        count, errors = validate_jsonl(path)
        assert (count, errors) == (2, [])

    def test_chrome_export_parses(self, tmp_path):
        tr = Tracer()
        tr.emit("flash", "erase", 0.25, 65536, 1.0, detail={"sector": 3})
        tr.emit("dram", "read", 0.5, 64, 1e-6)
        jsonl = str(tmp_path / "t.jsonl")
        tr.to_jsonl(jsonl)
        path = str(tmp_path / "t.chrome.json")
        assert jsonl_to_chrome(jsonl, path, dropped=tr.dropped) == 2
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        ev = doc["traceEvents"][0]
        assert ev["ph"] == "X"
        assert ev["ts"] == pytest.approx(0.25e6)
        assert ev["dur"] == pytest.approx(1.0e6)
        assert ev["args"]["sector"] == 3
        # Distinct components get distinct tids (separate viewer tracks).
        assert doc["traceEvents"][1]["tid"] != ev["tid"]
        assert doc["otherData"]["dropped_events"] == 0

    def test_clear(self):
        tr = Tracer()
        tr.emit("a", "x", 0.0)
        tr.clear()
        assert len(tr) == 0 and tr.emitted == 0

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=1)


class TestSchema:
    def test_valid_event(self):
        assert validate_event({
            "t": 0.0, "component": "c", "op": "o",
            "bytes": 1, "latency_s": 0.0, "outcome": "ok",
        }) == []

    def test_violations_reported(self):
        errors = validate_event({
            "t": -1.0, "component": 7, "op": "o",
            "latency_s": 0.0, "outcome": "ok", "zzz": 1,
        })
        text = " ".join(errors)
        assert "missing required field 'bytes'" in text
        assert "'component'" in text
        assert "unknown field 'zzz'" in text

    def test_bool_is_not_a_number(self):
        errors = validate_event({
            "t": True, "component": "c", "op": "o",
            "bytes": 0, "latency_s": 0.0, "outcome": "ok",
        })
        assert errors

    def test_non_dict_rejected(self):
        assert validate_event([1, 2]) != []


class TestRuntime:
    def test_set_get_restore(self):
        tr = Tracer()
        previous = runtime.set_tracer(tr)
        try:
            assert runtime.get_tracer() is tr
        finally:
            runtime.set_tracer(previous)
        assert runtime.get_tracer() is previous

    def test_tracing_contextmanager(self):
        before = runtime.get_tracer()
        tr = Tracer()
        with runtime.tracing(tr) as scoped:
            assert scoped is tr
            assert runtime.get_tracer() is tr
            with runtime.tracing(None) as untraced:
                assert untraced is None
                assert runtime.get_tracer() is None
            assert runtime.get_tracer() is tr
        assert runtime.get_tracer() is before


# ----------------------------------------------------------------------
# MetricsHub.
# ----------------------------------------------------------------------


class TestMetricsHub:
    def _hub(self):
        hub = MetricsHub()
        reg = StatRegistry("comp")
        reg.counter("ops").add(5)
        reg.histogram("lat").record(0.25)
        reg.gauge("occ").set(3.0, 1.0)
        hub.register(reg)
        flash = FlashMemory(1 * MB)
        flash.program(0, b"abc", 0.0)
        hub.register_device(flash)
        return hub, reg, flash

    def test_snapshot_is_jsonable_and_merged(self):
        hub, _reg, _flash = self._hub()
        snap = hub.snapshot(now=2.0)
        json.dumps(snap)  # must not raise
        assert snap["components"]["comp"]["counters"]["ops"] == 5
        assert snap["devices"]["flash"]["bytes_written"] == 3
        assert "derived" in snap["devices"]["flash"]
        assert snap["devices"]["flash"]["derived"]["write_bytes_per_s"] == 1.5

    def test_lookups(self):
        hub, _reg, flash = self._hub()
        assert hub.counter_value("comp", "ops") == 5
        assert hub.counter_value("comp", "nope") == 0.0
        assert hub.counter_value("nope", "ops") == 0.0
        assert hub.device_stat("flash", "bytes_written") == flash.stats.bytes_written

    def test_reregistration_replaces(self):
        hub, _reg, _flash = self._hub()
        fresh = StatRegistry("comp")
        fresh.counter("ops").add(1)
        hub.register(fresh)
        assert hub.counter_value("comp", "ops") == 1
        assert hub.components().count("comp") == 1

    def test_top_counters(self):
        hub, _reg, _flash = self._hub()
        assert hub.top_counters(5)[0] == ("comp.ops", 5.0)

    def test_flatten_numeric(self):
        flat = flatten_numeric({"a": {"b": 1, "c": "s"}, "d": 2.5, "e": True})
        assert flat == {"a.b": 1.0, "d": 2.5}


class TestManifest:
    def test_manifest_fields_and_write(self, tmp_path):
        config = SystemConfig(organization=Organization.SOLID_STATE)
        manifest = run_manifest(
            command="test", config=config, seed=7,
            sim_seconds=1.0, wall_seconds=0.5, extra={"events": 3},
        )
        assert manifest["seed"] == 7
        assert manifest["events"] == 3
        assert manifest["config"]["organization"] == "solid_state"
        path = write_manifest(str(tmp_path / "sub" / "m.json"), manifest)
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh)["command"] == "test"


# ----------------------------------------------------------------------
# Bugfix regression: restore() must not restart the age clock.
# ----------------------------------------------------------------------


class TestRestoreAgeClock:
    def test_flush_item_carries_first_write(self):
        clock = SimClock()
        buf = WriteBuffer(4096, clock, age_limit_s=30.0)
        buf.put("k", b"x" * 64)
        clock.advance(20.0)
        item = buf.flush_all(FlushReason.SYNC)[0]
        assert item.first_write == 0.0
        assert item.age_s == pytest.approx(20.0)

    def test_restored_entry_keeps_original_age(self):
        clock = SimClock()
        buf = WriteBuffer(4096, clock, age_limit_s=30.0)
        buf.put("k", b"x" * 64)  # first written at t=0
        clock.advance(20.0)
        item = buf.flush_all(FlushReason.SYNC)[0]
        # Persist failed; the block comes home with its original clock.
        buf.restore(item.key, item.data, item.hot, first_write=item.first_write)
        clock.advance(10.0)  # dirty for 30s total since the first write
        aged = buf.flush_aged()
        # Old bug: restore() stamped first_write=now (t=20), so at t=30
        # the entry read as 10s old and evaded the 30s battery-loss
        # bound; it must flush here.
        assert [i.key for i in aged] == ["k"]
        assert aged[0].age_s == pytest.approx(30.0)

    def test_restore_without_origin_uses_now(self):
        clock = SimClock()
        buf = WriteBuffer(4096, clock, age_limit_s=30.0)
        clock.advance(5.0)
        buf.restore("k", b"x" * 8)
        assert buf._entries["k"].first_write == 5.0

    def test_future_origin_clamped_to_now(self):
        clock = SimClock()
        buf = WriteBuffer(4096, clock, age_limit_s=30.0)
        clock.advance(5.0)
        buf.restore("k", b"x" * 8, first_write=99.0)
        assert buf._entries["k"].first_write == 5.0

    def test_manager_restore_path_preserves_origin(self):
        clock = SimClock()
        flash = FlashMemory(1 * MB)
        store = FlashStore(flash, clock)
        buf = WriteBuffer(4096, clock, age_limit_s=30.0)
        manager = StorageManager(clock, store, buf)
        item = FlushItem("k", b"y" * 16, FlushReason.SYNC, 12.0, True,
                         first_write=3.0)
        clock.advance(15.0)
        manager._restore_items([item])
        assert buf._entries["k"].first_write == 3.0


# ----------------------------------------------------------------------
# Bugfix regression: schedule_every validates and routes through
# schedule_at.
# ----------------------------------------------------------------------


class TestScheduleEveryValidation:
    def test_negative_first_delay_rejected(self):
        engine = Engine()
        # Old bug: the root event was pushed straight onto the heap,
        # skipping validation -- a negative first_delay scheduled it in
        # the past without complaint.
        with pytest.raises(ValueError):
            engine.schedule_every(1.0, lambda: None, first_delay=-0.5)

    def test_root_counts_as_pending(self):
        engine = Engine()
        before = engine.pending
        event = engine.schedule_every(1.0, lambda: None, first_delay=0.0)
        assert engine.pending == before + 1
        event.cancel()
        assert engine.pending == before

    def test_series_still_fires_and_cancels(self):
        engine = Engine()
        fired = []
        event = engine.schedule_every(1.0, lambda: fired.append(engine.clock.now),
                                      first_delay=0.5)
        engine.run_until(3.0)
        assert fired == [0.5, 1.5, 2.5]
        event.cancel()
        engine.run_until(6.0)
        assert len(fired) == 3

    def test_zero_first_delay_fires_immediately(self):
        engine = Engine()
        fired = []
        engine.schedule_every(1.0, lambda: fired.append(1), first_delay=0.0)
        engine.run_until(0.0)
        assert fired == [1]


# ----------------------------------------------------------------------
# Bugfix regression: reset keeps gauge identity; stdev is exact.
# ----------------------------------------------------------------------


class TestRegistryReset:
    def test_gauge_identity_survives_reset(self):
        reg = StatRegistry("c")
        gauge = reg.gauge("occ")
        gauge.set(5.0, 1.0)
        reg.reset(now=2.0)
        # Old bug: reset() cleared the gauges dict, so components holding
        # this reference updated an orphan while gauge("occ") handed out
        # a fresh object -- silently forking the metric.
        assert reg.gauge("occ") is gauge
        gauge.set(9.0, 3.0)
        assert reg.snapshot(3.0)["gauges"]["occ"]["current"] == 9.0

    def test_gauge_reset_restarts_integration_keeps_level(self):
        reg = StatRegistry("c")
        gauge = reg.gauge("occ")
        gauge.set(10.0, 0.0)
        gauge.set(20.0, 4.0)
        reg.reset(now=4.0)
        assert gauge.current == 20.0
        assert gauge.peak == 20.0  # peak restarts from the current level
        assert gauge.average(now=8.0) == pytest.approx(20.0)

    @given(st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=30),
           st.lists(st.integers(min_value=0, max_value=50), max_size=30))
    def test_reset_round_trips(self, values, counts):
        reg = StatRegistry("c")
        fresh = StatRegistry("c")
        for v in values:
            reg.histogram("h").record(v)
        for n in counts:
            reg.counter("k").add(n)
        reg.reset()
        for v in values:
            reg.histogram("h").record(v)
            fresh.histogram("h").record(v)
        for n in counts:
            reg.counter("k").add(n)
            fresh.counter("k").add(n)
        assert reg.snapshot() == fresh.snapshot()


class TestHistogramStdev:
    def test_degenerate_cases(self):
        h = Histogram()
        assert h.stdev == 0.0
        h.record(5.0)
        assert h.stdev == 0.0
        assert h.summary()["stdev"] == 0.0

    @settings(max_examples=60)
    @given(st.lists(
        st.floats(min_value=0.0, max_value=1000.0,
                  allow_nan=False, allow_infinity=False),
        min_size=2, max_size=300,
    ))
    def test_stdev_matches_statistics(self, values):
        h = Histogram()
        for v in values:
            h.record(v)
        # abs tolerance covers catastrophic cancellation in the running
        # sum-of-squares when all values are (nearly) identical.
        assert h.stdev == pytest.approx(statistics.stdev(values),
                                        rel=1e-6, abs=1e-4)


# ----------------------------------------------------------------------
# Conservation identity under restore/drop interleavings.
# ----------------------------------------------------------------------


class TestAbsorptionConservation:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["put", "drop", "flush", "restore", "power"]),
            st.integers(min_value=0, max_value=7),
            st.integers(min_value=1, max_value=64),
        ),
        max_size=60,
    ))
    def test_bytes_in_fully_accounted(self, ops):
        clock = SimClock()
        buf = WriteBuffer(1024, clock, age_limit_s=30.0)
        unrestored = []
        for op, k, size in ops:
            clock.advance(1.0)
            key = f"k{k}"
            if op == "put":
                unrestored.extend(buf.put(key, b"a" * size))
            elif op == "drop":
                buf.drop(key)
            elif op == "flush":
                unrestored.extend(buf.flush_all())
            elif op == "restore" and unrestored:
                item = unrestored.pop()
                buf.restore(item.key, item.data, item.hot,
                            first_write=item.first_write)
            elif op == "power":
                buf.power_loss()
        c = buf.stats.counter
        flushed_net = c("flushed_bytes").value - c("restored_bytes").value
        # Every byte that came in is exactly one of: net-flushed to
        # flash, absorbed by overwrite, died before flushing, lost to
        # power failure, or still sitting in the buffer.
        assert c("bytes_in").value == (
            flushed_net
            + c("overwritten_bytes").value
            + c("died_bytes").value
            + c("lost_bytes").value
            + buf.buffered_bytes
        )
        if c("bytes_in").value:
            absorbed = (c("bytes_in").value - flushed_net) / c("bytes_in").value
            assert buf.absorption_ratio() == pytest.approx(absorbed)


# ----------------------------------------------------------------------
# Machine integration: hub wiring, determinism, reboot re-registration.
# ----------------------------------------------------------------------


def _traced_run(seed=0, duration=20.0):
    with runtime.tracing(Tracer()) as tracer:
        machine = MobileComputer(SystemConfig(
            organization=Organization.SOLID_STATE, seed=seed,
        ))
        machine.run_workload("office", duration_s=duration)
    return machine, tracer


class TestMachineObservability:
    def test_hub_matches_device_counters_exactly(self):
        machine, _tracer = _traced_run()
        assert (
            machine.hub.device_stat("flash-data", "bytes_written")
            == machine.flash.stats.bytes_written
        )
        assert (
            machine.hub.counter_value("writebuffer", "bytes_in")
            == machine.manager.buffer.stats.counter("bytes_in").value
        )

    def test_snapshots_jsonable(self):
        machine, _tracer = _traced_run()
        json.dumps(machine.hub.snapshot(machine.clock.now))
        json.dumps(machine.manager.buffer.snapshot())
        json.dumps(machine.store.snapshot())
        json.dumps(machine.flash.stats.snapshot())
        json.dumps(machine.dram.stats.snapshot())

    def test_two_seeded_runs_identical(self, tmp_path):
        machine_a, tracer_a = _traced_run(seed=3)
        machine_b, tracer_b = _traced_run(seed=3)
        snap_a = machine_a.hub.snapshot(machine_a.clock.now)
        snap_b = machine_b.hub.snapshot(machine_b.clock.now)
        assert json.dumps(snap_a, sort_keys=True) == json.dumps(snap_b, sort_keys=True)
        path_a = str(tmp_path / "a.jsonl")
        path_b = str(tmp_path / "b.jsonl")
        tracer_a.to_jsonl(path_a)
        tracer_b.to_jsonl(path_b)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            assert fa.read() == fb.read()  # byte-identical streams

    def test_trace_stream_schema_valid(self, tmp_path):
        _machine, tracer = _traced_run()
        path = str(tmp_path / "t.jsonl")
        written = tracer.to_jsonl(path)
        count, errors = validate_jsonl(path)
        assert errors == []
        assert count == written > 0
        components = {event["component"] for event in tracer.events()}
        assert "writebuffer" in components
        assert "flash-data" in components

    def test_untraced_machine_has_no_tracer(self):
        machine = MobileComputer(SystemConfig(
            organization=Organization.SOLID_STATE,
        ))
        assert machine.tracer is None
        assert machine.flash.tracer is None
        assert machine.engine.tracer is None
        assert machine.manager.buffer.tracer is None
        assert machine.vm.tracer is None

    def test_reboot_rewires_hub_and_tracer(self):
        machine, tracer = _traced_run(duration=10.0)
        machine.inject_battery_failure()
        machine.reboot_after_power_loss()
        # The rebuilt buffer/store/vm must be the hub's registered
        # objects (stale registries would silently freeze the metrics)...
        assert machine.hub._registries["writebuffer"] is machine.manager.buffer.stats
        assert machine.hub._registries["flashstore"] is machine.store.stats
        assert machine.hub._registries["vm"] is machine.vm.stats
        # ...and keep emitting into the same tracer.
        assert machine.manager.buffer.tracer is tracer
        assert machine.store.tracer is tracer
        assert machine.vm.tracer is tracer

    def test_disk_org_registers_disk(self):
        machine = MobileComputer(SystemConfig(organization=Organization.DISK))
        assert "disk" in machine.hub.devices()
        assert "buffercache" in machine.hub.components()


# ----------------------------------------------------------------------
# CLI integration.
# ----------------------------------------------------------------------


class TestCLI:
    def test_metrics_table(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--duration", "15"]) == 0
        out = capsys.readouterr().out
        assert "top counters" in out
        assert "flash-data" in out

    def test_metrics_json(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--duration", "15", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "components" in snap and "devices" in snap
        assert snap["devices"]["flash-data"]["bytes_written"] > 0

    def test_run_with_trace_writes_all_outputs(self, capsys, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "run.jsonl")
        assert main(["run", "--duration", "15", "--trace", path]) == 0
        count, errors = validate_jsonl(path)
        assert errors == [] and count > 0
        with open(path + ".chrome.json", encoding="utf-8") as fh:
            assert json.load(fh)["traceEvents"]
        with open(path + ".manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["events"] == count
        assert runtime.get_tracer() is None  # tracer uninstalled after

    def test_trace_composes_with_parallel_jobs(self, capsys, tmp_path):
        from repro.cli import main

        path = str(tmp_path / "e.jsonl")
        assert main(["experiments", "E1", "-j", "4", "--trace", path]) == 0
        err = capsys.readouterr().err
        assert "forces serial" not in err  # old -j 1 forcing is gone
        assert "trace written" in err
        count, errors = validate_jsonl(path)
        assert errors == [] and count > 0

    def test_trace_smoke(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["trace-smoke", "--dir", str(tmp_path)]) == 0
        assert "trace smoke ok" in capsys.readouterr().out
        assert (tmp_path / "trace_smoke.jsonl").exists()
        assert (tmp_path / "trace_smoke.jsonl.chrome.json").exists()
        with open(tmp_path / "trace_smoke.jsonl.manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["organization"] == "solid_state"
        assert manifest["sim_seconds"] > 0
        assert manifest["seed"] == 0
