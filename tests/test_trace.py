"""Unit tests for trace generation and replay."""

from dataclasses import replace

import pytest

from repro.devices import DRAM, FlashMemory
from repro.fs import MemoryFileSystem
from repro.sim import Engine
from repro.trace import (
    OpType,
    SyntheticTraceGenerator,
    TraceRecord,
    TraceReplayer,
    WORKLOADS,
    generate_workload,
    office_profile,
)
from repro.trace.model import validate_trace
from repro.trace.replay import payload_for

from tests._storage import build_manager


def _ignore(record):
    """An EXEC handler that launches nothing."""


def _office_60s():
    return replace(office_profile(), duration_s=60.0)

MB = 1024 * 1024


class TestTraceRecord:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(-1.0, OpType.READ, "/f")

    def test_rename_needs_target(self):
        with pytest.raises(ValueError):
            TraceRecord(0.0, OpType.RENAME, "/a")

    def test_exec_needs_program(self):
        with pytest.raises(ValueError):
            TraceRecord(0.0, OpType.EXEC, "/")

    def test_validate_trace_rejects_disorder(self):
        records = [
            TraceRecord(1.0, OpType.READ, "/f", nbytes=1),
            TraceRecord(0.5, OpType.READ, "/f", nbytes=1),
        ]
        with pytest.raises(ValueError):
            validate_trace(records)


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = SyntheticTraceGenerator(_office_60s(), seed=3).generate()
        b = SyntheticTraceGenerator(_office_60s(), seed=3).generate()
        assert a == b

    def test_different_seeds_differ(self):
        a = SyntheticTraceGenerator(_office_60s(), seed=3).generate()
        b = SyntheticTraceGenerator(_office_60s(), seed=4).generate()
        assert a != b

    def test_time_ordered(self):
        for name in WORKLOADS:
            validate_trace(generate_workload(name, seed=1, duration_s=30.0))

    def test_within_duration(self):
        trace = generate_workload("office", seed=1, duration_s=45.0)
        assert all(r.time < 45.0 for r in trace)

    def test_deletes_follow_creates(self):
        trace = generate_workload("office", seed=2, duration_s=120.0)
        live = set()
        for record in trace:
            if record.op is OpType.CREATE:
                assert record.path not in live
                live.add(record.path)
            elif record.op is OpType.DELETE:
                assert record.path in live, f"delete of never-created {record.path}"
                live.discard(record.path)
            elif record.op in (OpType.READ, OpType.WRITE, OpType.TRUNCATE):
                assert record.path in live

    def test_temp_files_die(self):
        trace = generate_workload("office", seed=5, duration_s=300.0)
        created_tmp = {r.path for r in trace if r.op is OpType.CREATE and "/tmp" in r.path}
        deleted = {r.path for r in trace if r.op is OpType.DELETE}
        assert created_tmp, "office should create temp files"
        died = len(created_tmp & deleted) / len(created_tmp)
        assert died > 0.5, "most temp files should die within the trace"

    def test_overwrite_dominated_writes(self):
        trace = generate_workload("office", seed=6, duration_s=300.0)
        writes = [r for r in trace if r.op is OpType.WRITE and r.time > 0]
        at_zero = sum(1 for w in writes if w.offset == 0)
        assert at_zero / len(writes) > 0.4  # office is overwrite-heavy

    def test_exec_records_in_exec_heavy(self):
        trace = generate_workload("exec_heavy", seed=1, duration_s=120.0)
        execs = [r for r in trace if r.op is OpType.EXEC]
        assert execs and all(r.program for r in execs)

    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            generate_workload("quake", seed=0)

    def test_invalid_profile_rejected(self):
        from repro.trace.synth import WorkloadProfile

        with pytest.raises(ValueError):
            WorkloadProfile(name="bad", p_write=0.9, p_create_temp=0.2).validate()
        with pytest.raises(ValueError):
            WorkloadProfile(name="bad2", p_exec=0.1).validate()  # no programs


class TestReplay:
    def make_fs(self):
        engine = Engine()
        flash = FlashMemory(16 * MB, banks=2)
        dram = DRAM(4 * MB)
        manager = build_manager(engine.clock, flash, dram=dram, buffer_bytes=MB)
        return MemoryFileSystem(manager, dram=dram), engine

    def test_replay_counts_everything(self):
        fs, engine = self.make_fs()
        trace = generate_workload("office", seed=9, duration_s=60.0)
        report = TraceReplayer(fs, engine, _ignore).replay_scheduled([trace])
        assert report.records == len(trace)
        assert report.errors == 0
        assert report.bytes_written > 0
        assert set(report.op_counts) <= {o.value for o in OpType}

    def test_payloads_deterministic(self):
        assert payload_for("/f", 0, 100) == payload_for("/f", 0, 100)
        assert payload_for("/f", 0, 100) != payload_for("/g", 0, 100)

    def test_engine_timers_fire_during_replay(self):
        fs, engine = self.make_fs()
        engine.schedule_every(5.0, fs.manager.flush_aged, name="writebuffer-age-flush")
        fs.manager.buffer.age_limit_s = 10.0
        trace = generate_workload("office", seed=9, duration_s=90.0)
        TraceReplayer(fs, engine, _ignore).replay_scheduled([trace])
        aged = fs.manager.buffer.stats.counter("flushed_age").value
        assert aged > 0, "age-based flushes should have fired via the engine"

    def test_exec_handler_invoked(self):
        fs, engine = self.make_fs()
        launched = []
        trace = generate_workload("exec_heavy", seed=3, duration_s=60.0)
        replayer = TraceReplayer(fs, engine, lambda r: launched.append(r.program))
        replayer.replay_scheduled([trace])
        assert launched

    def test_slowdown_metric(self):
        fs, engine = self.make_fs()
        trace = generate_workload("pim", seed=2, duration_s=60.0)
        report = TraceReplayer(fs, engine, _ignore).replay_scheduled([trace])
        assert report.slowdown >= 1.0  # clock can't finish before the trace
