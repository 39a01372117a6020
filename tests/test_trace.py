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
        report = TraceReplayer(fs, engine, _ignore).replay([trace])
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
        TraceReplayer(fs, engine, _ignore).replay([trace])
        aged = fs.manager.buffer.stats.counter("flushed_age").value
        assert aged > 0, "age-based flushes should have fired via the engine"

    def test_exec_handler_invoked(self):
        fs, engine = self.make_fs()
        launched = []
        trace = generate_workload("exec_heavy", seed=3, duration_s=60.0)
        replayer = TraceReplayer(fs, engine, lambda r: launched.append(r.program))
        replayer.replay([trace])
        assert launched

    def test_slowdown_metric(self):
        fs, engine = self.make_fs()
        trace = generate_workload("pim", seed=2, duration_s=60.0)
        report = TraceReplayer(fs, engine, _ignore).replay([trace])
        assert report.slowdown >= 1.0  # clock can't finish before the trace


def _launch(time, program, path="/bin/p"):
    """An EXEC record: the replayer hands it to the exec handler."""
    return TraceRecord(time, OpType.EXEC, path, program=program)


class _Subtrees:
    """Just enough file system for EXEC-only streams: the client subtrees
    a multi-client replay creates, at no simulated cost."""

    def __init__(self):
        self.dirs = []

    def exists(self, path):
        return path in self.dirs

    def mkdir(self, path):
        self.dirs.append(path)


class TestReplayMerge:
    """The replay loop's k-way merge of client streams, on hand-built
    EXEC streams whose handler logs (program, clock) and may run long."""

    def replay(self, streams, work=None):
        """Replay ``streams``; ``work`` maps a program to the simulated
        seconds its launch takes."""
        engine = Engine()
        fs = _Subtrees()
        seen = []
        work = work or {}

        def launch(record):
            seen.append((record.program, engine.clock.now))
            engine.clock.advance(work.get(record.program, 0.0))

        report = TraceReplayer(fs, engine, launch).replay(streams)
        return report, seen, fs

    def test_single_stream_runs_each_record_at_its_time(self):
        stream = [_launch(t, f"p{t}") for t in (1.0, 2.5, 4.0)]
        report, seen, _fs = self.replay([stream])
        assert seen == [("p1.0", 1.0), ("p2.5", 2.5), ("p4.0", 4.0)]
        assert (report.records, report.elapsed_sim_s) == (3, 4.0)
        assert report.op_counts == {"exec": 3}

    def test_global_timestamp_order_across_streams(self):
        a = [_launch(1.0, "a1"), _launch(3.0, "a3")]
        b = [_launch(2.0, "b2"), _launch(2.5, "b2.5")]
        _report, seen, _fs = self.replay([a, b])
        assert seen == [("a1", 1.0), ("b2", 2.0), ("b2.5", 2.5), ("a3", 3.0)]

    def test_ties_go_to_the_lower_stream_index(self):
        streams = [[_launch(1.0, f"s{i}")] for i in range(3)]
        _report, seen, _fs = self.replay(streams)
        assert [program for program, _ in seen] == ["s0", "s1", "s2"]

    def test_timers_fire_before_the_record_they_precede(self):
        engine = Engine()
        fired = []
        engine.schedule_every(1.5, lambda: fired.append(engine.clock.now), name="t")
        at_launch = []
        stream = [_launch(1.0, "x"), _launch(2.0, "y")]
        TraceReplayer(
            _Subtrees(), engine, lambda r: at_launch.append(list(fired))
        ).replay([stream])
        assert at_launch == [[], [1.5]]

    def test_timer_due_during_a_long_op_fires_before_an_earlier_record(self):
        # The hog's launch runs 1.0 -> 6.0; the timer came due at 3.0, so
        # it fires before the victim's record, though that record's time
        # (2.0) is earlier than the timer's.
        engine = Engine()
        fired = []
        engine.schedule_every(3.0, lambda: fired.append(engine.clock.now), name="t")
        at_launch = {}

        def launch(record):
            at_launch[record.program] = list(fired)
            if record.program == "hog":
                engine.clock.advance(5.0)

        TraceReplayer(_Subtrees(), engine, launch).replay(
            [[_launch(1.0, "hog")], [_launch(2.0, "victim")]]
        )
        assert at_launch == {"hog": [], "victim": [6.0]}

    def test_late_record_runs_at_the_clock_and_counts_as_dispatch_delay(self):
        hog = [_launch(1.0, "hog")]
        victim = [_launch(2.0, "victim")]
        report, seen, _fs = self.replay([hog, victim], work={"hog": 10.0})
        # Run at the current clock, not rewound to its time t=2.
        assert seen == [("hog", 1.0), ("victim", 11.0)]
        assert report.per_client[0]["dispatch_delay_s"] == 0.0
        assert report.per_client[1]["dispatch_delay_s"] == 9.0
        assert report.dispatch_delay_total_s == 9.0

    def test_single_stream_never_rewinds_and_attributes_nothing(self):
        stream = [_launch(1.0, "slow"), _launch(2.0, "next")]
        report, seen, _fs = self.replay([stream], work={"slow": 5.0})
        assert seen == [("slow", 1.0), ("next", 6.0)]
        assert report.per_client == {}
        assert report.dispatch_delay_total_s == 0.0

    def test_exception_propagates_and_stops_every_stream(self):
        a = [_launch(1.0, "ok"), _launch(2.0, "boom"), _launch(4.0, "a-later")]
        b = [_launch(1.5, "b"), _launch(3.0, "b-later")]
        seen = []
        engine = Engine()

        def launch(record):
            seen.append(record.program)
            if record.program == "boom":
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            TraceReplayer(_Subtrees(), engine, launch).replay([a, b])
        assert seen == ["ok", "b", "boom"]

    def test_empty_stream_contributes_nothing(self):
        report, seen, fs = self.replay([[], [_launch(1.0, "x")]])
        assert seen == [("x", 1.0)]
        assert report.records == 1
        assert report.per_client[0]["records"] == 0
        assert report.per_client[0]["op_counts"] == {}
        assert report.per_client[0]["dispatch_delay_s"] == 0.0
        # No subtree for a client that never dispatched.
        assert fs.dirs == ["/c1"]
        report, seen, _fs = self.replay([[]])
        assert (report.records, seen, report.elapsed_sim_s) == (0, [], 0.0)

    def test_streams_are_pulled_at_most_one_record_ahead(self):
        pulled = []

        def lazy(label, times):
            for t in times:
                pulled.append(label)
                yield _launch(t, label)

        pulled_at_launch = []
        engine = Engine()
        TraceReplayer(
            _Subtrees(), engine, lambda r: pulled_at_launch.append(len(pulled))
        ).replay([lazy("a", [1.0, 3.0, 5.0]), lazy("b", [2.0])])
        # Each stream's first record is pulled up front; after that, a
        # stream's next record is pulled only once its last one ran.
        assert pulled_at_launch == [2, 3, 3, 4]

    def test_integer_record_times_dispatch_as_floats(self):
        clocks = []
        engine = Engine()
        TraceReplayer(
            _Subtrees(), engine, lambda r: clocks.append(engine.clock.now)
        ).replay([[_launch(1, "x"), _launch(2, "y")]])
        assert clocks == [1.0, 2.0]
        assert all(type(now) is float for now in clocks)
