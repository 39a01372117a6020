"""Trace analytics: golden aggregates on canned traces, plus diffs.

The canned traces are built inline (no fixture files): every number the
analysis reports is pinned against hand-computed expectations, so any
change to binning, merge, or aggregation semantics shows up here.
"""

import json
import math

import pytest

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.obs import flatten_numeric, runtime
from repro.obs.analyze import (
    Timeline,
    TraceAnalysis,
    analyze_trace,
    diff_against_trajectory,
    diff_summaries,
    render_diff,
    render_summary,
    trace_hub_metrics,
)
from repro.obs.tracer import EVENT_FIELDS, Tracer, write_trace
from repro.sim.stats import Histogram


def _event(component, op, t=0.0, nbytes=0, latency_s=0.0, outcome="ok", detail=None):
    out = {
        "t": t,
        "component": component,
        "op": op,
        "bytes": nbytes,
        "latency_s": latency_s,
        "outcome": outcome,
    }
    if detail is not None:
        out["detail"] = detail
    return out


# ----------------------------------------------------------------------
# Latency binning (the shared repro.sim.stats.Histogram).
# ----------------------------------------------------------------------


class TestLatencyHistogram:
    def test_empty(self):
        hist = Histogram()
        assert hist.summary() == {
            "count": 0, "mean": 0.0, "stdev": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_golden_percentiles(self):
        # 99 samples at 1 ms + 1 at 100 ms: p50/p95/p99 land in the 1 ms
        # bin, p99.5+ in the 100 ms bin.  The geometric bin midpoint for
        # latency x is MIN * base**floor(log10(x/MIN)*16) * sqrt(base),
        # clamped to the observed [min, max].
        hist = Histogram()
        for _ in range(99):
            hist.record(1e-3)
        hist.record(1e-1)
        base = 10.0 ** (1.0 / 16.0)
        mid_1ms = 1e-9 * base**96 * math.sqrt(base)
        assert hist.percentile(50) == pytest.approx(mid_1ms)
        assert hist.percentile(99) == pytest.approx(mid_1ms)
        # The 100 ms bin's midpoint lies above the max: it clamps.
        assert 1e-9 * base**128 * math.sqrt(base) > 1e-1
        assert hist.percentile(99.5) == 1e-1
        assert hist.percentile(100) == 1e-1
        # Bin resolution is ~15%; midpoints stay within that of truth.
        assert abs(hist.percentile(50) - 1e-3) / 1e-3 < 0.15
        assert hist.maximum == 1e-1
        assert hist.mean == pytest.approx((99 * 1e-3 + 1e-1) / 100)

    def test_zeros_bucket(self):
        hist = Histogram()
        for _ in range(9):
            hist.record(0.0)
        hist.record(2e-6)
        assert hist.percentile(50) == 0.0
        assert hist.percentile(90) == 0.0
        assert 0.0 < hist.percentile(95) <= 2e-6
        assert hist.minimum == 0.0
        assert hist.zeros == 9

    def test_merge_equals_union(self):
        a, b, union = Histogram(), Histogram(), Histogram()
        xs = [1e-6, 5e-5, 0.0, 3e-3, 1e-2]
        ys = [2e-6, 0.0, 7e-4, 8e-1]
        for x in xs:
            a.record(x)
            union.record(x)
        for y in ys:
            b.record(y)
            union.record(y)
        a.merge(b)
        assert a.bins == union.bins
        assert a.summary() == pytest.approx(union.summary())

    def test_determinism_under_permutation(self):
        xs = [1e-6, 5e-5, 3e-3, 1e-2, 2e-6, 7e-4, 8e-1] * 3
        a, b = Histogram(), Histogram()
        for x in xs:
            a.record(x)
        for x in reversed(xs):
            b.record(x)
        assert a.bins == b.bins
        assert a.summary() == pytest.approx(b.summary())


class TestTimeline:
    def test_decimation_preserves_sum(self):
        tl = Timeline()
        for i in range(2000):
            tl.add(float(i), 1.0)
        assert len(tl.points) <= Timeline.cap
        assert sum(v for _t, v in tl.points) == pytest.approx(2000.0)

    def test_cap_validation(self):
        # Pairwise merging needs room for at least one pair.
        assert Timeline.cap >= 2


# ----------------------------------------------------------------------
# TraceAnalysis on a canned stream.
# ----------------------------------------------------------------------


def _canned_analysis():
    analysis = TraceAnalysis()
    events = [
        _event("machine", "build", 0.0, detail={"organization": "solid_state"}),
        # Two logical store writes to bank 0, one to bank 1.
        _event("flashstore", "write", 1.0, 4096, 1e-3, "logged",
               {"device": "flash-data", "sector": 0, "bank": 0}),
        _event("flashstore", "write", 2.0, 4096, 1e-3, "logged",
               {"device": "flash-data", "sector": 1, "bank": 0}),
        _event("flashstore", "write", 3.0, 8192, 2e-3, "in_place",
               {"device": "flash-data", "sector": 9, "bank": 1}),
        # Physical programs: 3x4096 on bank 0 (one is GC copy traffic),
        # 1x8192 on bank 1.
        _event("flash-data", "program", 1.0, 4096, 5e-4, "ok", {"bank": 0}),
        _event("flash-data", "program", 2.0, 4096, 5e-4, "ok", {"bank": 0}),
        _event("flash-data", "program", 2.5, 4096, 5e-4, "ok", {"bank": 0}),
        _event("flash-data", "program", 3.0, 8192, 1e-3, "ok", {"bank": 1}),
        _event("flash-data", "erase", 4.0, 0, 1e-2, "ok",
               {"sector": 0, "bank": 0}),
        # One GC clean reclaiming 65536 bytes after copying 4096.
        _event("flashstore", "gc_copy", 4.0, 4096, 1e-3, "ok",
               {"sector": 0, "blocks": 1}),
        _event("flashstore", "gc_clean", 4.0, 65536, 1.2e-2, "cleaned",
               {"sector": 0}),
        # Engine dispatches.
        _event("engine", "event", 0.5, detail={"pending": 2, "name": "tick"}),
        _event("engine", "event", 1.5, detail={"pending": 5, "name": "tick"}),
        _event("engine", "event", 2.5, detail={"pending": 1}),
        # A fault and a read-only degradation.
        _event("faults", "bit_flip", 2.2, 1, 0.0, "injected",
               {"offset": 7, "bit": 3, "sector": 0}),
        _event("storage-manager", "read_only", 5.0, 0, 0.0, "degraded",
               {"reason": "flash erased space exhausted", "transition": 1}),
        _event("machine", "reboot", 6.0),
    ]
    for event in events:
        analysis.feed(event)
    return analysis


class TestTraceAnalysis:
    def test_golden_write_amplification(self):
        summary = _canned_analysis().summary()
        wa = summary["write_amplification"]
        bank0 = wa["per_bank"]["flash-data:0"]
        assert bank0["physical_bytes"] == 3 * 4096
        assert bank0["logical_bytes"] == 2 * 4096
        assert bank0["amplification"] == pytest.approx(1.5)
        bank1 = wa["per_bank"]["flash-data:1"]
        assert bank1["amplification"] == pytest.approx(1.0)
        overall = wa["overall"]["flash-data"]
        assert overall["physical_bytes"] == 3 * 4096 + 8192
        assert overall["logical_bytes"] == 2 * 4096 + 8192
        assert overall["amplification"] == pytest.approx(20480 / 16384)

    def test_golden_wear(self):
        summary = _canned_analysis().summary()
        assert summary["wear"]["flash-data:0"] == {
            "programs": 3, "programmed_bytes": 12288, "erases": 1,
        }
        assert summary["wear"]["flash-data:1"] == {
            "programs": 1, "programmed_bytes": 8192, "erases": 0,
        }

    def test_golden_gc(self):
        summary = _canned_analysis().summary()
        gc = summary["gc"]
        assert gc["cleans"] == 1
        assert gc["erase_failures"] == 0
        assert gc["reclaimed_bytes"] == 65536
        assert gc["copy_bytes"] == 4096
        # copied bytes per logical store byte: 4096 / 16384.
        assert gc["cleaning_overhead"] == pytest.approx(0.25)
        assert gc["pause"]["count"] == 1
        assert gc["pause"]["max"] == pytest.approx(1.2e-2)
        assert gc["timeline"] == [[4.0, 65536.0]]

    def test_golden_engine(self):
        summary = _canned_analysis().summary()
        engine = summary["engine"]
        assert engine["events"] == 3
        assert engine["max_pending"] == 5
        tick = engine["names"]["tick"]
        assert tick["count"] == 2
        assert tick["mean_interval_s"] == pytest.approx(1.0)

    def test_golden_ops_and_outcomes(self):
        summary = _canned_analysis().summary()
        write = summary["ops"]["flashstore.write"]
        assert write["count"] == 3
        assert write["bytes"] == 16384
        assert write["outcomes"] == {"in_place": 1, "logged": 2}
        assert summary["machines"] == 1
        assert summary["reboots"] == 1
        assert summary["faults"] == {"bit_flip": 1}
        assert summary["read_only"] == {
            "transitions": 1,
            "reasons": {"flash erased space exhausted": 1},
        }

    def test_render_sections(self):
        text = render_summary(_canned_analysis().summary())
        for heading in (
            "Per-component latency",
            "Busiest operations",
            "GC / cleaning",
            "Flash wear / write amplification",
            "Engine dispatch",
            "Injected faults",
            "Read-only transitions",
        ):
            assert heading in text

    def test_streaming_matches_file(self, tmp_path):
        analysis = _canned_analysis()
        path = tmp_path / "canned.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            events = [
                _event("machine", "build", 0.0,
                       detail={"organization": "solid_state"}),
                _event("flashstore", "write", 1.0, 4096, 1e-3, "logged",
                       {"device": "flash-data", "sector": 0, "bank": 0}),
            ]
            for event in events:
                fh.write(json.dumps(event) + "\n")
        summary = analyze_trace(str(path)).summary()
        assert summary["events"] == 2
        assert summary["machines"] == 1
        # seq/shard stamps from the canonical merge must be ignored.
        with open(path, "a", encoding="utf-8") as fh:
            stamped = dict(events[1], seq=7, shard=3)
            fh.write(json.dumps(stamped) + "\n")
        restamped = analyze_trace(str(path)).summary()
        assert restamped["events"] == 3
        assert analysis.summary()["events"] == 17

    def test_invalid_line_raises_naming_it(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        good = _event("machine", "build", 0.0)
        path.write_text(json.dumps(good) + "\n[1, 2]\n" + json.dumps(good) + "\n")
        with pytest.raises(ValueError, match="line 2: event is list"):
            analyze_trace(str(path))


# ----------------------------------------------------------------------
# Diffs.
# ----------------------------------------------------------------------


class TestDiffs:
    def test_self_diff_empty(self):
        summary = _canned_analysis().summary()
        assert diff_summaries(summary, summary, threshold=0.0) == []

    def test_flags_only_beyond_threshold(self):
        base = _canned_analysis().summary()
        bumped = _canned_analysis()
        bumped.feed(_event("flash-data", "program", 9.0, 4096, 5e-4, "ok",
                           {"bank": 0}))
        current = bumped.summary()
        rows = diff_summaries(base, current, threshold=0.10)
        paths = [row[0] for row in rows]
        # bank-0 physical bytes moved 12288 -> 16384 (+33%); logical
        # bytes did not move at all.
        assert any("flash-data:0.physical_bytes" in p for p in paths)
        assert not any("flash-data:0.logical_bytes" in p for p in paths)
        # Rows come sorted by descending |delta|.
        deltas = [abs(r[3]) for r in rows if r[3] is not None
                  and not math.isinf(r[3])]
        assert deltas == sorted(deltas, reverse=True)
        # A 50% threshold suppresses the +33% move.
        rows50 = diff_summaries(base, current, threshold=0.50)
        assert not any("flash-data:0.physical_bytes" in r[0] for r in rows50)

    def test_from_zero_and_one_sided(self):
        base = {"a": 0.0, "gone": 3.0}
        current = {"a": 5.0, "new": 1.0}
        rows = diff_summaries(base, current, threshold=0.10)
        by_path = {r[0]: r for r in rows}
        assert math.isinf(by_path["a"][3])
        assert by_path["gone"][2] is None and by_path["gone"][3] is None
        assert by_path["new"][1] is None
        assert "only one side" in render_diff(rows)

    def test_timeline_excluded(self):
        base = _canned_analysis().summary()
        other = _canned_analysis()
        other.gc_timeline.add(99.0, 1.0)
        rows = diff_summaries(base, other.summary(), threshold=0.0)
        assert not any(".timeline." in r[0] for r in rows)

    def test_trace_hub_metrics_golden(self):
        summary = _canned_analysis().summary()
        metrics = trace_hub_metrics(summary)
        assert metrics == {
            "flash_bytes_written": 20480.0,
            "flash_erases": 1.0,
            "gc_bytes_copied": 4096.0,
        }

    def test_diff_against_trajectory(self):
        summary = _canned_analysis().summary()
        record = {"stamp": "x", "hub": {
            "flash_bytes_written": 20480.0,
            "flash_erases": 1.0,
            "gc_bytes_copied": 4096.0,
            "replay_records": 123,  # not trace-comparable: ignored
        }}
        assert diff_against_trajectory(summary, record) == []
        record["hub"]["flash_bytes_written"] = 40960.0
        rows = diff_against_trajectory(summary, record)
        assert [r[0] for r in rows] == ["flash_bytes_written"]
        assert rows[0][3] == pytest.approx(-0.5)

    def test_diff_against_trajectory_needs_a_shared_key(self):
        summary = _canned_analysis().summary()
        for record in ({}, {"hub": {"replay_records": 123}}):
            with pytest.raises(ValueError, match="share no trace-comparable"):
                diff_against_trajectory(summary, record)

    def test_real_run_crosschecks_hub(self):
        # The trace-derived metrics must agree with the MetricsHub's own
        # counters for the same run -- the cross-link trace-diff --bench
        # relies on.
        with runtime.tracing(Tracer()) as tracer:
            machine = MobileComputer(
                SystemConfig(organization=Organization.SOLID_STATE, seed=3)
            )
            machine.run_workload("office", duration_s=30.0)
        analysis = TraceAnalysis()
        for record in tracer.records:
            analysis.feed(dict(zip(EVENT_FIELDS, record)))
        derived = trace_hub_metrics(analysis.summary())
        hub = flatten_numeric(machine.hub.snapshot(machine.clock.now))
        assert derived["flash_bytes_written"] == pytest.approx(
            hub["devices.flash-data.bytes_written"]
        )
        assert derived["writebuffer_bytes_in"] == pytest.approx(
            hub["components.writebuffer.counters.bytes_in"]
        )
        assert derived["writebuffer_flushed_bytes"] == pytest.approx(
            hub["components.writebuffer.counters.flushed_bytes"]
        )


# ----------------------------------------------------------------------
# Live metrics and trace analytics agree.
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "org", [Organization.SOLID_STATE, Organization.FLASH_DISK], ids=lambda o: o.value
)
def test_hub_and_analyze_report_the_same_read_latency(org, tmp_path):
    """The MetricsHub's flashstore read histogram and ``analyze``'s
    ``flash-data.read`` histogram see the same latencies, so they must
    report the same count, extremes and percentiles exactly."""
    with runtime.tracing(Tracer()) as tracer:
        machine = MobileComputer(SystemConfig(organization=org, seed=42))
        machine.run_workload("office", duration_s=60.0)
    assert tracer.dropped == 0
    path = str(tmp_path / "trace.jsonl")
    write_trace(path, [tracer.records])
    traced = analyze_trace(path).summary()["ops"]["flash-data.read"]["latency"]
    live = machine.hub.snapshot()["components"]["flashstore"]["histograms"]["read_latency"]
    assert live["count"] > 0
    for key in ("count", "min", "max", "p50", "p95", "p99"):
        assert live[key] == traced[key], key
