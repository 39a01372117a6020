"""Tests for the benchmark's own arithmetic: span self time, the shadow
model and read-back check, the determinism fingerprint, and the scaling
of host times to the reference host.

Run from the repository root::

    python3 -m pytest replaybench -q
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import hostspeed  # noqa: E402
import run  # noqa: E402
from layers import ROOT, SpanRecorder  # noqa: E402
from shadow import ShadowFS, read_back  # noqa: E402

from repro.core.config import Organization, SystemConfig  # noqa: E402
from repro.core.hierarchy import MobileComputer  # noqa: E402
from repro.trace.model import OpType, TraceRecord  # noqa: E402
from repro.trace.replay import payload_for  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


CLOCK = FakeClock()


class Upper:
    def op(self, lower: "Lower") -> str:
        CLOCK.now += 1.0
        lower.leaf()
        CLOCK.now += 2.0
        lower.leaf()
        return "done"


class Lower:
    def leaf(self) -> None:
        CLOCK.now += 5.0

    def outer(self) -> None:
        CLOCK.now += 1.0
        self.leaf()

    def boom(self) -> None:
        CLOCK.now += 4.0
        raise KeyError("boom")


class Derived(Lower):
    pass


class Sink:
    def put(self, key: str, data: bytes) -> None:
        pass


SITES = [
    ("upper", Upper, "op"),
    ("lower", Lower, "leaf"),
    ("lower", Lower, "outer"),
    ("lower", Lower, "boom"),
]


class TestSpanRecorder:
    def test_self_time_excludes_child_spans(self):
        rec = SpanRecorder(SITES, clock=CLOCK, data_args={})
        with rec.installed():
            start = CLOCK.now
            with rec.root():
                CLOCK.now += 0.5
                assert Upper().op(Lower()) == "done"
                Lower().outer()
                CLOCK.now += 0.25
            wall = CLOCK.now - start
        assert rec.layer_self_s("upper") == 3.0
        # Two leaves under Upper, plus outer's own second and its leaf.
        assert rec.layer_self_s("lower") == 16.0
        assert rec.layer_self_s(ROOT) == 0.75
        assert wall == 19.75
        assert rec.closure_error(wall) == 0.0

    def test_crossings_count_layer_entries_invocations_count_calls(self):
        rec = SpanRecorder(SITES, clock=CLOCK, data_args={})
        with rec.installed(), rec.root():
            Upper().op(Lower())
            Lower().outer()
        # leaf: twice from Upper (crossings) + once from outer (nested).
        assert rec.layer_calls("lower") == 3
        assert rec.method_invocations("lower", "leaf") == 3
        assert rec.layer_calls("upper") == 1

    def test_nothing_recorded_outside_the_root_span(self):
        rec = SpanRecorder(SITES, clock=CLOCK, data_args={})
        with rec.installed():
            Upper().op(Lower())
        assert rec.layer_calls("lower") == 0
        assert sum(rec.self_s) == 0.0

    def test_exception_closes_its_span(self):
        rec = SpanRecorder(SITES, clock=CLOCK, data_args={})
        with rec.installed():
            start = CLOCK.now
            with rec.root():
                with pytest.raises(KeyError):
                    Lower().boom()
                CLOCK.now += 1.0
            wall = CLOCK.now - start
        assert rec.layer_self_s("lower") == 4.0
        assert rec.layer_self_s(ROOT) == 1.0
        assert rec.closure_error(wall) == 0.0

    def test_data_bytes_summed(self):
        rec = SpanRecorder([("sink", Sink, "put")], clock=CLOCK,
                           data_args={(Sink, "put"): 2})
        with rec.installed(), rec.root():
            Sink().put("k", b"abc")
            Sink().put("k", b"de")
        assert rec.method_bytes("sink", "put") == 5

    def test_wrappers_removed_afterwards(self):
        original = Lower.__dict__["leaf"]
        rec = SpanRecorder(SITES + [("derived", Derived, "leaf")], clock=CLOCK,
                           data_args={})
        with rec.installed():
            assert Lower.__dict__["leaf"] is not original
            assert "leaf" in Derived.__dict__
        assert Lower.__dict__["leaf"] is original
        assert "leaf" not in Derived.__dict__


def _hand_trace():
    R, O = TraceRecord, OpType
    return [
        R(0.0, O.MKDIR, "/d"),
        R(0.0, O.CREATE, "/d/a"),
        R(1.0, O.WRITE, "/d/a", offset=0, nbytes=100),
        R(2.0, O.WRITE, "/d/a", offset=150, nbytes=10),
        R(3.0, O.TRUNCATE, "/d/a", nbytes=120),
        R(4.0, O.WRITE, "/d/b", offset=0, nbytes=40),
        R(5.0, O.RENAME, "/d/b", new_path="/d/c"),
        R(6.0, O.CREATE, "/d/a"),
        R(7.0, O.WRITE, "/d/gone", offset=0, nbytes=8),
        R(8.0, O.DELETE, "/d/gone"),
        R(9.0, O.TRUNCATE, "/d/c", nbytes=60),
        R(10.0, O.MKDIR, "/e"),
        R(11.0, O.WRITE, "/e/f", offset=0, nbytes=16),
        R(12.0, O.RENAME, "/e", new_path="/g"),
        R(13.0, O.WRITE, "/d/h", offset=0, nbytes=30),
        R(14.0, O.READ, "/d/h", offset=0, nbytes=30),
        R(15.0, O.RENAME, "/d/c", new_path="/d/h"),
        R(16.0, O.SYNC, "/"),
    ]


EXPECTED_FILES = {
    # Truncate cut the second write (at 150) and left a zero hole 100-120.
    "/d/a": payload_for("/d/a", 0, 100) + bytes(20),
    # /d/b became /d/c, was zero-extended to 60, then renamed over /d/h.
    "/d/h": payload_for("/d/b", 0, 40) + bytes(20),
    # The directory rename moved /e/f, whose bytes keep their old seed.
    "/g/f": payload_for("/e/f", 0, 16),
}


class TestShadow:
    def test_hand_written_trace(self):
        shadow = ShadowFS.from_trace(_hand_trace())
        assert shadow.dirs == {"/", "/d", "/g"}
        assert {p: bytes(b) for p, b in shadow.files.items()} == EXPECTED_FILES

    @pytest.mark.parametrize("organization", [Organization.SOLID_STATE, Organization.DISK])
    def test_read_back_matches_a_real_replay(self, organization):
        machine = MobileComputer(SystemConfig(organization=organization))
        report = machine.run_streams([_hand_trace()])
        assert report.errors == 0
        shadow = ShadowFS.from_trace(_hand_trace())
        assert read_back(machine.fs, shadow) == []

        machine.fs.write("/d/a", 5, b"X")
        machine.fs.delete("/g/f")
        machine.fs.create("/d/extra")
        assert read_back(machine.fs, shadow) == ["/d/a", "/d/extra", "/g/f"]


class TestFingerprint:
    def _replayed(self, trace):
        machine = MobileComputer(SystemConfig(organization=Organization.SOLID_STATE))
        machine.run_streams([trace])
        return machine

    def test_hub_digest_repeats_for_the_same_trace_only(self):
        first = self._replayed(_hand_trace())
        assert run.hub_sha256(first) == run.hub_sha256(self._replayed(_hand_trace()))
        other = _hand_trace()[:-3]
        assert run.hub_sha256(first) != run.hub_sha256(self._replayed(other))
        assert run.trace_sha256(_hand_trace()) != run.trace_sha256(other)

    def test_reading_program_counters_leaves_the_digest_alone(self):
        machine = self._replayed(_hand_trace())
        digest = run.hub_sha256(machine)
        run.program_counts(machine)
        assert run.hub_sha256(machine) == digest

    def test_stored_fingerprint_flags_a_change(self, tmp_path, monkeypatch):
        monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
        assert run.check_fingerprint("w", 1, {"hub_sha256": "a"}) == []
        assert run.check_fingerprint("w", 1, {"hub_sha256": "a", "calls": {"x": 1}}) == []
        assert run.check_fingerprint("w", 1, {"calls": {"x": 2}}) == ["calls"]
        assert run.check_fingerprint("w", 2, {"hub_sha256": "b"}) == []


class TestHostSpeed:
    REF = hostspeed.REFERENCE_S

    def test_times_at_reference_speed_are_unchanged(self):
        assert hostspeed.to_reference(4.0, 3 * self.REF, 3) == pytest.approx(4.0)

    def test_a_host_at_half_speed_shortens_its_times(self):
        # Three calibration rounds took twice the reference's time.
        half = 0.5 ** hostspeed.EXPONENT
        assert hostspeed.to_reference(4.0, 6 * self.REF, 3) == pytest.approx(4.0 * half)

    def test_replay_rate_on_the_reference_host(self):
        rep = run.Rep(records=100, setup_s=0.0, gen_s=0.0, wall_s=2.0,
                      calibration_s=4 * self.REF, calibrations=2)
        assert rep.ops_per_s == 50.0
        assert rep.ref_ops_per_s == pytest.approx(50.0 / 0.5 ** hostspeed.EXPONENT)

    def test_calibrated_stream_yields_every_record_and_calibrates_per_chunk(
            self, monkeypatch):
        monkeypatch.setattr(hostspeed, "calibrate", lambda rounds=1: 0.5)
        records = list(range(2 * run.CHUNK_RECORDS + 1))
        calibrations = []
        assert list(run.calibrated_stream(records, calibrations)) == records
        # Before records 0, CHUNK and 2*CHUNK, and once after the last.
        assert calibrations == [0.5] * 4

    def test_round_count_depends_on_the_budget_only(self):
        workload = run.WORKLOADS["office-disk"]
        assert workload.rounds(35, 2) == int(35 / (2 * workload.replay_s))
        assert workload.rounds(35, 3) < workload.rounds(35, 2)
        assert workload.rounds(0.1, 2) == run.MIN_ROUNDS


def test_workloads_name_real_profiles_and_layers():
    from layers import LAYERS
    from repro.trace.workloads import WORKLOADS as PROFILES

    layer_names = {name for name, _entries in LAYERS}
    for workload in run.WORKLOADS.values():
        assert workload.profile in PROFILES
        Organization(workload.organization)
        assert set(workload.idle_layers) <= layer_names
