"""The deterministic work gate: exact per-module Python call counts.

Re-measures every fixed replay of :mod:`repro.analysis.workgate` and
requires the counts committed in ``benchmarks/work_counts.json`` back
exactly.  More calls is extra host work; fewer means the file is stale.
Re-record an intended change with ``make work-record``.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis import workgate
from repro.fs.diskfs import ConventionalFileSystem

COUNTS_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, workgate.COUNTS_FILE
)

#: The office runs whose file system is ConventionalFileSystem.
BLOCK_FS_RUNS = ("office/disk", "office/flash_disk", "office/flash_eip")


@pytest.fixture(scope="module")
def committed():
    with open(COUNTS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def measured():
    return workgate.measure()


def _runs(record, runs):
    """The per-run part of a record, restricted to ``runs``."""
    return {
        "python": record["python"],
        "records": {run: record["records"][run] for run in runs},
        "calls": {run: record["calls"][run] for run in runs},
    }


def _flagged(problems):
    return {line.split(":")[0] for line in problems}


def test_counts_match_committed_file(committed, measured):
    problems = workgate.compare(committed, measured)
    assert not problems, (
        "work counts differ from the committed file (re-record with "
        "`make work-record` if the change is intended):\n" + "\n".join(problems)
    )


@pytest.fixture(scope="module")
def injected():
    """The block-FS runs with one extra ``cache.read`` per FS write."""
    original = ConventionalFileSystem.write

    def write(self, path, offset, data):
        self.cache.read(0)
        return original(self, path, offset, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ConventionalFileSystem, "write", write)
        return workgate.measure(BLOCK_FS_RUNS)


def test_every_run_replays_records_and_counts_repro_calls(measured):
    assert set(measured["records"]) == {run[0] for run in workgate.RUNS}
    for run in measured["records"]:
        assert measured["records"][run] > 0
        assert measured["calls"][run]["repro.trace.replay"] > 0
        assert all(name.startswith("repro.") for name in measured["calls"][run])
        assert all(count > 0 for count in measured["calls"][run].values())


def test_extra_cache_read_per_diskfs_write_fails(measured, injected):
    baseline = _runs(measured, BLOCK_FS_RUNS)
    more = workgate.compare(baseline, injected)
    for run in BLOCK_FS_RUNS:
        assert f"calls {run} repro.fs.cache" in _flagged(more)
        assert (
            injected["calls"][run]["repro.fs.cache"]
            > baseline["calls"][run]["repro.fs.cache"]
        )


def test_removing_calls_fails_too(measured, injected):
    # Taking the extra calls away again is flagged: a decrease fails
    # until the file is re-recorded.
    fewer = workgate.compare(injected, _runs(measured, BLOCK_FS_RUNS))
    for run in BLOCK_FS_RUNS:
        assert f"calls {run} repro.fs.cache" in _flagged(fewer)


def test_unchanged_measurement_passes(measured):
    baseline = _runs(measured, BLOCK_FS_RUNS)
    assert workgate.compare(baseline, _runs(measured, BLOCK_FS_RUNS)) == []
    assert workgate.compare(measured, json.loads(json.dumps(measured))) == []


def test_compare_flags_only_changed_counts(measured):
    changed = json.loads(json.dumps(measured))
    changed["calls"]["office/disk"]["repro.fs.cache"] += 1
    changed["calls"]["office/naive_flash"]["repro.devices.dram"] -= 1
    changed["records"]["database/flash_disk"] += 1
    assert _flagged(workgate.compare(measured, changed)) == {
        "calls office/disk repro.fs.cache",
        "calls office/naive_flash repro.devices.dram",
        "records database/flash_disk",
    }


def test_python_version_mismatch_names_both_versions(committed):
    other = dict(committed, python="2.7")
    problems = workgate.compare(committed, other)
    assert len(problems) == 1
    assert committed["python"] in problems[0] and "2.7" in problems[0]
