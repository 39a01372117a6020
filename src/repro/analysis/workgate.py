"""Deterministic work gate: exact Python call and line counts per replay.

Wall-clock throughput is noisy and host-bound; the number of Python
calls a seed-deterministic replay makes is neither.  This gate replays
fixed traces under :mod:`cProfile` and counts the calls into ``repro.*``
functions, keyed by module (``repro.fs.cache``, ``repro.devices.dram``,
...).  Work done inside one frame -- a loop that makes no call -- is
invisible to call counts, so the runs in :data:`LINE_RUNS` also count
``sys.settrace`` line events per module.  The counts depend only on the
code and the Python minor version, so the committed file
(:data:`COUNTS_FILE`) must match a re-measurement exactly: more calls or
lines means extra host work; fewer means the file is stale and must be
re-recorded with ``make work-record``
(``python -m repro.analysis.workgate``).

The runs are fixed here, not configurable: the office trace on all five
organizations, plus a database trace on ``flash_disk`` with flash small
enough that the cleaner copies live data, plus one traced office run on
``solid_state`` with every stock online monitor attached, so the calls
into ``repro.obs.*`` per op -- the host cost of tracing -- are pinned
too.  Wall-clock evidence lives in ``replaybench/`` (paired median-of-N
runs).
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import sys
from typing import Dict, List, Sequence, Tuple

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.catalog import MB
from repro.obs import Tracer, runtime
from repro.obs.analyze import TRACE_COMPARABLE_HUB_KEYS
from repro.obs.hub import flatten_numeric
from repro.obs.monitor import MonitorSet, build_monitors
from repro.sim.rand import zipf_cdf

SEED = 1
COUNTS_FILE = os.path.join("benchmarks", "work_counts.json")

#: (run name, organization, workload, simulated seconds, flash bytes,
#: traced).  A traced run builds and replays its machine under a Tracer
#: with every stock online monitor attached.
RUNS: Tuple[Tuple[str, Organization, str, float, int, bool], ...] = tuple(
    (f"office/{org.value}", org, "office", 60.0, 16 * MB, False) for org in Organization
) + (
    ("database/flash_disk", Organization.FLASH_DISK, "database", 300.0, 10 * MB, False),
    ("office/solid_state+monitors", Organization.SOLID_STATE, "office", 60.0, 16 * MB, True),
)

#: The runs whose line events are counted too (line tracing costs about
#: 2.5x the replay, so not every run pays it): the in-place store, the
#: cleaner-heavy block-FS run and the traced run.
LINE_RUNS = ("office/naive_flash", "database/flash_disk", "office/solid_state+monitors")

#: The run whose trace-comparable hub counters the file also records, so
#: ``trace-diff --bench`` can check a trace of the same run against them
#: (:data:`repro.obs.analyze.TRACE_COMPARABLE_HUB_KEYS`).
HUB_RUN = "office/solid_state"

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module_of(filename: str) -> str:
    """``repro.<package>.<module>`` for a source file, or '' outside repro."""
    rel = os.path.relpath(os.path.abspath(filename), _REPRO_ROOT)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return ""
    return ".".join(["repro"] + rel[:-3].split(os.sep)).replace(".__init__", "")


def _line_counter(lines: Dict[str, int]):
    """A :func:`sys.settrace` function adding each line event in a
    ``repro`` module to ``lines[module]``; frames elsewhere run
    untraced."""
    local_of: Dict[str, object] = {}

    def count_into(module: str):
        lines.setdefault(module, 0)

        def local(frame, event, arg):
            if event == "line":
                lines[module] += 1
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            return local_of[filename]
        except KeyError:
            module = _module_of(filename)
            local = local_of[filename] = count_into(module) if module else None
            return local

    return on_call


def measure(runs: Sequence[str] = tuple(run[0] for run in RUNS)) -> dict:
    """Measure the named runs (all of :data:`RUNS` by default).

    Each run's machine set-up and replay are profiled together; a
    traced run's tracer and monitors are built and attached outside the
    profile, so it counts only what tracing costs per event.  A run in
    :data:`LINE_RUNS` is line-traced during the same two calls (the
    trace function itself is neither profiled nor traced, so the call
    counts are the same as without line tracing).  The Zipf CDF memo is
    process-global, so every run clears it first: a warm memo would
    skip calls.
    """
    record: dict = {
        "python": "%d.%d" % sys.version_info[:2], "records": {}, "calls": {}, "lines": {}
    }
    for name, org, workload, duration_s, flash_bytes, traced in RUNS:
        if name not in runs:
            continue
        zipf_cdf.cache_clear()
        config = SystemConfig(organization=org, flash_bytes=flash_bytes, seed=SEED)
        tracer = Tracer() if traced else None
        monitors = MonitorSet(build_monitors())
        if tracer is not None:
            monitors.attach(tracer)
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        lines: Dict[str, int] = {}
        previous = sys.gettrace()
        if name in LINE_RUNS:
            sys.settrace(_line_counter(lines))
        try:
            with runtime.tracing(tracer):
                machine = profiler.runcall(MobileComputer, config)
                report, _ = profiler.runcall(
                    machine.run_workload, workload, duration_s=duration_s
                )
        finally:
            sys.settrace(previous)
        monitors.detach()
        calls: Dict[str, int] = {}
        for (filename, _line, _func), stat in pstats.Stats(profiler).stats.items():
            module = _module_of(filename)
            if module:
                calls[module] = calls.get(module, 0) + stat[1]
        record["records"][name] = report.records
        record["calls"][name] = calls
        if lines:
            record["lines"][name] = lines
        if name == HUB_RUN:
            flat = flatten_numeric(machine.hub.snapshot(machine.clock.now))
            record["hub"] = {
                key: flat.get(path, 0.0) for key, path in TRACE_COMPARABLE_HUB_KEYS.items()
            }
    return record


def compare(expected: dict, measured: dict) -> List[str]:
    """Every difference between two count records; ``[]`` when equal.

    Counts differ between Python minor versions (for one, 3.12 inlines
    comprehensions), so a version mismatch is reported on its own
    rather than as a wall of per-module deltas.
    """
    if expected["python"] != measured["python"]:
        return [
            f"counts were recorded under Python {expected['python']} but "
            f"measured under Python {measured['python']}; re-record them "
            f"with `make work-record`"
        ]
    old, new = _flatten(expected), _flatten(measured)
    return [
        f"{key}: {old.get(key, '-')} -> {new.get(key, '-')}"
        for key in sorted(set(old) | set(new))
        if old.get(key) != new.get(key)
    ]


def _flatten(record: dict, prefix: str = "") -> Dict[str, object]:
    out: Dict[str, object] = {}
    for key, value in record.items():
        if isinstance(value, dict):
            out.update(_flatten(value, f"{prefix}{key} "))
        else:
            out[prefix + key] = value
    return out


if __name__ == "__main__":
    with open(COUNTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(measure(), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"work counts written: {COUNTS_FILE}")
