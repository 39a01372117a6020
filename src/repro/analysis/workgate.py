"""Deterministic work gate: exact Python call counts per replay.

Wall-clock throughput is noisy and host-bound; the number of Python
calls a seed-deterministic replay makes is neither.  This gate replays
fixed traces under :mod:`cProfile` and counts the calls into ``repro.*``
functions, keyed by module (``repro.fs.cache``, ``repro.devices.dram``,
...).  The counts depend only on the code and the Python minor version,
so the committed file (:data:`COUNTS_FILE`) must match a re-measurement
exactly: more calls means extra host work; fewer means the file is
stale and must be re-recorded with ``make work-record``
(``python -m repro.analysis.workgate``).

The runs are fixed here, not configurable: the office trace on all five
organizations, plus a database trace on ``flash_disk`` with flash small
enough that the cleaner copies live data.  Wall-clock evidence lives in
``replaybench/`` (paired median-of-N runs).
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
from repro.obs.analyze import hub_metrics
from repro.sim.rand import RandomStream
from repro.trace import replay

SEED = 1
COUNTS_FILE = os.path.join("benchmarks", "work_counts.json")

#: (run name, organization, workload, simulated seconds, flash bytes).
RUNS: Tuple[Tuple[str, Organization, str, float, int], ...] = tuple(
    (f"office/{org.value}", org, "office", 60.0, 16 * MB) for org in Organization
) + (("database/flash_disk", Organization.FLASH_DISK, "database", 300.0, 10 * MB),)

#: The run whose trace-comparable hub counters the file also records, so
#: ``trace-diff --bench`` can check a trace of the same run against them
#: (:func:`repro.obs.analyze.hub_metrics`).
HUB_RUN = "office/solid_state"

_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _module_of(filename: str) -> str:
    """``repro.<package>.<module>`` for a source file, or '' outside repro."""
    rel = os.path.relpath(os.path.abspath(filename), _REPRO_ROOT)
    if rel.startswith(os.pardir) or not rel.endswith(".py"):
        return ""
    return ".".join(["repro"] + rel[:-3].split(os.sep)).replace(".__init__", "")


def measure(runs: Sequence[str] = tuple(run[0] for run in RUNS)) -> dict:
    """Measure the named runs (all of :data:`RUNS` by default).

    Each run's machine set-up and replay are profiled together.  The
    payload and Zipf memos are process-global, so every run clears them
    first: a warm memo would skip calls.
    """
    record: dict = {"python": "%d.%d" % sys.version_info[:2], "records": {}, "calls": {}}
    for name, org, workload, duration_s, flash_bytes in RUNS:
        if name not in runs:
            continue
        replay._payload.cache_clear()
        replay._pattern_unit.cache_clear()
        RandomStream._zipf_cache.clear()
        config = SystemConfig(organization=org, flash_bytes=flash_bytes, seed=SEED)
        profiler = cProfile.Profile(subcalls=False, builtins=False)
        machine = profiler.runcall(MobileComputer, config)
        report, _ = profiler.runcall(machine.run_workload, workload, duration_s=duration_s)
        calls: Dict[str, int] = {}
        for (filename, _line, _func), stat in pstats.Stats(profiler).stats.items():
            module = _module_of(filename)
            if module:
                calls[module] = calls.get(module, 0) + stat[1]
        record["records"][name] = report.records
        record["calls"][name] = calls
        if name == HUB_RUN:
            record["hub"] = hub_metrics(machine.hub)
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
