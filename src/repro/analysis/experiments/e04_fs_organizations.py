"""E4 -- memory-resident FS vs the conventional organization (Section 3.1).

Claims regenerated:

- A memory-resident file system needs no clustering, no multi-level
  indirect blocks, and no buffer cache; operations complete at memory
  speed.
- The conventional FS pays for each of those: metadata block I/O,
  indirect-block reads on large files, cache misses, and (on disk)
  seeks.

Same trace on four machines: the solid-state organization, the disk
organization, and the conventional FS on flash (FTL and erase-in-place).
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.obs.hub import flatten_numeric

MB = 1024 * 1024

ORGS = [
    Organization.SOLID_STATE,
    Organization.DISK,
    Organization.FLASH_DISK,
    Organization.FLASH_EIP,
]


def run_one(org: Organization, duration_s: float, seed: int = 0) -> list:
    config = SystemConfig(
        organization=org,
        dram_bytes=6 * MB,
        flash_bytes=32 * MB,
        disk_bytes=48 * MB,
        seed=seed,
    )
    machine = MobileComputer(config)
    _report, m = machine.run_workload("office", duration_s=duration_s)
    hub = flatten_numeric(machine.hub.snapshot(machine.clock.now))
    return [
        org.value,
        m.mean_read_latency * 1e3,
        m.p95_read_latency * 1e3,
        m.mean_write_latency * 1e3,
        m.p95_write_latency * 1e3,
        hub.get("components.diskfs.counters.indirect_block_reads", 0.0),
        hub.get("components.buffercache.counters.misses", 0.0),
        int(hub.get("devices.disk.seeks", 0)),
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 90.0 if quick else 300.0
    result = ExperimentResult(
        experiment_id="E4",
        title="File-system organizations on the office workload",
        headers=[
            "organization",
            "read_ms",
            "read_p95_ms",
            "write_ms",
            "write_p95_ms",
            "indirect_reads",
            "cache_misses",
            "seeks",
        ],
        rows=[run_one(org, duration, seed=seed) for org in ORGS],
    )
    write_ms = {row["organization"]: row["write_ms"] for row in result.row_dicts()}
    if write_ms["solid_state"] > 0:
        result.notes.append(
            f"disk-organization mean write latency is "
            f"{write_ms['disk'] / write_ms['solid_state']:.0f}x the "
            "memory-resident FS"
        )
    result.notes.append(
        "memory-resident FS performs zero indirect-block reads and has no "
        "cache to miss -- those columns are structural, not tuning"
    )
    return result
