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

MB = 1024 * 1024

ORGS = [
    Organization.SOLID_STATE,
    Organization.DISK,
    Organization.FLASH_DISK,
    Organization.FLASH_EIP,
]


def run_one(org: Organization, duration_s: float, seed: int = 0) -> dict:
    config = SystemConfig(
        organization=org,
        dram_bytes=6 * MB,
        flash_bytes=32 * MB,
        disk_bytes=48 * MB,
        seed=seed,
    )
    machine = MobileComputer(config)
    report, metrics = machine.run_workload("office", duration_s=duration_s)
    indirect_reads = 0.0
    cache_misses = 0.0
    seeks = 0
    if machine.cache is not None:
        fs_stats = machine.fs.stats
        indirect_reads = fs_stats.counter("indirect_block_reads").value
        cache_misses = machine.cache.stats.counter("misses").value
    if machine.disk is not None:
        seeks = machine.disk.seeks
    return {
        "org": org.value,
        "report": report,
        "metrics": metrics,
        "indirect_reads": indirect_reads,
        "cache_misses": cache_misses,
        "seeks": seeks,
    }


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 90.0 if quick else 300.0
    rows = []
    by_org = {}
    for org in ORGS:
        out = run_one(org, duration, seed=seed)
        m = out["metrics"]
        rows.append(
            [
                out["org"],
                m.mean_read_latency * 1e3,
                m.p95_read_latency * 1e3,
                m.mean_write_latency * 1e3,
                m.p95_write_latency * 1e3,
                out["indirect_reads"],
                out["cache_misses"],
                out["seeks"],
            ]
        )
        by_org[out["org"]] = out
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
        rows=rows,
    )
    solid = by_org["solid_state"]["metrics"]
    disk = by_org["disk"]["metrics"]
    if solid.mean_write_latency > 0:
        result.notes.append(
            f"disk-organization mean write latency is "
            f"{disk.mean_write_latency / solid.mean_write_latency:.0f}x the "
            "memory-resident FS"
        )
    result.notes.append(
        "memory-resident FS performs zero indirect-block reads and has no "
        "cache to miss -- those columns are structural, not tuning"
    )
    return result
