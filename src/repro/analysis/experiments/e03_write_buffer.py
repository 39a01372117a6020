"""E3 -- the write-buffer claim (paper Section 3.3, citing Baker '91).

"Trace-driven simulations of networked workstations have shown that as
little as one megabyte of battery-backed RAM can reduce write traffic by
40 to 50%."

The driver sweeps the DRAM write-buffer size on the office workload (the
workstation-like mix) and reports the fraction of application write
bytes that never reach flash, plus the flash bytes actually programmed
and the mean application write latency.  The expected shape: a steep
climb to ~40-60% around 0.5-1 MB, then diminishing returns -- plus the
contrast workloads (database: little locality, so the buffer helps far
less; pim: tiny hot set, so a small buffer is enough).
"""

from __future__ import annotations

from typing import List, Optional

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer

KB = 1024
MB = 1024 * 1024

DEFAULT_SIZES = [0, 128 * KB, 256 * KB, 512 * KB, 1 * MB, 2 * MB, 4 * MB]


def run_one(
    workload: str,
    buffer_bytes: int,
    duration_s: float,
    seed: int = 0,
) -> dict:
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=max(8 * MB, buffer_bytes + 4 * MB),
        flash_bytes=32 * MB,
        write_buffer_bytes=buffer_bytes,
        seed=seed,
    )
    machine = MobileComputer(config)
    report, metrics = machine.run_workload(workload, duration_s=duration_s)
    return {
        "workload": workload,
        "buffer_bytes": buffer_bytes,
        "reduction": metrics.write_traffic_reduction,
        "flash_bytes": metrics.flash_bytes_programmed,
        "app_bytes": report.bytes_written,
        "mean_write_latency": metrics.mean_write_latency,
        "energy_joules": metrics.energy_joules,
    }


def run(
    quick: bool = False,
    sizes: Optional[List[int]] = None,
    workloads: Optional[List[str]] = None,
    seed: int = 0,
) -> ExperimentResult:
    duration = 120.0 if quick else 600.0
    sizes = DEFAULT_SIZES if sizes is None else sizes
    workloads = ["office"] if quick else ["office", "pim", "database"]
    rows = []
    reduction_at_1mb = {}
    for workload in workloads:
        for size in sizes:
            out = run_one(workload, size, duration, seed=seed)
            rows.append(
                [
                    workload,
                    size // KB,
                    out["reduction"],
                    out["flash_bytes"] / MB,
                    out["app_bytes"] / MB,
                    out["mean_write_latency"] * 1e3,
                ]
            )
            if size == 1 * MB:
                reduction_at_1mb[workload] = out["reduction"]

    result = ExperimentResult(
        experiment_id="E3",
        title="Write-traffic reduction vs DRAM write-buffer size",
        headers=[
            "workload",
            "buffer_KB",
            "reduction",
            "flash_MB",
            "app_MB",
            "write_ms",
        ],
        rows=rows,
    )
    for workload, reduction in reduction_at_1mb.items():
        result.notes.append(
            f"{workload}: 1 MB buffer absorbs {reduction:.0%} of write traffic "
            "(paper claim for workstation traces: 40-50%)"
        )
    return result
