"""X1 (ablation) -- compressing the buffer-to-flash path.

Paper Section 5 promises the solid-state organization will "improve
space utilization"; the authors' follow-up work (OSDI '94) evaluated
compression as the lever.  This ablation runs the same workloads with
and without compression and reports the trade:

- flash bytes programmed (space and wear win),
- effective capacity multiplier,
- write/read latency (the CPU toll on every flush and read miss).
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer

MB = 1024 * 1024


def run_one(workload: str, compress: bool, duration: float, seed: int) -> dict:
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=6 * MB,
        flash_bytes=16 * MB,
        compress_flash=compress,
        seed=seed,
    )
    machine = MobileComputer(config)
    report, metrics = machine.run_workload(workload, duration_s=duration)
    ratio = (
        machine.manager.compressor.space_ratio()
        if machine.manager.compressor is not None
        else 1.0
    )
    return {
        "flash_bytes": metrics.flash_bytes_programmed,
        "app_bytes": report.bytes_written,
        "ratio": ratio,
        "write_ms": metrics.mean_write_latency * 1e3,
        "read_ms": metrics.mean_read_latency * 1e3,
        "erases": metrics.flash_erases,
    }


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 90.0 if quick else 300.0
    workloads = ["office"] if quick else ["office", "sequential_media"]
    rows = []
    gains = {}
    for workload in workloads:
        off = run_one(workload, compress=False, duration=duration, seed=seed)
        on = run_one(workload, compress=True, duration=duration, seed=seed)
        saving = 1.0 - (on["flash_bytes"] / off["flash_bytes"]) if off["flash_bytes"] else 0.0
        gains[workload] = saving
        for label, out in (("off", off), ("on", on)):
            rows.append(
                [
                    workload,
                    label,
                    out["flash_bytes"] / MB,
                    out["ratio"],
                    out["write_ms"],
                    out["read_ms"],
                    out["erases"] or None,
                ]
            )
    result = ExperimentResult(
        experiment_id="X1",
        title="Ablation: flash compression on the flush path",
        headers=[
            "workload",
            "compress",
            "flash_MB",
            "stored/input",
            "write_ms",
            "read_ms",
            "erases",
        ],
        rows=rows,
    )
    for workload, saving in gains.items():
        result.notes.append(
            f"{workload}: compression cuts flash traffic by {saving:.0%} "
            "(with ~2:1-compressible payloads), at the cost of CPU time on "
            "flushes and read misses and of losing zero-copy mmap"
        )
    return result
