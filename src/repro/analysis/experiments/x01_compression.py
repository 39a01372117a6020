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


def run_one(workload: str, compress: bool, duration: float, seed: int) -> list:
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=6 * MB,
        flash_bytes=16 * MB,
        compress_flash=compress,
        seed=seed,
    )
    machine = MobileComputer(config)
    _report, m = machine.run_workload(workload, duration_s=duration)
    components = machine.hub.snapshot(machine.clock.now)["components"]
    return [
        workload,
        "on" if compress else "off",
        m.flash_bytes_programmed / MB,
        components["compressor"]["derived"]["space_ratio"] if compress else 1.0,
        m.mean_write_latency * 1e3,
        m.mean_read_latency * 1e3,
        m.flash_erases or None,
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 90.0 if quick else 300.0
    workloads = ["office"] if quick else ["office", "sequential_media"]
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
        rows=[
            run_one(workload, compress, duration, seed)
            for workload in workloads
            for compress in (False, True)
        ],
    )
    rows = result.row_dicts()
    for off, on in zip(rows[::2], rows[1::2]):
        saving = 1.0 - on["flash_MB"] / off["flash_MB"] if off["flash_MB"] else 0.0
        result.notes.append(
            f"{off['workload']}: compression cuts flash traffic by {saving:.0%} "
            "(with ~2:1-compressible payloads), at the cost of CPU time on "
            "flushes and read misses and of losing zero-copy mmap"
        )
    return result
