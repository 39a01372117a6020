"""E10 -- apportioning storage between DRAM and flash (Section 4).

Claims regenerated:

- "Today, one may have to choose between 12 megabytes of DRAM, 20
  megabytes of flash memory, or 120 megabytes of magnetic disk for the
  same cost."
- "The answer depends on the workload.  DRAM has the advantage of
  better write performance and relatively unlimited endurance, but flash
  memory uses less power and must ultimately be the repository for
  long-lived data."
- "If one could be certain that the writable working set ... would never
  exceed some threshold, one could configure enough DRAM to buffer these
  writes and keep the remaining data in flash memory."

The driver fixes a storage budget in 1993 dollars and sweeps the
DRAM:flash split, running three workloads with different writable
working sets.  Reported per split: performance, energy, flash lifetime,
and whether the configuration ran out of flash -- the frontier the paper
says must be chosen by expected workload.
"""

from __future__ import annotations

import math

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.catalog import DRAM_NEC_LOW_POWER, FLASH_PAPER_NOMINAL
from repro.storage.allocator import OutOfFlashSpace

MB = 1024 * 1024

#: DRAM candidate sizes for the sweep (bytes).
DRAM_POINTS = [2 * MB, 3 * MB, 4 * MB, 6 * MB, 8 * MB]
BUDGET_DOLLARS = 1600.0


def _flash_for_budget(dram_bytes: int, budget: float) -> int:
    dram_cost = DRAM_NEC_LOW_POWER.dollars_per_mb * dram_bytes / MB
    flash_dollars = budget - dram_cost
    flash_mb = flash_dollars / FLASH_PAPER_NOMINAL.dollars_per_mb
    flash_bytes = int(flash_mb * MB)
    # Round down to bank x sector granularity (4 banks x 4 KB sectors).
    granule = 4 * FLASH_PAPER_NOMINAL.erase_sector_bytes
    return max(granule, (flash_bytes // granule) * granule)


def _run_case(dram_bytes: int, workload: str, duration: float, seed: int) -> list:
    flash_bytes = _flash_for_budget(dram_bytes, BUDGET_DOLLARS)
    config = SystemConfig(
        organization=Organization.SOLID_STATE,
        dram_bytes=dram_bytes,
        flash_bytes=flash_bytes,
        write_buffer_bytes=max(256 * 1024, dram_bytes // 4),
        program_flash_bytes=1 * MB,
        seed=seed,
    )
    machine = MobileComputer(config)
    row = [workload, dram_bytes / MB, flash_bytes / MB]
    try:
        _report, m = machine.run_workload(workload, duration_s=duration)
    except OutOfFlashSpace:
        return row + [None, None, None, None, "no"]
    lifetime = None
    if m.lifetime is not None and not math.isinf(m.lifetime.projected_days):
        lifetime = m.lifetime.projected_days
    return row + [
        m.mean_write_latency * 1e3,
        m.write_traffic_reduction,
        m.energy_joules,
        lifetime,
        "yes",
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 90.0 if quick else 300.0
    workloads = ["office"] if quick else ["office", "pim", "database"]
    result = ExperimentResult(
        experiment_id="E10",
        title=f"DRAM:flash split under a ${BUDGET_DOLLARS:.0f} budget",
        headers=[
            "workload",
            "dram_MB",
            "flash_MB",
            "write_ms",
            "reduction",
            "energy_J",
            "lifetime_days",
            "fits",
        ],
        rows=[
            _run_case(dram_bytes, workload, duration, seed)
            for workload in workloads
            for dram_bytes in DRAM_POINTS
        ],
    )
    result.notes.append(
        "the best split is workload-dependent (paper: 'The answer depends on "
        "the workload'): write-heavy mixes benefit from more DRAM buffer, "
        "data-heavy ones need the flash capacity"
    )
    result.notes.append(
        "paper's cost identity at this budget: ~19 MB of DRAM alone, ~32 MB of "
        "flash alone, or ~193 MB of disk"
    )
    return result
