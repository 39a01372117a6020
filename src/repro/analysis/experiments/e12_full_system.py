"""E12 -- the full-system comparison (Section 5).

Claims regenerated (the paper's conclusion):

- "The operating system needs to exploit the advantages of this
  organization while hiding its limitations.  For example, the file
  system can be entirely memory-resident; read-only data can be accessed
  directly from flash memory; and a DRAM buffer can reduce write traffic
  to flash memory.  These steps will increase performance, improve space
  utilization, and prolong the life of flash memory."
- Flash "offers significant power savings over disk drives, thus
  prolonging battery life."

Every organization runs the same workloads; the solid-state organization
with all policies on should win on latency, energy, and flash lifetime
simultaneously -- while the naive flash organization shows that the
advantages do not come from the medium alone but from the OS managing
it.
"""

from __future__ import annotations

import math

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer

MB = 1024 * 1024

ORG_ORDER = [
    Organization.SOLID_STATE,
    Organization.DISK,
    Organization.FLASH_DISK,
    Organization.FLASH_EIP,
    Organization.NAIVE_FLASH,
]


def run_one(org: Organization, workload: str, duration: float, seed: int) -> list:
    config = SystemConfig(
        organization=org,
        dram_bytes=6 * MB,
        flash_bytes=32 * MB,
        disk_bytes=48 * MB,
        seed=seed,
    )
    _report, m = MobileComputer(config).run_workload(workload, duration_s=duration)
    lifetime = None
    if m.lifetime is not None and not math.isinf(m.lifetime.projected_seconds):
        lifetime = m.lifetime.projected_days
    return [
        workload,
        m.organization,
        m.mean_write_latency * 1e3,
        m.mean_read_latency * 1e3,
        m.energy_joules,
        m.average_power_watts,
        lifetime,
        m.write_amplification,
        m.storage_cost_dollars,
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 60.0 if quick else 240.0
    workloads = ["office"] if quick else ["office", "pim"]
    result = ExperimentResult(
        experiment_id="E12",
        title="Full-system comparison across organizations and workloads",
        headers=[
            "workload",
            "organization",
            "write_ms",
            "read_ms",
            "energy_J",
            "avg_W",
            "flash_life_days",
            "write_amp",
            "storage_$",
        ],
        rows=[
            run_one(org, workload, duration, seed)
            for workload in workloads
            for org in ORG_ORDER
        ],
    )
    office = {r["organization"]: r for r in result.row_dicts() if r["workload"] == workloads[0]}
    solid, disk, naive = office["solid_state"], office["disk"], office["naive_flash"]
    if solid["energy_J"] > 0:
        result.notes.append(
            f"office: solid-state uses {disk['energy_J'] / solid['energy_J']:.1f}x "
            "less energy than the disk organization (paper: 'significant power "
            "savings over disk drives')"
        )
    if solid["write_ms"] > 0:
        result.notes.append(
            f"office: writes are {naive['write_ms'] / solid['write_ms']:.0f}x "
            "slower on naive flash than with the paper's buffering+logging -- "
            "the medium alone is not the win, the OS policies are"
        )
    return result
