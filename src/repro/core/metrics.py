"""Unified run metrics.

Every experiment reduces a run to a :class:`RunMetrics`, so tables can
be assembled without reaching into subsystem internals.  Fields that do
not apply to an organization (e.g. flash wear on the disk machine) are
None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.lifetime import LifetimeProjection


@dataclass
class RunMetrics:
    """Everything a workload run produced."""

    organization: str
    workload: str
    sim_seconds: float

    # Operation latency (seconds) from the replay report.
    records: int = 0
    mean_read_latency: float = 0.0
    p95_read_latency: float = 0.0
    mean_write_latency: float = 0.0
    p95_write_latency: float = 0.0
    slowdown: float = 0.0

    # Traffic.
    app_bytes_written: int = 0
    app_bytes_read: int = 0
    flash_bytes_programmed: int = 0
    disk_bytes_written: int = 0
    flash_erases: int = 0
    write_traffic_reduction: float = 0.0
    write_amplification: float = 1.0

    # Wear / lifetime.
    wear_cov: Optional[float] = None
    max_sector_erases: Optional[int] = None
    lifetime: Optional[LifetimeProjection] = None

    # Power.
    energy_joules: float = 0.0
    average_power_watts: float = 0.0
    energy_by_device: Dict[str, float] = field(default_factory=dict)
    battery_fraction_remaining: Optional[float] = None

    # Economics.
    storage_cost_dollars: float = 0.0

    # Launches (exec-heavy workloads).
    launches: int = 0
    mean_launch_latency: float = 0.0
    launch_dram_pages: int = 0

    def snapshot(self) -> dict:
        out = {
            "organization": self.organization,
            "workload": self.workload,
            "sim_seconds": self.sim_seconds,
            "records": self.records,
            "mean_read_latency": self.mean_read_latency,
            "p95_read_latency": self.p95_read_latency,
            "mean_write_latency": self.mean_write_latency,
            "p95_write_latency": self.p95_write_latency,
            "slowdown": self.slowdown,
            "app_bytes_written": self.app_bytes_written,
            "app_bytes_read": self.app_bytes_read,
            "flash_bytes_programmed": self.flash_bytes_programmed,
            "disk_bytes_written": self.disk_bytes_written,
            "flash_erases": self.flash_erases,
            "write_traffic_reduction": self.write_traffic_reduction,
            "write_amplification": self.write_amplification,
            "wear_cov": self.wear_cov,
            "max_sector_erases": self.max_sector_erases,
            "energy_joules": self.energy_joules,
            "average_power_watts": self.average_power_watts,
            "energy_by_device": dict(self.energy_by_device),
            "battery_fraction_remaining": self.battery_fraction_remaining,
            "storage_cost_dollars": self.storage_cost_dollars,
            "launches": self.launches,
            "mean_launch_latency": self.mean_launch_latency,
        }
        if self.lifetime is not None:
            out["lifetime"] = self.lifetime.snapshot()
        return out
