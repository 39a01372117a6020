"""Unified run metrics.

Every experiment reduces a run to a :class:`RunMetrics`, so tables can
be assembled without reaching into subsystem internals.  Fields that do
not apply to an organization (e.g. flash wear on the disk machine) are
None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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

    # Traffic.
    app_bytes_written: int = 0
    flash_bytes_programmed: int = 0
    flash_erases: int = 0
    write_traffic_reduction: float = 0.0
    write_amplification: float = 1.0

    # Wear / lifetime.
    wear_cov: Optional[float] = None
    lifetime: Optional[LifetimeProjection] = None

    # Power.
    energy_joules: float = 0.0
    average_power_watts: float = 0.0
    battery_fraction_remaining: Optional[float] = None

    # Economics.
    storage_cost_dollars: float = 0.0

    # Launches (exec-heavy workloads).
    launches: int = 0
    mean_launch_latency: float = 0.0
    launch_dram_pages: int = 0

