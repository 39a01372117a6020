"""Unified run metrics.

Every experiment reduces a run to a :class:`RunMetrics`, built by
:meth:`RunMetrics.from_snapshot` from one MetricsHub snapshot (live, or
read back from JSON), so tables are assembled without reaching into
subsystem internals.  Fields that do not apply to an organization (e.g.
flash wear on the disk machine) keep their defaults.

Each derived number has one definition, which the snapshot carries:

- write-traffic reduction --
  :meth:`repro.storage.manager.StorageManager.write_traffic_reduction`;
- write amplification --
  :meth:`repro.storage.flashstore._SectorStore.write_amplification`;
- energy and average power -- :meth:`repro.power.energy.PowerModel.snapshot`;
- lifetime -- :func:`repro.core.lifetime.lifetime_projection`, applied
  here to the ``flash-data`` wear summary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.lifetime import LifetimeProjection, lifetime_projection


@dataclass
class RunMetrics:
    """Everything a workload run produced."""

    organization: str

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

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "RunMetrics":
        """Reduce a MetricsHub snapshot taken after a measured replay."""
        config, power, replay = snapshot["config"], snapshot["power"], snapshot["replay"]
        read = replay["op_latency"].get("read", {})
        write = replay["op_latency"].get("write", {})
        m = cls(
            organization=config["organization"],
            records=replay["records"],
            mean_read_latency=read.get("mean", 0.0),
            p95_read_latency=read.get("p95", 0.0),
            mean_write_latency=write.get("mean", 0.0),
            p95_write_latency=write.get("p95", 0.0),
            app_bytes_written=replay["bytes_written"],
            energy_joules=power["energy_joules"],
            average_power_watts=power["average_power_watts"],
            battery_fraction_remaining=(
                power["battery_remaining_joules"] / config["battery_capacity_joules"]
            ),
            storage_cost_dollars=config["storage_cost_dollars"],
        )
        flash = snapshot["devices"].get("flash-data")
        if flash is not None:
            m.flash_bytes_programmed = flash["bytes_written"]
            m.flash_erases = flash["erases"]
            m.wear_cov = flash["wear"]["wear_cov"]
            if snapshot["sim_time_s"]:
                m.lifetime = lifetime_projection(flash["wear"], snapshot["sim_time_s"])
        components = snapshot["components"]
        if "storage-manager" in components:
            derived = components["storage-manager"]["derived"]
            m.write_traffic_reduction = derived["write_traffic_reduction"]
        if "flashstore" in components:
            m.write_amplification = components["flashstore"]["derived"]["write_amplification"]
        machine = components["machine"]
        launches = machine["counters"].get("launches", 0)
        if launches:
            m.launches = int(launches)
            m.mean_launch_latency = machine["histograms"]["launch_latency"]["mean"]
            m.launch_dram_pages = int(machine["histograms"]["launch_dram_pages"]["mean"])
        return m
