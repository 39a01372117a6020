"""MetricsHub: the one surface a run's numbers are read from.

Each component in the simulator owns a
:class:`~repro.sim.stats.StatRegistry` (counters/histograms/gauges, plus
the ratios it defines under ``derived``), which the machine registers
with the hub when it is built.  The hub is built over the machine's
:class:`~repro.power.energy.PowerModel`, whose device list -- CPU, DRAM,
flash, disk, program flash -- is the one list of devices: the hub
renders each of them, so the devices' energies sum to the ``power``
block's total.  With the machine's configuration facts and (once
measured) the last replay's report, it renders one JSON-able snapshot:

- ``components.<name>`` -- each registry; ``derived`` holds, for
  example, ``flashstore``'s ``write_amplification`` and
  ``storage-manager``'s ``write_traffic_reduction``;
- ``devices.<name>`` -- each metered device's
  :class:`~repro.devices.base.DeviceStats` (disk seeks and spin-ups
  included), total energy, per-second rates and, for flash, its
  ``wear`` summary;
- ``power`` -- energy, average power and the battery's remaining charge
  (:meth:`~repro.power.energy.PowerModel.snapshot`);
- ``replay`` -- the last replay's aggregate report (per-client data
  stays in :attr:`~repro.trace.replay.ReplayReport.per_client`);
- ``config`` -- organization, storage cost and battery capacity.

:meth:`~repro.core.metrics.RunMetrics.from_snapshot` reduces a snapshot
to a run's metrics; other readers flatten it with
:func:`flatten_numeric` and look keys up by dotted path.  A snapshot is
a pure read: it creates no metric and accrues no energy.

Registries are held by reference, so re-registering after a rebuild
(e.g. :meth:`MobileComputer.reboot_after_power_loss` replacing the
storage manager) simply replaces the entry under the same name.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.sim.stats import StatRegistry

if TYPE_CHECKING:  # the power model imports the devices, which import obs
    from repro.power.energy import PowerModel


def flatten_numeric(obj: object, prefix: str = "") -> Dict[str, float]:
    """Flatten nested dicts to ``{dotted.path: number}`` (numbers only)."""
    out: Dict[str, float] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, path))
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        out[prefix] = float(obj)
    return out


class MetricsHub:
    """Registry of registries: the machine-wide metrics surface."""

    name = "machine"

    def __init__(self, power: PowerModel) -> None:
        self._registries: Dict[str, StatRegistry] = {}
        # The devices the hub lists are the ones ``power`` meters.
        self.power = power
        # Set by the machine that owns the hub: its configuration facts
        # and the ReplayReport it last measured.
        self.config: dict = {}
        self.report = None

    # ------------------------------------------------------------------
    # Registration (at machine-build time).
    # ------------------------------------------------------------------

    def register(self, registry: StatRegistry) -> None:
        """Register a component's StatRegistry (latest wins per name)."""
        self._registries[registry.name] = registry

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> dict:
        """One merged, JSON-able view of every registered metric.

        With ``now`` given (sim seconds > 0), each device also gets
        derived per-second rates so reports need no post-processing.
        """
        devices = {}
        for dev in sorted(self.power.devices, key=lambda d: d.name):
            snap = dev.stats.snapshot()
            snap["total_energy_joules"] = dev.total_energy_joules
            wear_summary = getattr(dev, "wear_summary", None)
            if wear_summary is not None:
                snap["wear"] = wear_summary()
            if now is not None and now > 0:
                snap["derived"] = {
                    "read_bytes_per_s": snap["bytes_read"] / now,
                    "write_bytes_per_s": snap["bytes_written"] / now,
                    "ops_per_s": (snap["reads"] + snap["writes"]) / now,
                    "utilization": snap["busy_time_s"] / now,
                }
            devices[dev.name] = snap
        out = {
            "name": self.name,
            "sim_time_s": now,
            "components": {
                name: registry.snapshot(now)
                for name, registry in sorted(self._registries.items())
            },
            "devices": devices,
            "power": self.power.snapshot(now),
        }
        if self.config:
            out["config"] = dict(self.config)
        if self.report is not None:
            replay = out["replay"] = self.report.snapshot()
            replay.pop("per_client", None)
        return out

    def top_counters(self, limit: int = 20) -> List[Tuple[str, float]]:
        """Largest component counters, for quick CLI summaries."""
        rows = [
            (f"{comp}.{name}", counter.value)
            for comp, registry in self._registries.items()
            for name, counter in registry.counters.items()
            if counter.value
        ]
        rows.sort(key=lambda item: (-item[1], item[0]))
        return rows[:limit]
