"""MetricsHub: the one surface a run's numbers are read from.

Each component in the simulator owns a
:class:`~repro.sim.stats.StatRegistry` (counters/histograms/gauges, plus
the ratios it defines under ``derived``) and each device a
:class:`~repro.devices.base.DeviceStats` record.  The hub registers them
all at machine-build time, together with the machine's configuration
facts, its power model and (once measured) the last replay's report,
and renders one JSON-able snapshot:

- ``components.<name>`` -- each registry; ``derived`` holds, for
  example, ``flashstore``'s ``write_amplification`` and
  ``storage-manager``'s ``write_traffic_reduction``;
- ``devices.<name>`` -- each device's stats, total energy, per-second
  rates and, for flash, its ``wear`` summary;
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

from typing import Dict, List, Optional, Tuple

from repro.sim.stats import StatRegistry


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

    def __init__(self) -> None:
        self._registries: Dict[str, StatRegistry] = {}
        self._devices: Dict[str, object] = {}
        # Set by the machine that owns the hub: its configuration facts,
        # its PowerModel, and the ReplayReport it last measured.
        self.config: dict = {}
        self.power = None
        self.report = None

    # ------------------------------------------------------------------
    # Registration (at machine-build time).
    # ------------------------------------------------------------------

    def register(self, registry: StatRegistry) -> None:
        """Register a component's StatRegistry (latest wins per name)."""
        self._registries[registry.name] = registry

    def register_device(self, device: object) -> None:
        """Register a device exposing ``.name`` and ``.stats`` (a
        DeviceStats)."""
        self._devices[device.name] = device

    # ------------------------------------------------------------------
    # Snapshots.
    # ------------------------------------------------------------------

    def snapshot(self, now: Optional[float] = None) -> dict:
        """One merged, JSON-able view of every registered metric.

        With ``now`` given (sim seconds > 0), each device also gets
        derived per-second rates so reports need no post-processing.
        """
        devices = {}
        for name, dev in sorted(self._devices.items()):
            snap = dev.stats.snapshot()
            total_energy = getattr(dev, "total_energy_joules", None)
            if total_energy is not None:
                snap["total_energy_joules"] = total_energy
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
            devices[name] = snap
        out = {
            "name": self.name,
            "sim_time_s": now,
            "components": {
                name: registry.snapshot(now)
                for name, registry in sorted(self._registries.items())
            },
            "devices": devices,
        }
        if self.config:
            out["config"] = dict(self.config)
        if self.power is not None:
            out["power"] = self.power.snapshot(now)
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
