"""MetricsHub: one merged snapshot over every component's metrics.

Each component in the simulator owns a
:class:`~repro.sim.stats.StatRegistry` (counters/histograms/gauges) and
each device a :class:`~repro.devices.base.DeviceStats` record.  Before
this hub existed those were islands: every experiment reached into the
specific objects it knew about, and nothing could render the whole
machine's accounting at once.  The hub registers them all at
machine-build time and renders one JSON-able snapshot with derived
rates.

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

    def devices(self) -> List[str]:
        return sorted(self._devices)

    # ------------------------------------------------------------------
    # Lookups (for assertions and reports).
    # ------------------------------------------------------------------

    def counter_value(self, component: str, counter: str) -> float:
        """Current value of one component counter (0.0 when absent)."""
        registry = self._registries.get(component)
        if registry is None or counter not in registry.counters:
            return 0.0
        return registry.counters[counter].value

    def device_stat(self, device: str, stat: str) -> float:
        dev = self._devices.get(device)
        if dev is None:
            return 0.0
        return float(getattr(dev.stats, stat, 0.0))

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
            if now is not None and now > 0:
                snap["derived"] = {
                    "read_bytes_per_s": snap["bytes_read"] / now,
                    "write_bytes_per_s": snap["bytes_written"] / now,
                    "ops_per_s": (snap["reads"] + snap["writes"]) / now,
                    "utilization": snap["busy_time_s"] / now,
                }
            devices[name] = snap
        return {
            "name": self.name,
            "sim_time_s": now,
            "components": {
                name: registry.snapshot(now)
                for name, registry in sorted(self._registries.items())
            },
            "devices": devices,
        }

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
