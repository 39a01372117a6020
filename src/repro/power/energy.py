"""System power model.

Each storage device meters its own active energy (charged per operation)
and idle energy (charged by :meth:`accrue_idle`).  The :class:`PowerModel`
periodically *settles*: it brings every device's idle meter up to date,
computes the energy drawn since the last settlement, and drains the
battery bank by that amount.  Settling happens on a timer (via the event
engine) and at experiment end, so battery state is accurate at every
observation point without per-operation overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.devices.base import StorageDevice
from repro.devices.battery import BatteryBank

#: The machine settles every simulated second, so battery state tracks
#: simulated time.
SETTLE_INTERVAL_S = 1.0


@dataclass
class EnergyBreakdown:
    """Joules per device, split into active and idle."""

    active: Dict[str, float] = field(default_factory=dict)
    idle: Dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> float:
        return sum(self.active.values()) + sum(self.idle.values())


class PowerModel:
    """Meters a set of devices and drains a battery bank."""

    def __init__(self, devices: List[StorageDevice], battery: BatteryBank) -> None:
        self.devices = list(devices)
        self.battery = battery
        self._settled_energy: Dict[str, float] = {d.name: 0.0 for d in self.devices}

    def settle(self, now: float) -> float:
        """Charge all energy consumed up to ``now``; returns joules drawn."""
        drawn = 0.0
        for device in self.devices:
            device.accrue_idle(now)
            total = device.total_energy_joules
            delta = total - self._settled_energy[device.name]
            if delta > 0:
                drawn += delta
                self._settled_energy[device.name] = total
        if drawn > 0:
            self.battery.draw(drawn, now)
        return drawn

    def breakdown(self, now: float) -> EnergyBreakdown:
        out = EnergyBreakdown()
        for device in self.devices:
            device.accrue_idle(now)
            out.active[device.name] = device.stats.energy_joules
            out.idle[device.name] = device.idle_energy_joules
        return out

    def average_power_watts(self, now: float) -> float:
        """Mean storage-subsystem power over the run so far."""
        if now <= 0:
            return 0.0
        return self.breakdown(now).total / now
