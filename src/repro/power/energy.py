"""System power model.

Each metered device (:class:`~repro.devices.base.MeteredDevice`: the
CPU and every storage device) meters its own active energy (charged per
operation) and idle energy (charged by :meth:`accrue_idle`).  The :class:`PowerModel`
periodically *settles*: it brings every device's idle meter up to date,
computes the energy drawn since the last settlement, and drains the
battery bank by that amount.  Settling happens on a timer (via the event
engine) and at experiment end, so battery state is accurate at every
observation point without per-operation overhead.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.devices.base import MeteredDevice
from repro.devices.battery import BatteryBank

#: The machine settles every simulated second, so battery state tracks
#: simulated time.
SETTLE_INTERVAL_S = 1.0


class PowerModel:
    """Meters a set of devices and drains a battery bank."""

    def __init__(self, devices: List[MeteredDevice], battery: BatteryBank) -> None:
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

    def snapshot(self, now: Optional[float]) -> dict:
        """Energy charged so far (active, then idle, summed over the
        devices), its average power over ``now`` seconds, and the
        battery's remaining charge: the one definition of each.

        A pure read: it accrues no idle energy, so :meth:`settle` first
        to bring the meters up to ``now``.
        """
        energy = sum(d.stats.energy_joules for d in self.devices) + sum(
            d.idle_energy_joules for d in self.devices
        )
        return {
            "energy_joules": energy,
            "average_power_watts": energy / now if now else 0.0,
            "battery_remaining_joules": self.battery.remaining_joules(),
        }
