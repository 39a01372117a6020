"""A simple mobile CPU model (386SL-class).

The paper's storage arguments occasionally need compute time and energy
to be accounted honestly: page-fault handling, page-table setup for
XIP, and (in the compression extension) the compressor itself.  The CPU
model is deliberately minimal -- a busy-time integrator with active and
idle power draws -- because the paper makes no micro-architectural
claims.

The class quacks like a :class:`~repro.devices.base.StorageDevice` just
enough for the :class:`~repro.power.energy.PowerModel` to meter it
(``accrue_idle``, ``total_energy_joules``, ``stats.energy_joules``).
"""

from __future__ import annotations

from repro.devices.base import DeviceStats


class CPU:
    """Busy-time and energy integrator for a 1993 low-power laptop
    processor."""

    name = "cpu"
    active_power_w = 2.0
    idle_power_w = 0.05  # aggressive sleep states, 1993-style

    def __init__(self) -> None:
        self.stats = DeviceStats()
        self._idle_energy = 0.0
        self._idle_accounted_to = 0.0
        self.busy_seconds = 0.0

    def busy(self, seconds: float) -> None:
        """Charge compute time (the *extra* power above idle)."""
        if seconds < 0:
            raise ValueError("busy time cannot be negative")
        self.busy_seconds += seconds
        self.stats.busy_time += seconds
        self.stats.energy_joules += (
            self.active_power_w - self.idle_power_w
        ) * seconds

    def accrue_idle(self, now: float) -> None:
        """Baseline idle draw over wall-clock time (PowerModel hook)."""
        if now <= self._idle_accounted_to:
            return
        self._idle_energy += (now - self._idle_accounted_to) * self.idle_power_w
        self._idle_accounted_to = now

    @property
    def idle_energy_joules(self) -> float:
        return self._idle_energy

    @property
    def total_energy_joules(self) -> float:
        return self.stats.energy_joules + self._idle_energy
