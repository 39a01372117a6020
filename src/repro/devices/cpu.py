"""A simple mobile CPU model (386SL-class).

The paper's storage arguments occasionally need compute time and energy
to be accounted honestly: page-fault handling, page-table setup for
XIP, and (in the compression extension) the compressor itself.  The CPU
model is deliberately minimal -- a busy-time integrator with active and
idle power draws -- because the paper makes no micro-architectural
claims.

It is a :class:`~repro.devices.base.MeteredDevice`, metered by the
:class:`~repro.power.energy.PowerModel` and listed by the MetricsHub
like any storage device: busy time and active energy in its
:class:`~repro.devices.base.DeviceStats`, idle draw in the shared idle
meter.
"""

from __future__ import annotations

from repro.devices.base import MeteredDevice


class CPU(MeteredDevice):
    """Busy-time and energy integrator for a 1993 low-power laptop
    processor."""

    active_power_w = 2.0
    idle_power_w = 0.05  # aggressive sleep states, 1993-style

    def __init__(self) -> None:
        super().__init__("cpu", self.idle_power_w)

    def busy(self, seconds: float) -> None:
        """Charge compute time (the *extra* power above idle)."""
        if seconds < 0:
            raise ValueError("busy time cannot be negative")
        self.stats.busy_time += seconds
        self.stats.energy_joules += (
            self.active_power_w - self.idle_power_w
        ) * seconds
