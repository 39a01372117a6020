"""Common storage-device machinery.

Every device in the reproduction follows the same contract:

- it stores **real bytes** (so higher layers can be verified end-to-end);
- every operation charges a service latency in seconds and an energy in
  joules;
- it accumulates a :class:`DeviceStats` record that experiment harnesses
  read instead of instrumenting call sites.

Devices are *time-aware but passive*: every access -- DRAM, flash or
disk, data-moving or accounting-only -- takes the caller's
:class:`~repro.sim.clock.SimClock` and, in that one call, checks its
request, updates :class:`DeviceStats`, traces at the pre-advance
``clock.now`` and then advances the clock by its latency, which includes
any wait behind a busy flash bank or a disk spin-up.  A read returns
``(data, latency, wait)``; a write, program, erase or disk charge returns
``(latency, wait)``, where ``wait`` is the stalled part of ``latency``;
DRAM's ``charge_read``/``charge_write`` return nothing.

Every access is a direct synchronous call (``read``/``write``/
``charge_*``) from the file systems and storage layers.  Contention
between clients is arbitrated above the devices, by the replay loop's
shared clock (:meth:`repro.trace.replay.TraceReplayer.replay`); inside
a device only
flash keeps a busy horizon, one float per bank
(``FlashMemory.bank_busy_until``), because the paper's bank-partitioning
argument (Section 3.3) is about exactly that stall.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Tuple

from repro.devices.errors import OutOfRangeError
from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock


@dataclass
class DeviceStats:
    """Cumulative per-device accounting.  A count of an operation a
    device does not have stays 0 (erases off flash, seeks and spin-ups
    off the disk)."""

    reads: int = 0
    writes: int = 0
    erases: int = 0
    seeks: int = 0
    spin_ups: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    busy_time: float = 0.0
    wait_time: float = 0.0
    energy_joules: float = 0.0

    def snapshot(self) -> dict:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "erases": self.erases,
            "seeks": self.seeks,
            "spin_ups": self.spin_ups,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "busy_time_s": self.busy_time,
            "wait_time_s": self.wait_time,
            "energy_joules": self.energy_joules,
        }


@dataclass
class _IdleTracker:
    """Accrues idle-state energy between operations.

    Devices draw power even when idle (DRAM refresh, disk spinning).  Each
    device calls :meth:`accrue` with the current time before servicing an
    operation; the tracker charges idle power for the elapsed gap.
    """

    idle_power_watts: float
    last_time: float = 0.0
    idle_energy: float = field(default=0.0)

    def accrue(self, now: float) -> float:
        if now < self.last_time:
            # Out-of-order issue within the same timestamp resolution is
            # tolerated; genuine regressions are caught by the clock.
            return 0.0
        delta = (now - self.last_time) * self.idle_power_watts
        self.idle_energy += delta
        self.last_time = now
        return delta


class MeteredDevice:
    """A device the :class:`~repro.power.energy.PowerModel` meters: a
    :class:`DeviceStats` record for its active energy and an idle meter
    for the draw between operations."""

    def __init__(self, name: str, idle_power_watts: float) -> None:
        self.name = name
        self.stats = DeviceStats()
        self._idle = _IdleTracker(idle_power_watts)

    def accrue_idle(self, now: float) -> None:
        """Charge idle power up to ``now`` (called by the power model)."""
        self._idle.accrue(now)

    @property
    def idle_energy_joules(self) -> float:
        return self._idle.idle_energy

    @property
    def total_energy_joules(self) -> float:
        """Active + idle energy since construction."""
        return self.stats.energy_joules + self._idle.idle_energy


class StorageDevice(MeteredDevice, ABC):
    """Abstract byte-addressable storage device."""

    def __init__(self, name: str, capacity_bytes: int, idle_power_watts: float) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"{name}: capacity must be positive")
        super().__init__(name, idle_power_watts)
        self.capacity_bytes = capacity_bytes
        # Optional repro.obs.Tracer (the one active at construction);
        # devices emit one trace record per operation when set.
        self.tracer = obs_runtime.get_tracer()

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            raise OutOfRangeError(self.name, offset, nbytes, self.capacity_bytes)

    @abstractmethod
    def read(self, offset: int, nbytes: int, clock: SimClock) -> Tuple[bytes, float, float]:
        """Read ``nbytes`` at ``offset``, advancing ``clock``; returns
        ``(data, latency, wait)``."""

    @abstractmethod
    def write(self, offset: int, data: bytes, clock: SimClock) -> Tuple[float, float]:
        """Write ``data`` at ``offset``, advancing ``clock``; returns
        ``(latency, wait)``."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r}, capacity={self.capacity_bytes})"
