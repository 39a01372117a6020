"""The deleted ``AccessResult`` and ``DeviceStats.record_*``, verbatim.

Devices once returned an :class:`AccessResult` from each access and
recorded it through ``DeviceStats.record_read``/``record_write``; the
caller advanced its clock by the result's latency.  Every device now
does all of that in one call.  The property tests keep the earlier
devices as oracles, and those oracles build and record results through
these copies.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import DeviceStats


@dataclass(frozen=True)
class AccessResult:
    """Outcome of a single device operation.

    Attributes:
        latency: total service time in seconds, *including* any wait the
            request spent queued behind the device (busy bank, spin-up).
        energy: joules consumed performing the operation.
        wait: the queueing portion of ``latency`` (zero when the device
            was idle).
    """

    latency: float
    energy: float
    wait: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0.0 or self.energy < 0.0 or self.wait < 0.0:
            raise ValueError("AccessResult fields must be non-negative")
        if self.wait > self.latency + 1e-15:
            raise ValueError("wait cannot exceed total latency")


def record_read(stats: DeviceStats, nbytes: int, result: AccessResult) -> None:
    """Copy of the deleted ``DeviceStats.record_read``."""
    stats.reads += 1
    stats.bytes_read += nbytes
    stats.busy_time += result.latency - result.wait
    stats.wait_time += result.wait
    stats.energy_joules += result.energy


def record_write(stats: DeviceStats, nbytes: int, result: AccessResult) -> None:
    """Copy of the deleted ``DeviceStats.record_write``."""
    stats.writes += 1
    stats.bytes_written += nbytes
    stats.busy_time += result.latency - result.wait
    stats.wait_time += result.wait
    stats.energy_joules += result.energy
