"""Battery-backed DRAM primary storage.

DRAM in this model is what the paper assumes: uniform random-access
read/write with symmetric latency, effectively unlimited endurance, and
contents that survive exactly as long as some battery keeps refresh
running.  The volatility is modelled explicitly -- :meth:`DRAM.power_loss`
destroys contents, and the battery model decides when that is invoked --
because the paper's central stability argument (Section 3.1) is about
*when* battery-backed DRAM may safely hold the only copy of file data.

Every buffer-cache hit, memfs metadata step and write-buffer copy is one
accounting-only :meth:`DRAM.charge_read`/:meth:`DRAM.charge_write`: one
call that checks, accounts, traces and advances the caller's clock.  The
data-moving :meth:`DRAM.read`/:meth:`DRAM.read_view`/:meth:`DRAM.write`
do the same and return the latency (and a wait of 0.0).
"""

from __future__ import annotations

from typing import Tuple

from repro.devices.base import StorageDevice
from repro.devices.catalog import MB, DRAM_NEC_LOW_POWER, DeviceSpec
from repro.devices.errors import PowerLossError
from repro.sim.clock import SimClock


class DRAM(StorageDevice):
    """A byte-addressable DRAM array.  It never queues: an access's whole
    latency is busy time, and ``stats.wait_time`` stays 0.0."""

    def __init__(self, capacity_bytes: int, spec: DeviceSpec = DRAM_NEC_LOW_POWER) -> None:
        if spec.kind != "dram":
            raise ValueError(f"spec {spec.name!r} is not a DRAM spec")
        costs = (
            spec.read_overhead_s, spec.read_per_byte_s, spec.active_read_power_w,
            spec.write_overhead_s, spec.write_per_byte_s, spec.active_write_power_w,
        )
        # Non-negative costs make every latency and energy non-negative.
        if any(cost < 0.0 for cost in costs):
            raise ValueError(f"spec {spec.name!r} has a negative cost or power")
        super().__init__(
            "dram",
            capacity_bytes,
            idle_power_watts=spec.idle_power_w_per_mb * (capacity_bytes / MB),
        )
        self.spec = spec
        (self._read_overhead, self._read_per_byte, self._read_power,
         self._write_overhead, self._write_per_byte, self._write_power) = costs
        self.powered = True
        self._data = bytearray(capacity_bytes)

    def charge_read(self, nbytes: int, clock: SimClock, offset: int = 0) -> None:
        """Account a read of ``nbytes`` that moves no data: check power,
        then range; update stats; trace at ``clock.now``; advance ``clock``."""
        if not self.powered:
            raise PowerLossError(self.name)
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            self.check_range(offset, nbytes)
        latency = self._read_overhead + self._read_per_byte * nbytes
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += nbytes
        stats.busy_time += latency
        stats.energy_joules += self._read_power * latency
        if self.tracer is not None:
            self.tracer.emit(self.name, "charge_read", clock.now, nbytes, latency)
        clock.advance(latency)

    def charge_write(self, nbytes: int, clock: SimClock, offset: int = 0) -> None:
        """As :meth:`charge_read`, for a write; the contents are untouched."""
        if not self.powered:
            raise PowerLossError(self.name)
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            self.check_range(offset, nbytes)
        latency = self._write_overhead + self._write_per_byte * nbytes
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += nbytes
        stats.busy_time += latency
        stats.energy_joules += self._write_power * latency
        if self.tracer is not None:
            self.tracer.emit(self.name, "charge_write", clock.now, nbytes, latency)
        clock.advance(latency)

    def _access(self, write: bool, nbytes: int, offset: int, clock: SimClock, op: str) -> float:
        """Check, account, trace and advance ``clock`` for one data-moving
        access, as the charges do; returns its latency."""
        if not self.powered:
            raise PowerLossError(self.name)
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            self.check_range(offset, nbytes)
        stats = self.stats
        if write:
            latency = self._write_overhead + self._write_per_byte * nbytes
            energy = self._write_power * latency
            stats.writes += 1
            stats.bytes_written += nbytes
        else:
            latency = self._read_overhead + self._read_per_byte * nbytes
            energy = self._read_power * latency
            stats.reads += 1
            stats.bytes_read += nbytes
        stats.busy_time += latency
        stats.energy_joules += energy
        if self.tracer is not None:
            self.tracer.emit(self.name, op, clock.now, nbytes, latency)
        clock.advance(latency)
        return latency

    def read(self, offset: int, nbytes: int, clock: SimClock) -> Tuple[bytes, float, float]:
        """Read ``nbytes`` at ``offset``; returns ``(data, latency, 0.0)``."""
        latency = self._access(False, nbytes, offset, clock, "read")
        return bytes(self._data[offset : offset + nbytes]), latency, 0.0

    def read_view(
        self, offset: int, nbytes: int, clock: SimClock
    ) -> Tuple[memoryview, float, float]:
        """Timed read returning a zero-copy view of the array.

        Same latency/energy/stats as :meth:`read`; the caller gets a
        ``memoryview`` into the live array instead of a copied ``bytes``
        (cache fills and page installs copy into their own buffer anyway,
        so the intermediate allocation is pure overhead).  The view is
        only valid until the next write to the range.
        """
        latency = self._access(False, nbytes, offset, clock, "read")
        return memoryview(self._data)[offset : offset + nbytes], latency, 0.0

    def write(self, offset: int, data: bytes, clock: SimClock) -> Tuple[float, float]:
        """Write ``data`` at ``offset``; returns ``(latency, 0.0)``."""
        latency = self._access(True, len(data), offset, clock, "write")
        self._data[offset : offset + len(data)] = data
        return latency, 0.0

    def power_loss(self) -> None:
        """All refresh power is gone: contents are destroyed.

        The battery model calls this when both primary and backup
        batteries are exhausted (or on an injected abrupt failure).
        """
        self.powered = False
        # A fresh power-up starts with undefined (zeroed) contents.  The
        # same-length slice assignment zeroes in place, so views handed
        # out by read_view stay valid (a resize would raise BufferError).
        self._data[:] = bytes(len(self._data))

    def power_restore(self) -> None:
        """Power returns; contents remain whatever power_loss left them."""
        self.powered = True
