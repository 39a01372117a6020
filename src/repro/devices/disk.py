"""Small mobile magnetic disks (HP KittyHawk, Fujitsu M2633).

The disk is the organization the paper argues *against*, so its model
needs the two properties that drive the comparison:

- **Mechanical positioning dominates small transfers** -- a seek curve
  over cylinder distance plus (expected) half-rotation latency, so random
  I/O costs tens of milliseconds regardless of size.
- **Power management** -- mobile disks spin down after an idle timeout
  and pay a spin-up penalty (latency *and* energy) on the next access.
  This is why disk power does not simply read as "idle watts x time":
  bursty workloads oscillate between standby and expensive spin-ups.

Rotational latency uses its expected value (half a rotation) rather than
a random draw, keeping device timing deterministic; distribution effects
the experiments care about come from seek distances, which vary with the
access pattern.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.devices.base import StorageDevice
from repro.devices.catalog import DISK_HP_KITTYHAWK, DeviceSpec
from repro.sim.clock import SimClock


class MagneticDisk(StorageDevice):
    """Seek + rotate + transfer disk with idle spin-down."""

    #: Seek distances spread over this many cylinders.
    cylinders = 600
    #: Idle seconds after the last access before the spindle stops.
    spin_down_timeout_s = 5.0

    def __init__(self, capacity_bytes: int, spec: DeviceSpec = DISK_HP_KITTYHAWK) -> None:
        if spec.kind != "disk":
            raise ValueError(f"spec {spec.name!r} is not a disk spec")
        costs = (
            spec.read_overhead_s, spec.write_overhead_s,
            spec.active_read_power_w, spec.active_write_power_w,
            spec.spin_up_power_w, spec.spin_up_s or 0.0,
            spec.track_to_track_seek_s or 0.0,
            spec.max_seek_s or (spec.avg_seek_s or 0.0) * 2,
            60.0 / float(spec.rpm or 3600),
        )
        # Non-negative costs make every latency, wait and energy
        # non-negative, and every wait at most its latency.
        if min(costs) < 0.0:
            raise ValueError(f"spec {spec.name!r} has a negative cost, power or time")
        rate = spec.transfer_bytes_per_s
        if rate is None or rate <= 0.0:
            raise ValueError(f"spec {spec.name!r} needs a positive transfer rate")
        super().__init__("disk", capacity_bytes, idle_power_watts=0.0)
        self.spec = spec
        (self._read_overhead, self._write_overhead,
         self._read_power, self._write_power,
         self._spin_up_power, self._spin_up_s,
         self._t2t_seek, self._max_seek, self._rotation_s) = costs
        self._transfer_rate = rate
        self.bytes_per_cylinder = max(1, capacity_bytes // self.cylinders)
        self.spinning = True
        self.head_cylinder = 0
        self._last_op_end = 0.0
        # Disks can be large; the backing store is allocated lazily per
        # 64 KB chunk so a 120 MB baseline drive doesn't cost 120 MB of
        # host RAM up front.
        self._chunks: Dict[int, bytearray] = {}

    # ------------------------------------------------------------------
    # Mechanics.
    # ------------------------------------------------------------------

    def cylinder_of(self, offset: int) -> int:
        return min(self.cylinders - 1, offset // self.bytes_per_cylinder)

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        """Square-root seek curve through the data-sheet's t2t and max."""
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        t2t = self._t2t_seek
        max_seek = self._max_seek
        frac = math.sqrt(distance / (self.cylinders - 1))
        return t2t + (max_seek - t2t) * frac

    def _rotational_latency(self) -> float:
        return self._rotation_s / 2.0

    def _transfer_time(self, nbytes: int) -> float:
        return nbytes / self._transfer_rate

    # ------------------------------------------------------------------
    # Idle power / spin state.
    # ------------------------------------------------------------------

    def accrue_idle(self, now: float) -> None:
        """Charge idle/standby power from the last accounting point."""
        start = self._idle.last_time
        if now <= start:
            return
        energy = 0.0
        if self.spinning:
            spin_edge = self._last_op_end + self.spin_down_timeout_s
            spinning_until = min(max(spin_edge, start), now)
            energy += (spinning_until - start) * self.spec.idle_power_w
            start = spinning_until
        energy += (now - start) * self.spec.standby_power_w
        self._idle.idle_energy += energy
        self._idle.last_time = now

    def _is_spun_down(self, now: float) -> bool:
        return not self.spinning or now - self._last_op_end > self.spin_down_timeout_s

    def _begin_op(self, now: float) -> Tuple[float, float]:
        """Account idle energy and any spin-up; returns (delay, energy)."""
        self.accrue_idle(now)
        delay = 0.0
        energy = 0.0
        if self._is_spun_down(now):
            self.spinning = True
            self.stats.spin_ups += 1
            delay = self._spin_up_s
            energy = delay * self._spin_up_power
        return delay, energy

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def _account(
        self, op: str, offset: int, nbytes: int, clock: SimClock, write: bool
    ) -> Tuple[float, float]:
        """Check, time, record, trace at the pre-advance ``clock.now`` and
        advance ``clock``: the single path.  Returns ``(latency, wait)``,
        where ``wait`` is the spin-up delay.

        Accounting-only charges get full mechanical accounting too: they
        still move the head and keep the spindle spinning.
        """
        self.check_range(offset, nbytes)
        now = clock.now
        spin_delay, spin_energy = self._begin_op(now)
        stats = self.stats
        target = self.cylinder_of(offset)
        seek = self.seek_time(self.head_cylinder, target)
        if seek > 0.0:
            stats.seeks += 1
        self.head_cylinder = target
        overhead = self._write_overhead if write else self._read_overhead
        service = overhead + seek + self._rotational_latency() + self._transfer_time(nbytes)
        power = self._write_power if write else self._read_power
        self._last_op_end = now + spin_delay + service
        # Time covered by the operation is active, not idle.
        self._idle.last_time = max(self._idle.last_time, self._last_op_end)
        latency = spin_delay + service
        if write:
            stats.writes += 1
            stats.bytes_written += nbytes
        else:
            stats.reads += 1
            stats.bytes_read += nbytes
        stats.busy_time += latency - spin_delay
        stats.wait_time += spin_delay
        stats.energy_joules += spin_energy + power * service
        if self.tracer is not None:
            detail = {"wait": spin_delay} if spin_delay > 0.0 else None
            self.tracer.emit(self.name, op, now, nbytes, latency, detail=detail)
        clock.advance(latency)
        return latency, spin_delay

    def read(self, offset: int, nbytes: int, clock: SimClock) -> Tuple[bytes, float, float]:
        """Read ``nbytes`` at ``offset``; returns ``(data, latency, wait)``."""
        latency, wait = self._account("read", offset, nbytes, clock, write=False)
        return self._data_view(offset, nbytes), latency, wait

    def charge_read(self, nbytes: int, clock: SimClock, offset: int = 0) -> Tuple[float, float]:
        """Timing/energy of a read without materializing data."""
        return self._account("charge_read", offset, nbytes, clock, write=False)

    def charge_write(self, nbytes: int, clock: SimClock, offset: int = 0) -> Tuple[float, float]:
        """Timing/energy of a write; the stored bytes are untouched."""
        return self._account("charge_write", offset, nbytes, clock, write=True)

    def write(self, offset: int, data: bytes, clock: SimClock) -> Tuple[float, float]:
        """Write ``data`` at ``offset``; returns ``(latency, wait)``."""
        result = self._account("write", offset, len(data), clock, write=True)
        self._store(offset, data)
        return result

    _CHUNK = 64 * 1024

    def _data_view(self, offset: int, nbytes: int) -> bytes:
        chunks = self._chunks
        out = bytearray(nbytes)
        pos = 0
        while pos < nbytes:
            absolute = offset + pos
            idx, within = divmod(absolute, self._CHUNK)
            take = min(nbytes - pos, self._CHUNK - within)
            chunk = chunks.get(idx)
            if chunk is not None:
                out[pos : pos + take] = chunk[within : within + take]
            pos += take
        return bytes(out)

    def _store(self, offset: int, data: bytes) -> None:
        chunks = self._chunks
        pos = 0
        nbytes = len(data)
        while pos < nbytes:
            absolute = offset + pos
            idx, within = divmod(absolute, self._CHUNK)
            take = min(nbytes - pos, self._CHUNK - within)
            chunk = chunks.get(idx)
            if chunk is None:
                chunk = bytearray(self._CHUNK)
                chunks[idx] = chunk
            chunk[within : within + take] = data[pos : pos + take]
            pos += take
