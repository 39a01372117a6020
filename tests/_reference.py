"""One reference model per device, for the property tests.

Each model states its device's timing, energy and medium rules the
plain, long way, in the access form every device uses: an access takes
the caller's :class:`~repro.sim.clock.SimClock`, checks its request,
updates :class:`~repro.devices.base.DeviceStats`, traces at the
pre-advance ``clock.now``, advances the clock and returns ``(latency,
wait)`` after a read's bytes (a DRAM charge returns nothing).  The live
devices inline, bind and bisect what these models recompute, so a test
drives a live device and its model through :func:`compare`, which runs
one :func:`apply` on each and asserts they agree bit for bit.

- :class:`DRAMModel`: every access's latency and energy from the
  spec, read on every call.
- :class:`FlashModel`: every access walks its banks in one loop
  (``_walk_banks``), one-bank requests included; the medium is a byte
  array beside one programmed flag per byte, so the live device's
  sorted, coalesced per-sector intervals must equal the maximal runs of
  set flags.
- :class:`DiskModel`: ``MagneticDisk`` with its mechanics read from
  the spec on every access and one ``_account`` of its own.

A change to a device is checked against its model here: the tests keep
no other copy of a device (``tests/test_no_test_only_api.py`` fails on a
device subclass anywhere else under ``tests/``).
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.devices.base import DeviceStats, StorageDevice
from repro.devices.catalog import MB, DRAM_NEC_LOW_POWER, DeviceSpec
from repro.devices.disk import MagneticDisk
from repro.devices.errors import DeviceError, PowerLossError, WriteBeforeEraseError
from repro.devices.flash import ERASED_BYTE, FlashMemory
from repro.sim.clock import SimClock

#: A repeating byte pattern long enough for the largest request a test
#: makes (a 2 MB + 1 byte write past the end of a 2 MB disk).
_PATTERN = bytes(range(256)) * (2 * MB // 256 + 2)


def payload(offset: int, nbytes: int) -> bytes:
    """``nbytes`` of a fixed pattern phased by ``offset``: one slice."""
    start = offset & 0xFF
    return _PATTERN[start : start + max(0, nbytes)]


def _record(stats: DeviceStats, write: bool, nbytes: int, latency: float,
            wait: float, energy: float) -> None:
    """One read or write's ``DeviceStats`` update."""
    if write:
        stats.writes += 1
        stats.bytes_written += nbytes
    else:
        stats.reads += 1
        stats.bytes_read += nbytes
    stats.busy_time += latency - wait
    stats.wait_time += wait
    stats.energy_joules += energy


class DRAMModel(StorageDevice):
    """DRAM: symmetric, never queues, loses its contents with its power."""

    def __init__(self, capacity_bytes: int, spec: DeviceSpec = DRAM_NEC_LOW_POWER) -> None:
        super().__init__("dram", capacity_bytes,
                         idle_power_watts=spec.idle_power_w_per_mb * (capacity_bytes / MB))
        self.spec = spec
        self.powered = True
        self._data = bytearray(capacity_bytes)

    def _access(self, write: bool, nbytes: int, offset: int, clock: SimClock, op: str) -> float:
        if not self.powered:
            raise PowerLossError(self.name)
        self.check_range(offset, nbytes)
        spec = self.spec
        if write:
            latency = spec.write_overhead_s + spec.write_per_byte_s * nbytes
            power = spec.active_write_power_w
        else:
            latency = spec.read_overhead_s + spec.read_per_byte_s * nbytes
            power = spec.active_read_power_w
        _record(self.stats, write, nbytes, latency, 0.0, power * latency)
        if self.tracer is not None:
            self.tracer.emit(self.name, op, clock.now, nbytes, latency)
        clock.advance(latency)
        return latency

    def read(self, offset: int, nbytes: int, clock: SimClock):
        latency = self._access(False, nbytes, offset, clock, "read")
        return bytes(self._data[offset : offset + nbytes]), latency, 0.0

    def read_view(self, offset: int, nbytes: int, clock: SimClock):
        latency = self._access(False, nbytes, offset, clock, "read")
        return memoryview(self._data)[offset : offset + nbytes], latency, 0.0

    def charge_read(self, nbytes: int, clock: SimClock, offset: int = 0) -> None:
        self._access(False, nbytes, offset, clock, "charge_read")

    def charge_write(self, nbytes: int, clock: SimClock, offset: int = 0) -> None:
        self._access(True, nbytes, offset, clock, "charge_write")

    def write(self, offset: int, data: bytes, clock: SimClock):
        latency = self._access(True, len(data), offset, clock, "write")
        self._data[offset : offset + len(data)] = data
        return latency, 0.0

    def power_loss(self) -> None:
        self.powered = False
        self._data[:] = bytes(len(self._data))

    def power_restore(self) -> None:
        self.powered = True


class FlashModel(StorageDevice):
    """Flash: erase before write, per-bank busy horizons, bounded wear."""

    def __init__(self, capacity_bytes: int, spec: DeviceSpec, banks: int) -> None:
        super().__init__("flash", capacity_bytes, idle_power_watts=0.0)
        self.spec = spec
        self.sector_bytes = spec.erase_sector_bytes
        self.num_sectors = capacity_bytes // self.sector_bytes
        self.sectors_per_bank = self.num_sectors // banks
        self._bank_bytes = self.sectors_per_bank * self.sector_bytes
        self.endurance = spec.endurance_cycles or 0
        self.bank_busy_until = [0.0] * banks
        self._data = bytearray([ERASED_BYTE]) * capacity_bytes
        self._programmed = bytearray(capacity_bytes)  # 1 per programmed byte
        self.erase_counts = [0] * self.num_sectors
        self.worn_out = [False] * self.num_sectors
        self.total_erases = 0
        self.worn_sector_count = 0
        self.first_wearout: Optional[Tuple[float, int]] = None
        self.injector = None

    def runs(self, sector: int) -> List[Tuple[int, int]]:
        """The sector's maximal runs of programmed bytes, sector-relative."""
        flags, base = self._programmed, sector * self.sector_bytes
        end = base + self.sector_bytes
        out = []
        start = flags.find(1, base, end)
        while start >= 0:
            stop = flags.find(0, start, end)
            stop = end if stop < 0 else stop
            out.append((start - base, stop - base))
            start = flags.find(1, stop, end)
        return out

    def is_erased(self, offset: int, end: int) -> bool:
        """No programmed byte in ``[offset, end)``.  An empty range counts
        as programmed where it splits a run inside one sector, as the
        half-open overlap test ``lo < end and offset < hi`` has it."""
        flags = self._programmed
        if offset == end:
            return offset % self.sector_bytes == 0 or not (flags[offset - 1] and flags[offset])
        return flags.find(1, offset, end) < 0

    def _walk_banks(self, offset: int, nbytes: int, now: float, write: bool):
        spec = self.spec
        if write:
            overhead, per_byte = spec.write_overhead_s, spec.write_per_byte_s
        else:
            overhead, per_byte = spec.read_overhead_s, spec.read_per_byte_s
        busy = self.bank_busy_until
        bank_bytes = self._bank_bytes
        latency = 0.0
        wait = 0.0
        t = now
        pos, remaining = offset, nbytes
        while remaining > 0:
            bank = pos // bank_bytes
            chunk = min(remaining, (bank + 1) * bank_bytes - pos)
            stall = max(0.0, busy[bank] - t)
            service = overhead + per_byte * chunk
            if write:
                end = t + stall + service
                if end > busy[bank]:
                    busy[bank] = end
            wait += stall
            latency += stall + service
            t += stall + service
            pos += chunk
            remaining -= chunk
        return latency, wait

    def _account(self, op: str, offset: int, nbytes: int, now: float, write: bool):
        """Walk the banks, record the stats and trace; the caller advances."""
        latency, wait = self._walk_banks(offset, nbytes, now, write)
        spec = self.spec
        power = spec.active_write_power_w if write else spec.active_read_power_w
        _record(self.stats, write, nbytes, latency, wait, power * (latency - wait))
        if self.tracer is not None:
            detail = {"bank": offset // self._bank_bytes} if op == "program" else {}
            if wait > 0.0:
                detail["wait"] = wait
            self.tracer.emit(self.name, op, now, nbytes, latency, detail=detail or None)
        return latency, wait

    def read(self, offset: int, nbytes: int, clock: SimClock):
        self.check_range(offset, nbytes)
        if self.injector is not None:
            self.injector.on_read(self, offset, nbytes, now=clock.now)
        latency, wait = self._account("read", offset, nbytes, clock.now, False)
        clock.advance(latency)
        return bytes(self._data[offset : offset + nbytes]), latency, wait

    def charge_read(self, nbytes: int, clock: SimClock, offset: int = 0):
        self.check_range(offset, nbytes)
        result = self._account("charge_read", offset, nbytes, clock.now, False)
        clock.advance(result[0])
        return result

    def charge_write(self, nbytes: int, clock: SimClock, offset: int = 0):
        self.check_range(offset, nbytes)
        result = self._account("charge_write", offset, nbytes, clock.now, True)
        clock.advance(result[0])
        return result

    def program(self, offset: int, data: bytes, clock: SimClock):
        nbytes = len(data)
        self.check_range(offset, nbytes)
        if self._programmed.find(1, offset, offset + nbytes) >= 0:
            raise WriteBeforeEraseError(self.name, offset, nbytes)
        if self.injector is not None:
            self.injector.on_program(self, offset, data, now=clock.now)
        result = self._account("program", offset, nbytes, clock.now, True)
        self._data[offset : offset + nbytes] = data
        self._programmed[offset : offset + nbytes] = b"\x01" * nbytes
        clock.advance(result[0])
        return result

    write = program

    def erase_sector(self, sector: int, clock: SimClock):
        if not 0 <= sector < self.num_sectors:
            raise ValueError(f"sector {sector} outside device")
        now = clock.now
        if self.injector is not None:
            self.injector.on_erase(self, sector, now=now)
        self.erase_counts[sector] += 1
        self.total_erases += 1
        if self.endurance and self.erase_counts[sector] > self.endurance:
            if not self.worn_out[sector]:
                self.worn_out[sector] = True
                self.worn_sector_count += 1
                if self.first_wearout is None:
                    self.first_wearout = (now, self.total_erases)

        bank = sector // self.sectors_per_bank
        busy = self.bank_busy_until
        stall = max(0.0, busy[bank] - now)
        service = self.spec.erase_latency_s or 0.0
        end = now + stall + service
        if end > busy[bank]:
            busy[bank] = end

        start, size = sector * self.sector_bytes, self.sector_bytes
        self._data[start : start + size] = bytes([ERASED_BYTE]) * size
        self._programmed[start : start + size] = bytes(size)

        latency = stall + service
        stats = self.stats
        stats.erases += 1
        stats.busy_time += latency - stall
        stats.wait_time += stall
        stats.energy_joules += self.spec.active_write_power_w * service
        if self.tracer is not None:
            detail = {"sector": sector, "bank": bank}
            if stall > 0.0:
                detail["wait"] = stall
            self.tracer.emit(self.name, "erase", now, size, latency, detail=detail)
        clock.advance(latency)
        return latency, stall

    def fault_apply_torn_program(self, offset: int, data: bytes, torn_bytes: int) -> None:
        """A prefix lands; the whole range counts as programmed."""
        self.check_range(offset, len(data))
        torn = max(0, min(torn_bytes, len(data)))
        self._data[offset : offset + torn] = data[:torn]
        self._programmed[offset : offset + len(data)] = b"\x01" * len(data)


class DiskModel(MagneticDisk):
    """``MagneticDisk`` with its mechanics read from the spec on every
    access and every access timed, recorded and traced by one
    ``_account``; the chunked byte store is the live disk's own."""

    def seek_time(self, from_cyl: int, to_cyl: int) -> float:
        distance = abs(to_cyl - from_cyl)
        if distance == 0:
            return 0.0
        t2t = self.spec.track_to_track_seek_s or 0.0
        max_seek = self.spec.max_seek_s or (self.spec.avg_seek_s or 0.0) * 2
        frac = math.sqrt(distance / (self.cylinders - 1))
        return t2t + (max_seek - t2t) * frac

    def _transfer_time(self, nbytes: int) -> float:
        rate = self.spec.transfer_bytes_per_s or 1.0
        return nbytes / rate

    def _begin_op(self, now: float) -> Tuple[float, float]:
        self.accrue_idle(now)
        delay = 0.0
        energy = 0.0
        if self._is_spun_down(now):
            self.spinning = True
            self.stats.spin_ups += 1
            delay = self.spec.spin_up_s or 0.0
            energy = delay * self.spec.spin_up_power_w
        return delay, energy

    def _account(self, op: str, offset: int, nbytes: int, clock: SimClock, write: bool):
        self.check_range(offset, nbytes)
        now = clock.now
        spin_delay, spin_energy = self._begin_op(now)
        target = self.cylinder_of(offset)
        seek = self.seek_time(self.head_cylinder, target)
        if seek > 0.0:
            self.stats.seeks += 1
        self.head_cylinder = target
        overhead = self.spec.write_overhead_s if write else self.spec.read_overhead_s
        service = overhead + seek + self._rotational_latency() + self._transfer_time(nbytes)
        power = self.spec.active_write_power_w if write else self.spec.active_read_power_w
        self._last_op_end = now + spin_delay + service
        # Time covered by the operation is active, not idle.
        self._idle.last_time = max(self._idle.last_time, self._last_op_end)
        latency = spin_delay + service
        _record(self.stats, write, nbytes, latency, spin_delay, spin_energy + power * service)
        if self.tracer is not None:
            detail = {"wait": spin_delay} if spin_delay > 0.0 else None
            self.tracer.emit(self.name, op, now, nbytes, latency, detail=detail)
        clock.advance(latency)
        return latency, spin_delay


def bits(value):
    """``value`` with every float, however nested, as its exact bit pattern."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return type(value)(bits(item) for item in value)
    if isinstance(value, dict):
        return {key: bits(item) for key, item in value.items()}
    return value


def apply(device, op: tuple, clock: SimClock, data: bytes = b""):
    """Run ``op`` -- ``(kind, offset or sector, nbytes)`` -- on ``device``
    at ``clock``, writing ``data``; returns ``("ok", what it gave back)``,
    floats as bit patterns, or ``("error", type, message)``."""
    kind, where, nbytes = op
    try:
        if kind in ("read", "read_view"):
            got, latency, wait = getattr(device, kind)(where, nbytes, clock)
            result = bytes(got), latency, wait
        elif kind in ("write", "program"):
            result = getattr(device, kind)(where, data, clock)
        elif kind in ("charge_read", "charge_write"):
            result = getattr(device, kind)(nbytes, clock, offset=where)
        elif kind == "erase_sector":
            result = device.erase_sector(where, clock)
        elif kind == "torn_program":
            result = device.fault_apply_torn_program(where, data, len(data) // 2)
        elif kind == "accrue_idle":
            result = device.accrue_idle(clock.now)
        else:  # power_loss, power_restore
            result = getattr(device, kind)()
    except (DeviceError, ValueError) as exc:
        return "error", type(exc).__name__, str(exc)
    return "ok", bits(result)


def state(device) -> tuple:
    """Everything an access may change on ``device``, floats as bit
    patterns, in one shape for a live device and its reference."""
    stats = bits(device.stats.snapshot())
    records = None if device.tracer is None else list(device.tracer.records)
    if isinstance(device, MagneticDisk):
        return (
            stats, records, device.head_cylinder, device.spinning,
            bits((device.idle_energy_joules, device._last_op_end, device._idle.last_time)),
            device._chunks,  # the live dict, not a copy: it may be megabytes
        )
    if isinstance(device, FlashMemory):
        programmed = [list(sector.programmed) for sector in device._sectors]
        wear = [(sector.erase_count, sector.worn_out) for sector in device._sectors]
    elif isinstance(device, FlashModel):
        programmed = [device.runs(sector) for sector in range(device.num_sectors)]
        wear = list(zip(device.erase_counts, device.worn_out))
    else:
        return stats, records, bytes(device._data), device.powered
    return (
        stats, records, bits(device.bank_busy_until), bytes(device._data), programmed,
        wear, device.total_erases, device.worn_sector_count, bits(device.first_wearout),
    )


def compare(live, reference, op: tuple, clocks: Tuple[SimClock, SimClock], data: bytes = b""):
    """Apply ``op`` to ``live`` and ``reference``, each at its own clock,
    and assert they agree bit for bit: what it returned or raised, the
    clock after and the device state.  An error changes neither the
    clock nor the state."""
    before = clocks[0].now, state(live)
    got = apply(live, op, clocks[0], data)
    assert got == apply(reference, op, clocks[1], data), op
    assert clocks[0].now.hex() == clocks[1].now.hex(), op
    after = state(live)
    assert after == state(reference), op
    if got[0] == "error":
        assert (clocks[0].now, after) == before, op
