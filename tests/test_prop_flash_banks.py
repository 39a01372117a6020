"""Property tests: the one-frame flash accesses == the paths they replaced.

Two generations of reference are kept verbatim here:

- :class:`AccountFlash` is the device before its accesses became single
  frames: ``read``/``program``/``charge_*`` shared ``_walk_banks`` and
  ``_account``, which built an ``AccessResult`` (validated in its
  ``__post_init__``) and recorded it through ``DeviceStats.record_*``
  (both deleted; copies live in ``tests/_access_result.py``);
  ``erase_sector`` built one too; the caller advanced its clock by the
  result's latency.
- :class:`OldFlash` is older still: each of ``read``/``charge_read``/
  ``charge_write``/``program`` walked the banks in a loop of its own, over
  per-bank ``DeviceQueue`` busy horizons held in ``FlashBankState``
  records (minimal copies of the two deleted classes below).

``FlashMemory`` now does the range check, the bank walk (one bank
inline), the ``DeviceStats`` update, the trace record and the clock
advance in one frame and returns ``(latency, wait)``.  For any
interleaving of reads, charges, programs and erases -- straddling bank
and sector boundaries, with banks kept busy, out of range, into
programmed bytes, with an injector that raises before data lands, past
the endurance guarantee -- the new device must agree with the references bit
for bit: latency, wait, the clock it advanced, raised errors,
``DeviceStats`` floats, per-bank busy horizons, stored bytes, programmed
intervals, wear and trace records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.base import DeviceStats
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.errors import (
    DeviceError, EraseFailedError, PowerCutError, ProgramFailedError, WriteBeforeEraseError,
)
from repro.devices.flash import ERASED_BYTE, FlashMemory
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from tests._access_result import AccessResult, record_read, record_write

KB = 1024

# Small sectors keep many bank boundaries inside a tiny device; 2 ms
# erases keep banks busy across several operations; a 3-cycle endurance
# lets workloads wear sectors out.
SPEC = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="bank-walk test flash", erase_sector_bytes=1 * KB,
    erase_latency_s=2e-3, endurance_cycles=3,
)
SECTORS_PER_BANK = 4


def _record_erase(stats: DeviceStats, result: AccessResult) -> None:
    """Copy of the deleted ``DeviceStats.record_erase``."""
    stats.erases += 1
    stats.busy_time += result.latency - result.wait
    stats.wait_time += result.wait
    stats.energy_joules += result.energy


class AccountFlash(FlashMemory):
    """Flash with the ``_account``/``AccessResult`` accesses, kept verbatim."""

    def _walk_banks(
        self, offset: int, nbytes: int, now: float, write: bool
    ) -> Tuple[float, float]:
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

    def _account(
        self, op: str, offset: int, nbytes: int, now: float, write: bool
    ) -> AccessResult:
        latency, wait = self._walk_banks(offset, nbytes, now, write)
        spec = self.spec
        power = spec.active_write_power_w if write else spec.active_read_power_w
        result = AccessResult(
            latency=latency, energy=power * (latency - wait), wait=wait
        )
        if write:
            record_write(self.stats, nbytes, result)
        else:
            record_read(self.stats, nbytes, result)
        if self.tracer is not None:
            detail = {"bank": offset // self._bank_bytes} if op == "program" else {}
            if wait > 0.0:
                detail["wait"] = wait
            self.tracer.emit(self.name, op, now, nbytes, latency, detail=detail or None)
        return result

    def read(self, offset: int, nbytes: int, now: float) -> Tuple[bytes, AccessResult]:
        self.check_range(offset, nbytes)
        if self.injector is not None:
            self.injector.on_read(self, offset, nbytes, now=now)
        result = self._account("read", offset, nbytes, now, write=False)
        return bytes(self._data[offset : offset + nbytes]), result

    def charge_read(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        self.check_range(offset, nbytes)
        return self._account("charge_read", offset, nbytes, now, write=False)

    def charge_write(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        self.check_range(offset, nbytes)
        return self._account("charge_write", offset, nbytes, now, write=True)

    def program(self, offset: int, data: bytes, now: float) -> AccessResult:
        nbytes = len(data)
        self.check_range(offset, nbytes)
        sector, start = divmod(offset, self.sector_bytes)
        if 0 < nbytes <= self.sector_bytes - start:
            spans = ((sector, start, start + nbytes),)
        else:
            spans = tuple(self._split_by_sector(offset, nbytes))
        sectors = self._sectors
        for sector, start, end in spans:
            if not sectors[sector].is_erased(start, end):
                raise WriteBeforeEraseError(self.name, offset, nbytes)
        if self.injector is not None:
            self.injector.on_program(self, offset, data, now=now)
        result = self._account("program", offset, nbytes, now, write=True)
        self._data[offset : offset + nbytes] = data
        for sector, start, end in spans:
            sectors[sector].mark_programmed(start, end)
        return result

    def erase_sector(self, sector: int, now: float) -> AccessResult:
        if not 0 <= sector < self.num_sectors:
            raise ValueError(f"sector {sector} outside device")
        if self.injector is not None:
            self.injector.on_erase(self, sector, now=now)
        state = self._sectors[sector]
        state.erase_count += 1
        self.total_erases += 1
        if self.endurance and state.erase_count > self.endurance:
            if not state.worn_out:
                state.worn_out = True
                self.worn_sector_count += 1
                if self.first_wearout is None:
                    self.first_wearout = (now, self.total_erases)

        bank = self.bank_of_sector(sector)
        busy = self.bank_busy_until
        stall = max(0.0, busy[bank] - now)
        service = self.spec.erase_latency_s or 0.0
        end = now + stall + service
        if end > busy[bank]:
            busy[bank] = end

        start, end = self.sector_range(sector)
        self._data[start:end] = bytes([ERASED_BYTE]) * self.sector_bytes
        state.programmed = []

        result = AccessResult(
            latency=stall + service,
            energy=self.spec.active_write_power_w * service,
            wait=stall,
        )
        _record_erase(self.stats, result)
        if self.tracer is not None:
            detail = {"sector": sector, "bank": bank}
            if stall > 0.0:
                detail["wait"] = stall
            self.tracer.emit(
                self.name, "erase", now, self.sector_bytes, result.latency,
                detail=detail,
            )
        return result


class _DeviceQueue:
    """Copy of the deleted ``repro.devices.base.DeviceQueue``."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.busy_until = 0.0

    def wait_for(self, now: float) -> float:
        return max(0.0, self.busy_until - now)

    def occupy(self, start: float, duration: float) -> None:
        if duration < 0.0:
            raise ValueError("occupancy duration cannot be negative")
        end = start + duration
        if end > self.busy_until:
            self.busy_until = end


@dataclass
class _FlashBankState:
    """Copy of the deleted ``repro.devices.flash.FlashBankState``."""

    index: int
    programs: int = 0
    erases: int = 0
    queue: Optional[_DeviceQueue] = None

    def __post_init__(self) -> None:
        if self.queue is None:
            self.queue = _DeviceQueue(f"bank{self.index}")


class OldFlash(FlashMemory):
    """Flash with the pre-fold bank loops, kept verbatim."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.bank_states = [_FlashBankState(i) for i in range(self.num_banks)]

    def bank_of_offset(self, offset: int) -> int:
        return self.bank_of_sector(self.sector_of(offset))

    def busy_horizons(self):
        return [state.queue.busy_until for state in self.bank_states]

    def _wait_for_bank(self, bank: int, now: float) -> float:
        return self.bank_states[bank].queue.wait_for(now)

    def _occupy_bank(self, bank: int, start: float, service: float) -> None:
        self.bank_states[bank].queue.occupy(start, service)

    def read(self, offset: int, nbytes: int, now: float) -> Tuple[bytes, AccessResult]:
        self.check_range(offset, nbytes)
        if self.injector is not None:
            self.injector.on_read(self, offset, nbytes, now=now)
        latency = 0.0
        wait = 0.0
        t = now
        pos, remaining = offset, nbytes
        while remaining > 0:
            bank = self.bank_of_offset(pos)
            bank_end = (bank + 1) * self.sectors_per_bank * self.sector_bytes
            chunk = min(remaining, bank_end - pos)
            stall = self._wait_for_bank(bank, t)
            service = self.spec.read_overhead_s + self.spec.read_per_byte_s * chunk
            wait += stall
            latency += stall + service
            t += stall + service
            pos += chunk
            remaining -= chunk
        result = AccessResult(
            latency=latency,
            energy=self.spec.active_read_power_w * (latency - wait),
            wait=wait,
        )
        record_read(self.stats, nbytes, result)
        if self.tracer is not None:
            detail = {"wait": wait} if wait > 0.0 else None
            self.tracer.emit(self.name, "read", now, nbytes, result.latency,
                             detail=detail)
        return bytes(self._data[offset : offset + nbytes]), result

    def charge_read(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        self.check_range(offset, nbytes)
        latency = 0.0
        wait = 0.0
        t = now
        pos, remaining = offset, nbytes
        while remaining > 0:
            bank = self.bank_of_offset(pos)
            bank_end = (bank + 1) * self.sectors_per_bank * self.sector_bytes
            chunk = min(remaining, bank_end - pos)
            stall = self._wait_for_bank(bank, t)
            service = self.spec.read_overhead_s + self.spec.read_per_byte_s * chunk
            wait += stall
            latency += stall + service
            t += stall + service
            pos += chunk
            remaining -= chunk
        result = AccessResult(
            latency=latency,
            energy=self.spec.active_read_power_w * (latency - wait),
            wait=wait,
        )
        record_read(self.stats, nbytes, result)
        if self.tracer is not None:
            detail = {"wait": wait} if wait > 0.0 else None
            self.tracer.emit(self.name, "charge_read", now, nbytes, result.latency,
                             detail=detail)
        return result

    def charge_write(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        self.check_range(offset, nbytes)
        latency = 0.0
        wait = 0.0
        t = now
        pos, remaining = offset, nbytes
        while remaining > 0:
            bank = self.bank_of_offset(pos)
            bank_end = (bank + 1) * self.sectors_per_bank * self.sector_bytes
            chunk = min(remaining, bank_end - pos)
            stall = self._wait_for_bank(bank, t)
            service = self.spec.write_overhead_s + self.spec.write_per_byte_s * chunk
            self._occupy_bank(bank, t + stall, service)
            self.bank_states[bank].programs += 1
            wait += stall
            latency += stall + service
            t += stall + service
            pos += chunk
            remaining -= chunk
        result = AccessResult(
            latency=latency,
            energy=self.spec.active_write_power_w * (latency - wait),
            wait=wait,
        )
        record_write(self.stats, nbytes, result)
        if self.tracer is not None:
            detail = {"wait": wait} if wait > 0.0 else None
            self.tracer.emit(self.name, "charge_write", now, nbytes, result.latency,
                             detail=detail)
        return result

    def program(self, offset: int, data: bytes, now: float) -> AccessResult:
        nbytes = len(data)
        self.check_range(offset, nbytes)
        for sector, start, end in self._split_by_sector(offset, nbytes):
            if not self._sectors[sector].is_erased(start, end):
                raise WriteBeforeEraseError(self.name, offset, nbytes)
        if self.injector is not None:
            self.injector.on_program(self, offset, data, now=now)

        latency = 0.0
        wait = 0.0
        t = now
        pos, remaining = offset, nbytes
        data_pos = 0
        while remaining > 0:
            bank = self.bank_of_offset(pos)
            bank_end = (bank + 1) * self.sectors_per_bank * self.sector_bytes
            chunk = min(remaining, bank_end - pos)
            stall = self._wait_for_bank(bank, t)
            service = self.spec.write_overhead_s + self.spec.write_per_byte_s * chunk
            self._occupy_bank(bank, t + stall, service)
            self.bank_states[bank].programs += 1
            wait += stall
            latency += stall + service
            t += stall + service
            self._data[pos : pos + chunk] = data[data_pos : data_pos + chunk]
            pos += chunk
            data_pos += chunk
            remaining -= chunk
        for sector, start, end in self._split_by_sector(offset, nbytes):
            self._sectors[sector].mark_programmed(start, end)
        result = AccessResult(
            latency=latency,
            energy=self.spec.active_write_power_w * (latency - wait),
            wait=wait,
        )
        record_write(self.stats, nbytes, result)
        if self.tracer is not None:
            detail = {"bank": self.bank_of_offset(offset)}
            if wait > 0.0:
                detail["wait"] = wait
            self.tracer.emit(
                self.name, "program", now, nbytes, result.latency,
                detail=detail,
            )
        return result

    def erase_sector(self, sector: int, now: float) -> AccessResult:
        if not 0 <= sector < self.num_sectors:
            raise ValueError(f"sector {sector} outside device")
        if self.injector is not None:
            self.injector.on_erase(self, sector, now=now)
        state = self._sectors[sector]
        state.erase_count += 1
        self.total_erases += 1
        if self.endurance and state.erase_count > self.endurance:
            if not state.worn_out:
                state.worn_out = True
                self.worn_sector_count += 1
                if self.first_wearout is None:
                    self.first_wearout = (now, self.total_erases)

        bank = self.bank_of_sector(sector)
        stall = self._wait_for_bank(bank, now)
        service = self.spec.erase_latency_s or 0.0
        self._occupy_bank(bank, now + stall, service)
        self.bank_states[bank].erases += 1

        start, end = self.sector_range(sector)
        self._data[start:end] = bytes([ERASED_BYTE]) * self.sector_bytes
        state.programmed = []

        result = AccessResult(
            latency=stall + service,
            energy=self.spec.active_write_power_w * service,
            wait=stall,
        )
        _record_erase(self.stats, result)
        if self.tracer is not None:
            detail = {"sector": sector, "bank": self.bank_of_sector(sector)}
            if stall > 0.0:
                detail["wait"] = stall
            self.tracer.emit(
                self.name, "erase", now, self.sector_bytes, result.latency,
                detail=detail,
            )
        return result


class _Raiser:
    """Injector that raises, before any data lands, on the accesses it is
    armed for: a power cut on a read, a transient failure on a program or
    an erase."""

    def __init__(self) -> None:
        self.armed = False

    def _fire(self, error: DeviceError) -> None:
        if self.armed:
            raise error

    def on_read(self, flash, offset, nbytes, now=0.0):
        self._fire(PowerCutError(flash.name, 0))

    def on_program(self, flash, offset, data, now=0.0):
        self._fire(ProgramFailedError(flash.name, flash.sector_of(offset), transient=True))

    def on_erase(self, flash, sector, now=0.0):
        self._fire(EraseFailedError(flash.name, sector, transient=True))


def _payload(offset: int, nbytes: int) -> bytes:
    return bytes((offset + i) & 0xFF for i in range(nbytes))


def _apply(flash: FlashMemory, op: tuple, now: float):
    """Run one operation on a reference device (``now`` in, an
    ``AccessResult`` out); returns its observable outcome."""
    kind = op[0]
    try:
        if kind == "erase":
            result = flash.erase_sector(op[1], now)
            data = None
        else:
            offset, nbytes = op[1], op[2]
            data = None
            if kind == "read":
                data, result = flash.read(offset, nbytes, now)
            elif kind == "charge_read":
                result = flash.charge_read(nbytes, now, offset=offset)
            elif kind == "charge_write":
                result = flash.charge_write(nbytes, now, offset=offset)
            else:
                result = flash.program(offset, _payload(offset, nbytes), now)
    except (DeviceError, ValueError) as exc:
        return ("error", type(exc).__name__), now
    # The caller advanced its clock by the result's latency.
    return (result.latency, result.wait, data), SimClock(now).advance(result.latency)


def _apply_new(flash: FlashMemory, op: tuple, now: float):
    """Run one operation on the one-frame device with a clock at ``now``;
    returns its observable outcome and the time the clock reads after."""
    kind = op[0]
    clock = SimClock(now)
    try:
        if kind == "erase":
            latency, wait = flash.erase_sector(op[1], clock)
            data = None
        else:
            offset, nbytes = op[1], op[2]
            data = None
            if kind == "read":
                data, latency, wait = flash.read(offset, nbytes, clock)
            elif kind == "charge_read":
                latency, wait = flash.charge_read(nbytes, clock, offset=offset)
            elif kind == "charge_write":
                latency, wait = flash.charge_write(nbytes, clock, offset=offset)
            else:
                latency, wait = flash.program(offset, _payload(offset, nbytes), clock)
    except (DeviceError, ValueError) as exc:
        return ("error", type(exc).__name__), clock.now
    return (latency, wait, data), clock.now


def _stats_bits(flash: FlashMemory) -> dict:
    """``DeviceStats`` with every float as its exact bit pattern."""
    return {
        key: value.hex() if isinstance(value, float) else value
        for key, value in flash.stats.snapshot().items()
    }


def _medium(flash: FlashMemory) -> tuple:
    """Stored bytes, programmed intervals and wear."""
    return (
        bytes(flash._data),
        [list(s.programmed) for s in flash._sectors],
        [(s.erase_count, s.worn_out) for s in flash._sectors],
        flash.total_erases, flash.worn_sector_count, flash.first_wearout,
    )


@st.composite
def _ranges(draw, capacity: int, bank_bytes: int, out_of_range: bool = False):
    """An (offset, nbytes) inside the device, often straddling a bank edge
    (or, when ``out_of_range`` is drawn, one that leaves the device)."""
    if out_of_range and draw(st.booleans()):
        offset = draw(st.sampled_from([-1, -64, capacity - 8, capacity, capacity + 1]))
        return offset, draw(st.integers(9, 600))
    if draw(st.booleans()):
        edge = bank_bytes * draw(st.integers(1, capacity // bank_bytes - 1))
        offset = edge - draw(st.integers(0, 600))
    else:
        offset = draw(st.integers(0, capacity - 1))
    nbytes = draw(st.integers(0, min(3 * KB, capacity - offset)))
    return offset, nbytes


@st.composite
def _workloads(draw, hostile: bool = False):
    """``hostile`` adds out-of-range accesses, injected failures and
    sector numbers outside the device."""
    banks = draw(st.sampled_from([2, 4]))
    bank_bytes = SECTORS_PER_BANK * SPEC.erase_sector_bytes
    capacity = banks * bank_bytes
    sectors = banks * SECTORS_PER_BANK
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ["read", "charge_read", "charge_write", "program", "program", "erase"]
        ))
        if kind == "erase":
            low, high = (-1, sectors) if hostile else (0, sectors - 1)
            op = ("erase", draw(st.integers(low, high)))
        else:
            op = (kind,) + draw(_ranges(capacity, bank_bytes, out_of_range=hostile))
        # Small steps keep programs and erases in flight when the next
        # operation arrives; the occasional long step lets banks drain.
        dt = draw(st.sampled_from([0.0, 1e-6, 5e-5, 1e-3, 0.05]))
        fail = hostile and draw(st.integers(0, 5)) == 0
        ops.append((op, dt, fail))
    return banks, capacity, ops


def _devices(banks: int, capacity: int):
    devices = [
        cls(capacity, spec=SPEC, banks=banks, name="flash")
        for cls in (FlashMemory, AccountFlash, OldFlash)
    ]
    for device in devices:
        device.tracer = Tracer()
    return devices


@settings(max_examples=150, deadline=None)
@given(_workloads())
def test_bank_walk_matches_old_loops(workload):
    banks, capacity, ops = workload
    new, account, old = _devices(banks, capacity)
    now = 0.0
    for op, dt, _fail in ops:
        now += dt
        got = _apply_new(new, op, now)
        assert got == _apply(account, op, now) == _apply(old, op, now), op
        assert new.bank_busy_until == account.bank_busy_until == old.busy_horizons()
        assert _stats_bits(new) == _stats_bits(account) == _stats_bits(old), op
    assert _medium(new) == _medium(account) == _medium(old)
    assert new.tracer.records == account.tracer.records
    assert new.tracer.records == old.tracer.records


@settings(max_examples=150, deadline=None)
@given(_workloads(hostile=True))
def test_one_frame_accesses_match_the_account_path(workload):
    """Errors of every kind -- out of range, write-before-erase, a failure
    injected before data lands -- raise the same exception, charge
    nothing and leave the clock where it was, exactly as the ``_account``
    path did."""
    banks, capacity, ops = workload
    new, account, _old = _devices(banks, capacity)
    for device in (new, account):
        device.injector = _Raiser()
    now = 0.0
    for op, dt, fail in ops:
        now += dt
        new.injector.armed = account.injector.armed = fail
        got = _apply_new(new, op, now)
        assert got == _apply(account, op, now), op
        if got[0][0] == "error":
            assert got[1] == now
        assert new.bank_busy_until == account.bank_busy_until
        assert _stats_bits(new) == _stats_bits(account), op
        assert _medium(new) == _medium(account), op
    assert new.tracer.records == account.tracer.records
