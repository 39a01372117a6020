"""Property test: the single flash bank walk == the four loops it replaced.

``FlashMemory.read``/``charge_read``/``charge_write``/``program`` each
used to walk the banks in a loop of their own, over per-bank
``DeviceQueue`` busy horizons held in ``FlashBankState`` records;
``erase_sector`` occupied the same horizons.  They now share one
``_walk_banks`` over a plain ``bank_busy_until`` list.  :class:`OldFlash`
keeps the five old method bodies verbatim (with minimal copies of the
two deleted classes) as the reference.  For any interleaving of reads,
charges, programs and erases -- straddling bank boundaries, with banks
kept busy -- both must agree exactly: latency, wait, energy, errors,
per-bank busy horizons, ``DeviceStats``, stored bytes and trace events.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.base import AccessResult
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.errors import DeviceError, WriteBeforeEraseError
from repro.devices.flash import ERASED_BYTE, FlashMemory
from repro.obs.tracer import Tracer

KB = 1024

# Small sectors keep many bank boundaries inside a tiny device; 2 ms
# erases keep banks busy across several operations.
SPEC = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="bank-walk test flash", erase_sector_bytes=1 * KB,
    erase_latency_s=2e-3,
)
SECTORS_PER_BANK = 4


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
        self.stats.record_read(nbytes, result)
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
        self.stats.record_read(nbytes, result)
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
        self.stats.record_write(nbytes, result)
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
        self.stats.record_write(nbytes, result)
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
        self.stats.record_erase(result)
        if self.tracer is not None:
            detail = {"sector": sector, "bank": self.bank_of_sector(sector)}
            if stall > 0.0:
                detail["wait"] = stall
            self.tracer.emit(
                self.name, "erase", now, self.sector_bytes, result.latency,
                detail=detail,
            )
        return result


def _apply(flash: FlashMemory, op: tuple, now: float):
    """Run one operation; returns its observable outcome."""
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
                payload = bytes((offset + i) & 0xFF for i in range(nbytes))
                result = flash.program(offset, payload, now)
    except DeviceError as exc:
        return ("error", type(exc).__name__)
    return (result.latency, result.wait, result.energy, data)


@st.composite
def _ranges(draw, capacity: int, bank_bytes: int):
    """An (offset, nbytes) inside the device, often straddling a bank edge."""
    if draw(st.booleans()):
        edge = bank_bytes * draw(st.integers(1, capacity // bank_bytes - 1))
        offset = edge - draw(st.integers(0, 600))
    else:
        offset = draw(st.integers(0, capacity - 1))
    nbytes = draw(st.integers(0, min(3 * KB, capacity - offset)))
    return offset, nbytes


@st.composite
def _workloads(draw):
    banks = draw(st.sampled_from([2, 4]))
    bank_bytes = SECTORS_PER_BANK * SPEC.erase_sector_bytes
    capacity = banks * bank_bytes
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ["read", "charge_read", "charge_write", "program", "program", "erase"]
        ))
        if kind == "erase":
            op = ("erase", draw(st.integers(0, banks * SECTORS_PER_BANK - 1)))
        else:
            op = (kind,) + draw(_ranges(capacity, bank_bytes))
        # Small steps keep programs and erases in flight when the next
        # operation arrives; the occasional long step lets banks drain.
        dt = draw(st.sampled_from([0.0, 1e-6, 5e-5, 1e-3, 0.05]))
        ops.append((op, dt))
    return banks, capacity, ops


@settings(max_examples=150, deadline=None)
@given(_workloads())
def test_bank_walk_matches_old_loops(workload):
    banks, capacity, ops = workload
    new = FlashMemory(capacity, spec=SPEC, banks=banks, name="flash")
    old = OldFlash(capacity, spec=SPEC, banks=banks, name="flash")
    new.tracer, old.tracer = Tracer(), Tracer()
    now = 0.0
    for op, dt in ops:
        now += dt
        assert _apply(new, op, now) == _apply(old, op, now), op
        assert new.bank_busy_until == old.busy_horizons()
    assert new.stats.snapshot() == old.stats.snapshot()
    assert new._data == old._data
    assert [new.sector_programmed_bytes(s) for s in range(new.num_sectors)] == [
        old.sector_programmed_bytes(s) for s in range(old.num_sectors)
    ]
    assert list(new.tracer.events()) == list(old.tracer.events())

