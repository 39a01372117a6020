"""Direct-mapped flash memory.

This is the device whose quirks drive the whole paper:

- **Erase-before-write** -- bytes must be in the erased state before they
  can be programmed; violating this raises
  :class:`~repro.devices.errors.WriteBeforeEraseError`.
- **Asymmetric speed** -- reads are DRAM-class (~100 ns/byte), programs
  are two orders of magnitude slower (~10 us/byte), and erases are slower
  still and cover a whole sector.
- **Bounded endurance** -- each sector survives a guaranteed number of
  erase cycles; the model tracks per-sector wear and records the moment
  the first sector exceeds its guarantee (experiment E9's lifetime
  metric).
- **Bank blocking** -- a program or erase occupies its *bank*; reads to
  that bank stall until it completes, while other banks service reads at
  full speed.  This is exactly the behaviour the paper's Section 3.3
  proposes partitioning around (experiment E8).

The device stores real bytes (erased state reads as 0xFF) so file-system
tests verify integrity end-to-end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.devices.base import AccessResult, DeviceQueue, StorageDevice
from repro.devices.catalog import MB, FLASH_PAPER_NOMINAL, DeviceSpec
from repro.devices.errors import WornOutError, WriteBeforeEraseError

ERASED_BYTE = 0xFF


@dataclass
class FlashBankState:
    """Dynamic state of one flash bank.

    Each bank is an independent service centre: a program or erase
    occupies it, and a read arriving meanwhile stalls.  Its busy horizon
    lives in a :class:`DeviceQueue`; ``busy_until`` is a read-only view.
    """

    index: int
    programs: int = 0
    erases: int = 0
    queue: Optional[DeviceQueue] = None

    def __post_init__(self) -> None:
        if self.queue is None:
            self.queue = DeviceQueue(f"bank{self.index}")

    @property
    def busy_until(self) -> float:
        return self.queue.busy_until


@dataclass
class _SectorState:
    """Wear and programmed-interval bookkeeping for one erase sector."""

    erase_count: int = 0
    worn_out: bool = False
    # Sorted, disjoint [start, end) byte intervals (sector-relative) that
    # currently hold programmed data.
    programmed: List[Tuple[int, int]] = field(default_factory=list)

    def is_erased(self, start: int, end: int) -> bool:
        return all(end <= lo or start >= hi for lo, hi in self.programmed)

    def mark_programmed(self, start: int, end: int) -> None:
        intervals = self.programmed + [(start, end)]
        intervals.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in intervals:
            if merged and lo <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self.programmed = merged

    def programmed_bytes(self) -> int:
        return sum(hi - lo for lo, hi in self.programmed)


class FlashMemory(StorageDevice):
    """A multi-bank, direct-mapped flash array."""

    def __init__(
        self,
        capacity_bytes: int,
        spec: DeviceSpec = FLASH_PAPER_NOMINAL,
        banks: int = 1,
        name: str = "flash",
        strict_endurance: bool = False,
    ) -> None:
        if spec.kind != "flash":
            raise ValueError(f"spec {spec.name!r} is not a flash spec")
        if banks < 1:
            raise ValueError("flash needs at least one bank")
        sector = spec.erase_sector_bytes or 0
        if capacity_bytes % (sector * banks) != 0:
            raise ValueError(
                f"capacity {capacity_bytes} not divisible by "
                f"banks({banks}) x erase sector({sector})"
            )
        super().__init__(
            name,
            capacity_bytes,
            idle_power_watts=spec.idle_power_w_per_mb * (capacity_bytes / MB),
        )
        self.spec = spec
        self.sector_bytes = sector
        self.num_sectors = capacity_bytes // sector
        self.num_banks = banks
        self.sectors_per_bank = self.num_sectors // banks
        self.endurance = spec.endurance_cycles or 0
        self.strict_endurance = strict_endurance
        self.bank_states = [FlashBankState(i) for i in range(banks)]
        self._sectors = [_SectorState() for _ in range(self.num_sectors)]
        self._data = bytearray([ERASED_BYTE]) * capacity_bytes
        # Optional fault-injection hook (see repro.faults.injector); when
        # attached it may corrupt reads, fail programs/erases, or cut
        # power mid-operation.
        self.injector = None
        self.total_erases = 0
        self.worn_sector_count = 0
        # Moment (sim time, total erase count) the first sector exceeded
        # its endurance guarantee; None while all sectors are healthy.
        self.first_wearout: Optional[Tuple[float, int]] = None

    # ------------------------------------------------------------------
    # Geometry helpers.
    # ------------------------------------------------------------------

    def sector_of(self, offset: int) -> int:
        if not 0 <= offset < self.capacity_bytes:
            raise ValueError(f"offset {offset} outside device")
        return offset // self.sector_bytes

    def bank_of_sector(self, sector: int) -> int:
        """Banks hold contiguous runs of sectors."""
        if not 0 <= sector < self.num_sectors:
            raise ValueError(f"sector {sector} outside device")
        return sector // self.sectors_per_bank

    def bank_of_offset(self, offset: int) -> int:
        return self.bank_of_sector(self.sector_of(offset))

    def sector_range(self, sector: int) -> Tuple[int, int]:
        start = sector * self.sector_bytes
        return start, start + self.sector_bytes

    def sector_erase_count(self, sector: int) -> int:
        return self._sectors[sector].erase_count

    def sector_programmed_bytes(self, sector: int) -> int:
        return self._sectors[sector].programmed_bytes()

    def is_erased(self, offset: int, nbytes: int) -> bool:
        self.check_range(offset, nbytes)
        for sector, start, end in self._split_by_sector(offset, nbytes):
            if not self._sectors[sector].is_erased(start, end):
                return False
        return True

    def _split_by_sector(self, offset: int, nbytes: int):
        """Yield (sector, sector-relative start, sector-relative end)."""
        pos = offset
        remaining = nbytes
        while remaining > 0:
            sector = pos // self.sector_bytes
            within = pos - sector * self.sector_bytes
            chunk = min(remaining, self.sector_bytes - within)
            yield sector, within, within + chunk
            pos += chunk
            remaining -= chunk

    # ------------------------------------------------------------------
    # Bank arbitration.
    # ------------------------------------------------------------------

    def _wait_for_bank(self, bank: int, now: float) -> float:
        """Seconds the request must wait for the bank to go idle."""
        return self.bank_states[bank].queue.wait_for(now)

    def _occupy_bank(self, bank: int, start: float, service: float) -> None:
        self.bank_states[bank].queue.occupy(start, service)

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def read(self, offset: int, nbytes: int, now: float) -> Tuple[bytes, AccessResult]:
        self.check_range(offset, nbytes)
        if self.injector is not None:
            # May flip stored bits (read disturb) or cut power mid-read.
            self.injector.on_read(self, offset, nbytes, now=now)
        # A read spanning banks is serviced bank-by-bank in order.
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

    def write(self, offset: int, data: bytes, now: float) -> AccessResult:
        """Program ``data`` into erased bytes (alias: :meth:`program`)."""
        return self.program(offset, data, now)

    def charge_read(self, nbytes: int, now: float, offset: int = 0) -> AccessResult:
        """Timing/energy of a read with no data copy (accounting only).

        Identical bank-stall arithmetic to :meth:`read`, minus the byte
        materialization and fault injection (no data moves, so nothing
        can be corrupted or torn).
        """
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
        """Timing/energy of a program with no data landed (accounting only).

        Occupies the bank exactly as :meth:`program` would -- the timing
        model is the point -- but skips erase-state checks, fault
        injection, and the medium update, so the charged range's stored
        bytes and programmed intervals are untouched.
        """
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
            # May raise ProgramFailedError (transient/permanent) or cut
            # power mid-program, leaving a torn prefix in the medium.
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
            # Bank detail feeds the per-bank wear / write-amplification
            # series in repro.obs.analyze.
            detail = {"bank": self.bank_of_offset(offset)}
            if wait > 0.0:
                detail["wait"] = wait
            self.tracer.emit(
                self.name, "program", now, nbytes, result.latency,
                detail=detail,
            )
        return result

    def erase_sector(self, sector: int, now: float) -> AccessResult:
        """Erase one sector, charging wear against its endurance budget."""
        if not 0 <= sector < self.num_sectors:
            raise ValueError(f"sector {sector} outside device")
        if self.injector is not None:
            # May raise EraseFailedError or cut power mid-erase (leaving
            # the sector scrambled).  Failed attempts charge no wear.
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
            if self.strict_endurance:
                raise WornOutError(self.name, sector, state.erase_count, self.endurance)

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

    # ------------------------------------------------------------------
    # Wear reporting (experiment E9).
    # ------------------------------------------------------------------

    def wear_summary(self) -> dict:
        counts = [s.erase_count for s in self._sectors]
        n = len(counts)
        mean = sum(counts) / n if n else 0.0
        if n > 1 and mean > 0:
            var = sum((c - mean) ** 2 for c in counts) / n
            cov = (var ** 0.5) / mean
        else:
            cov = 0.0
        return {
            "total_erases": self.total_erases,
            "mean_erases_per_sector": mean,
            "max_erases": max(counts) if counts else 0,
            "min_erases": min(counts) if counts else 0,
            "wear_cov": cov,
            "worn_sectors": self.worn_sector_count,
            "endurance": self.endurance,
        }

    def raw_bytes(self, offset: int, nbytes: int) -> bytes:
        """Zero-cost peek used by recovery and tests (no timing/energy)."""
        self.check_range(offset, nbytes)
        return bytes(self._data[offset : offset + nbytes])

    # ------------------------------------------------------------------
    # Fault-injection medium effects (called by repro.faults.injector).
    # ------------------------------------------------------------------

    def fault_flip_bit(self, offset: int, bit: int) -> None:
        """Flip one stored bit (read disturb / retention loss)."""
        self.check_range(offset, 1)
        self._data[offset] ^= 1 << (bit & 7)

    def fault_apply_torn_program(self, offset: int, data: bytes, torn_bytes: int) -> None:
        """Land only a prefix of an interrupted program.

        The *whole* intended range is marked programmed: bits beyond the
        torn prefix are in an unknown state and must never be treated as
        erased again without an actual erase cycle.
        """
        self.check_range(offset, len(data))
        torn = max(0, min(torn_bytes, len(data)))
        self._data[offset : offset + torn] = data[:torn]
        for sector, start, end in self._split_by_sector(offset, len(data)):
            self._sectors[sector].mark_programmed(start, end)

    def fault_scramble_sector(self, sector: int, garbage: bytes) -> None:
        """An interrupted erase leaves the sector in a scrambled state."""
        if len(garbage) != self.sector_bytes:
            raise ValueError("garbage must cover the whole sector")
        start, end = self.sector_range(sector)
        self._data[start:end] = garbage
        self._sectors[sector].programmed = [(0, self.sector_bytes)]
