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

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.devices.base import StorageDevice
from repro.devices.catalog import MB, FLASH_PAPER_NOMINAL, DeviceSpec
from repro.devices.errors import WriteBeforeEraseError
from repro.sim.clock import SimClock

ERASED_BYTE = 0xFF


@dataclass
class _SectorState:
    """Wear and programmed-interval bookkeeping for one erase sector."""

    erase_count: int = 0
    worn_out: bool = False
    # Sorted, disjoint, non-adjacent [start, end) byte intervals
    # (sector-relative) that currently hold programmed data.  Their ends
    # increase with their starts, so both methods below find the only
    # intervals that can matter by bisection: a log's appends (payload
    # growing up from the front, summaries down from the tail) cost
    # O(log n), not a scan and a re-sort of the whole list.
    programmed: List[Tuple[int, int]] = field(default_factory=list)

    def is_erased(self, start: int, end: int) -> bool:
        """True when no programmed interval overlaps ``[start, end)``."""
        programmed = self.programmed
        # The last interval starting before ``end`` ends furthest right.
        i = bisect_left(programmed, (end,))
        return i == 0 or programmed[i - 1][1] <= start

    def mark_programmed(self, start: int, end: int) -> None:
        """Insert ``[start, end)``, coalescing what it overlaps or touches."""
        programmed = self.programmed
        lo, hi = start, end
        first = last = bisect_right(programmed, (start, end))
        if first and start <= programmed[first - 1][1]:
            first -= 1
            lo = programmed[first][0]
            hi = max(programmed[first][1], end)
        while last < len(programmed) and programmed[last][0] <= hi:
            hi = max(hi, programmed[last][1])
            last += 1
        programmed[first:last] = [(lo, hi)]

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
        costs = (
            spec.read_overhead_s, spec.read_per_byte_s, spec.active_read_power_w,
            spec.write_overhead_s, spec.write_per_byte_s, spec.active_write_power_w,
            spec.erase_latency_s or 0.0,
        )
        # Non-negative costs make every latency, wait and energy
        # non-negative, and every wait at most its latency.
        if min(costs) < 0.0:
            raise ValueError(f"spec {spec.name!r} has a negative cost or power")
        super().__init__(
            name,
            capacity_bytes,
            idle_power_watts=spec.idle_power_w_per_mb * (capacity_bytes / MB),
        )
        self.spec = spec
        (self._read_overhead, self._read_per_byte, self._read_power,
         self._write_overhead, self._write_per_byte, self._write_power,
         self._erase_latency) = costs
        self.sector_bytes = sector
        self.num_sectors = capacity_bytes // sector
        self.sectors_per_bank = self.num_sectors // banks
        self.endurance = spec.endurance_cycles or 0
        # Busy horizon of each bank: the absolute sim time until which a
        # program or erase occupies it.  A request arriving earlier
        # stalls for the difference (Section 3.3's bank blocking).
        self.bank_busy_until = [0.0] * banks
        self._bank_bytes = self.sectors_per_bank * sector
        self._sectors = [_SectorState() for _ in range(self.num_sectors)]
        self._data = bytearray([ERASED_BYTE]) * capacity_bytes
        self._erased_sector = bytes([ERASED_BYTE]) * sector
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

    def sector_range(self, sector: int) -> Tuple[int, int]:
        start = sector * self.sector_bytes
        return start, start + self.sector_bytes

    def sector_erase_count(self, sector: int) -> int:
        return self._sectors[sector].erase_count

    def sector_programmed_bytes(self, sector: int) -> int:
        return self._sectors[sector].programmed_bytes()

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

    def _walk_banks(
        self, offset: int, nbytes: int, now: float, write: bool
    ) -> Tuple[float, float]:
        """Service ``[offset, offset + nbytes)`` bank by bank, in order.

        Each bank's chunk first stalls until that bank is idle, then
        takes the read or program service time; a program also occupies
        the bank until it completes.  Returns ``(latency, wait)``, where
        ``wait`` is the stalled portion of ``latency``.  :meth:`read` and
        :meth:`program` inline the one-bank case with the same float
        expressions.
        """
        if write:
            overhead, per_byte = self._write_overhead, self._write_per_byte
        else:
            overhead, per_byte = self._read_overhead, self._read_per_byte
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

    # ------------------------------------------------------------------
    # Operations.  Each one is a single frame: it checks, lets the fault
    # injector act, walks the banks, updates ``stats``, traces at the
    # pre-advance ``clock.now`` and then advances the caller's clock by
    # its latency itself.  It returns that latency and its stalled part
    # ``wait`` (a read returns its bytes first).
    # ------------------------------------------------------------------

    def read(self, offset: int, nbytes: int, clock: SimClock) -> Tuple[bytes, float, float]:
        """Read ``nbytes`` at ``offset``; returns ``(data, latency, wait)``."""
        if offset < 0 or nbytes < 0 or offset + nbytes > self.capacity_bytes:
            self.check_range(offset, nbytes)
        now = clock.now
        if self.injector is not None:
            # May flip stored bits (read disturb) or cut power mid-read.
            self.injector.on_read(self, offset, nbytes, now=now)
        bank_bytes = self._bank_bytes
        bank = offset // bank_bytes
        if 0 < nbytes and offset + nbytes <= (bank + 1) * bank_bytes:
            wait = self.bank_busy_until[bank] - now
            if wait < 0.0:
                wait = 0.0
            latency = wait + (self._read_overhead + self._read_per_byte * nbytes)
        else:
            # A read spanning banks is serviced bank-by-bank in order.
            latency, wait = self._walk_banks(offset, nbytes, now, False)
        busy = latency - wait
        stats = self.stats
        stats.reads += 1
        stats.bytes_read += nbytes
        stats.busy_time += busy
        stats.wait_time += wait
        stats.energy_joules += self._read_power * busy
        if self.tracer is not None:
            self.tracer.emit(
                self.name, "read", now, nbytes, latency,
                detail={"wait": wait} if wait > 0.0 else None,
            )
        data = bytes(self._data[offset : offset + nbytes])
        clock.advance(latency)
        return data, latency, wait

    def write(self, offset: int, data: bytes, clock: SimClock) -> Tuple[float, float]:
        """Program ``data`` into erased bytes (alias: :meth:`program`)."""
        return self.program(offset, data, clock)

    def _charge(
        self, op: str, nbytes: int, clock: SimClock, offset: int, write: bool
    ) -> Tuple[float, float]:
        """Walk, account, trace and advance for an access that moves no data."""
        self.check_range(offset, nbytes)
        now = clock.now
        latency, wait = self._walk_banks(offset, nbytes, now, write)
        busy = latency - wait
        stats = self.stats
        if write:
            stats.writes += 1
            stats.bytes_written += nbytes
            stats.energy_joules += self._write_power * busy
        else:
            stats.reads += 1
            stats.bytes_read += nbytes
            stats.energy_joules += self._read_power * busy
        stats.busy_time += busy
        stats.wait_time += wait
        if self.tracer is not None:
            self.tracer.emit(
                self.name, op, now, nbytes, latency,
                detail={"wait": wait} if wait > 0.0 else None,
            )
        clock.advance(latency)
        return latency, wait

    def charge_read(self, nbytes: int, clock: SimClock, offset: int = 0) -> Tuple[float, float]:
        """Timing/energy of a read with no data copy (accounting only).

        Identical bank-stall arithmetic to :meth:`read`, minus the byte
        materialization and fault injection (no data moves, so nothing
        can be corrupted or torn).
        """
        return self._charge("charge_read", nbytes, clock, offset, False)

    def charge_write(self, nbytes: int, clock: SimClock, offset: int = 0) -> Tuple[float, float]:
        """Timing/energy of a program with no data landed (accounting only).

        Occupies the bank exactly as :meth:`program` would -- the timing
        model is the point -- but skips erase-state checks, fault
        injection, and the medium update, so the charged range's stored
        bytes and programmed intervals are untouched.
        """
        return self._charge("charge_write", nbytes, clock, offset, True)

    def program(self, offset: int, data: bytes, clock: SimClock) -> Tuple[float, float]:
        """Program ``data`` at ``offset``; returns ``(latency, wait)``."""
        nbytes = len(data)
        if offset < 0 or offset + nbytes > self.capacity_bytes:
            self.check_range(offset, nbytes)
        sector, start = divmod(offset, self.sector_bytes)
        end = start + nbytes
        sectors = self._sectors
        if 0 < nbytes and end <= self.sector_bytes:
            # Within one sector (so one bank), as every log append is.
            # ``i`` counts the intervals starting before ``end``; the
            # last of them ends furthest right.
            programmed = sectors[sector].programmed
            i = bisect_left(programmed, (end,))
            if i and programmed[i - 1][1] > start:
                raise WriteBeforeEraseError(self.name, offset, nbytes)
            spans = None
        else:
            spans = tuple(self._split_by_sector(offset, nbytes))
            for span_sector, lo, hi in spans:
                if not sectors[span_sector].is_erased(lo, hi):
                    raise WriteBeforeEraseError(self.name, offset, nbytes)
        now = clock.now
        if self.injector is not None:
            # May raise ProgramFailedError (transient/permanent) or cut
            # power mid-program, leaving a torn prefix in the medium.
            self.injector.on_program(self, offset, data, now=now)
        if spans is None:
            bank = sector // self.sectors_per_bank
            busy_until = self.bank_busy_until
            wait = busy_until[bank] - now
            if wait < 0.0:
                wait = 0.0
            service = self._write_overhead + self._write_per_byte * nbytes
            latency = wait + service
            done = now + wait + service
            if done > busy_until[bank]:
                busy_until[bank] = done
        else:
            bank = offset // self._bank_bytes
            latency, wait = self._walk_banks(offset, nbytes, now, True)
        busy = latency - wait
        stats = self.stats
        stats.writes += 1
        stats.bytes_written += nbytes
        stats.busy_time += busy
        stats.wait_time += wait
        stats.energy_joules += self._write_power * busy
        if self.tracer is not None:
            # Bank detail feeds the per-bank wear / write-amplification
            # series in repro.obs.analyze.
            detail = {"bank": bank}
            if wait > 0.0:
                detail["wait"] = wait
            self.tracer.emit(self.name, "program", now, nbytes, latency, detail=detail)
        self._data[offset : offset + nbytes] = data
        if spans is None:
            # [start, end) is erased, so it can only touch (not overlap)
            # the interval ending at ``start`` and the one starting at
            # ``end``: coalesce with those.
            lo, hi, first, last = start, end, i, i
            if i and programmed[i - 1][1] == start:
                first -= 1
                lo = programmed[first][0]
            if i < len(programmed) and programmed[i][0] == end:
                last += 1
                hi = programmed[i][1]
            programmed[first:last] = [(lo, hi)]
        else:
            for span_sector, lo, hi in spans:
                sectors[span_sector].mark_programmed(lo, hi)
        clock.advance(latency)
        return latency, wait

    def erase_sector(self, sector: int, clock: SimClock) -> Tuple[float, float]:
        """Erase one sector, charging wear against its endurance budget.

        Returns ``(latency, wait)``."""
        if not 0 <= sector < self.num_sectors:
            raise ValueError(f"sector {sector} outside device")
        now = clock.now
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

        bank = sector // self.sectors_per_bank
        busy_until = self.bank_busy_until
        wait = busy_until[bank] - now
        if wait < 0.0:
            wait = 0.0
        service = self._erase_latency
        done = now + wait + service
        if done > busy_until[bank]:
            busy_until[bank] = done

        start = sector * self.sector_bytes
        self._data[start : start + self.sector_bytes] = self._erased_sector
        state.programmed = []

        latency = wait + service
        stats = self.stats
        stats.erases += 1
        stats.busy_time += latency - wait
        stats.wait_time += wait
        stats.energy_joules += self._write_power * service
        if self.tracer is not None:
            detail = {"sector": sector, "bank": bank}
            if wait > 0.0:
                detail["wait"] = wait
            self.tracer.emit(
                self.name, "erase", now, self.sector_bytes, latency, detail=detail,
            )
        clock.advance(latency)
        return latency, wait

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
            "sectors": n,
        }

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
