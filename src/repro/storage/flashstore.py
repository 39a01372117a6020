"""Flash block stores: the paper's log and the naive in-place baseline.

This is where the paper's flash drawbacks get hidden.  :class:`FlashStore`
offers a simple keyed-block API -- ``write_block`` / ``read_block`` /
``delete_block`` -- and internally:

- performs **out-of-place updates** so callers never wait for an erase
  on the write path until space runs out;
- runs the **cleaner** (:mod:`repro.storage.gc`) when erased sectors run
  low, relocating live blocks and erasing victims;
- applies a **wear policy** (:mod:`repro.storage.wear`) when opening
  sectors, including static rotation of cold data.

All of the device's banks form one pool with one open sector; the
paper's read-mostly bank partition is measured on the raw device by
experiment E8.

:class:`InPlaceFlashStore`, with the same API, is the deliberately naive
baseline the paper implies one must *not* build: every logical block
lives at a fixed flash location and each overwrite is a
read-modify-erase-program of the whole sector.  Experiments E9/E12 use
it to show what logging + wear leveling buys.

Both stores advance a shared :class:`~repro.sim.clock.SimClock` by every
device operation they perform, so cleaning costs land on the writes that
triggered them -- the latency spikes are part of the phenomenon.
"""

from __future__ import annotations

import json
import struct
import zlib
from json.encoder import encode_basestring_ascii
from typing import Dict, Hashable, List, Optional, Tuple

from repro.devices.errors import EraseFailedError, ProgramFailedError
from repro.devices.flash import FlashMemory
from repro.faults.ecc import ECC_BYTES, ecc_check, ecc_encode
from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock
from repro.sim.stats import StatHandle, StatRegistry
from repro.storage.allocator import (
    SUMMARY_BYTES,
    Location,
    OutOfFlashSpace,
    SectorAllocator,
)
from repro.storage.gc import CleaningPolicy, CleaningStats, choose_victim
from repro.storage.wear import WearPolicy, choose_erased_sector, static_rotation_victim


class CorruptBlockError(Exception):
    """A block failed its ECC check beyond what one-bit correction fixes."""

    def __init__(self, key: Hashable) -> None:
        super().__init__(f"block {key!r} is corrupt beyond ECC correction")
        self.key = key


#: Linear backoff step between retries of a transiently failed program
#: or erase: the n-th retry waits n times this long.
PROGRAM_RETRY_BACKOFF_S = 1e-4

#: Retries of a transiently failed program or erase before the sector
#: is treated as failing (retired, its data placed elsewhere).
PROGRAM_RETRY_LIMIT = 4

#: In-place store: every logical block owns one fixed slot of this size.
IN_PLACE_SLOT_BYTES = 4096

#: Payloads of exactly this size are kept aligned so their flash pages
#: can be mapped directly into address spaces (see repro.mem.mmap).
PAGE_ALIGN = 4096

# Self-describing log summary entry, written at the tail of each sector
# for every appended block (LFS segment-summary style), one
# SUMMARY_BYTES slot each.  Crash recovery rebuilds the whole index by
# scanning these.  Layout of one 64-byte slot:  [21-byte head][key]
# [13-byte ECC codeword if flagged][0xFF pad][4-byte CRC32 of bytes
# 0..59].  The trailing CRC rejects torn or bit-flipped entries
# outright, so a corrupt newest entry can never shadow an older intact
# copy of the same block.
_SUMMARY_MAGIC = 0x5EC7
# magic, kind, seq, offset, length, keylen, flags
_SUMMARY = struct.Struct("<HBQIIBB")
_SUMMARY_CRC = struct.Struct("<I")
_KIND_DATA = 1
_FLAG_ECC = 1
_MAX_KEY_BYTES = SUMMARY_BYTES - _SUMMARY.size - _SUMMARY_CRC.size - ECC_BYTES


#: One compact encoder for every key (a tuple encodes as a JSON array).
_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))


def encode_key(key: Hashable) -> bytes:
    """Serialize a block key (tuple of scalars, or a scalar) to JSON.

    A tuple of plain ``str``/``int`` items -- every key shape the stores
    use -- is joined here from the encoder's own string escaper and
    ``int.__repr__``, the same bytes :data:`_KEY_ENCODER` gives without
    its per-call set-up; any other key goes through the encoder.
    """
    text = None
    if type(key) is tuple:
        parts = []
        for item in key:
            kind = type(item)
            if kind is str:
                parts.append(encode_basestring_ascii(item))
            elif kind is int:
                parts.append(int.__repr__(item))
            else:
                break
        else:
            text = "[" + ",".join(parts) + "]"
    if text is None:
        text = _KEY_ENCODER.encode(key)
    raw = text.encode("utf-8")
    if len(raw) > _MAX_KEY_BYTES:
        raise ValueError(f"block key too large to log: {key!r}")
    return raw


def decode_key(raw: bytes) -> Hashable:
    value = json.loads(raw.decode("utf-8"))
    return tuple(value) if isinstance(value, list) else value


def pack_summary(
    kind: int,
    seq: int,
    offset: int,
    length: int,
    key: Hashable,
    ecc: Optional[bytes] = None,
) -> bytes:
    raw_key = encode_key(key)
    flags = _FLAG_ECC if ecc is not None else 0
    head = _SUMMARY.pack(_SUMMARY_MAGIC, kind, seq, offset, length, len(raw_key), flags)
    entry = head + raw_key
    if ecc is not None:
        if len(ecc) != ECC_BYTES:
            raise ValueError(f"ECC codeword must be {ECC_BYTES} bytes")
        entry += ecc
    body_max = SUMMARY_BYTES - _SUMMARY_CRC.size
    entry += b"\xff" * (body_max - len(entry))
    return entry + _SUMMARY_CRC.pack(zlib.crc32(entry) & 0xFFFFFFFF)


def unpack_summary(
    entry: bytes,
) -> Optional[Tuple[int, int, int, int, Hashable, Optional[bytes]]]:
    """Parse one summary slot; None if torn, corrupt, or never programmed.

    Returns ``(kind, seq, offset, length, key, ecc)`` where ``ecc`` is
    the block's codeword (None for entries written without ECC).
    """
    body = entry[: SUMMARY_BYTES - _SUMMARY_CRC.size]
    (crc,) = _SUMMARY_CRC.unpack(entry[SUMMARY_BYTES - _SUMMARY_CRC.size :])
    if zlib.crc32(body) & 0xFFFFFFFF != crc:
        return None
    magic, kind, seq, offset, length, keylen, flags = _SUMMARY.unpack(
        entry[: _SUMMARY.size]
    )
    if magic != _SUMMARY_MAGIC or keylen > _MAX_KEY_BYTES:
        return None
    try:
        key = decode_key(entry[_SUMMARY.size : _SUMMARY.size + keylen])
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    ecc: Optional[bytes] = None
    if flags & _FLAG_ECC:
        start = _SUMMARY.size + keylen
        ecc = entry[start : start + ECC_BYTES]
    return kind, seq, offset, length, key, ecc


class _SectorStore:
    """What both stores share: the device, the clock, the
    ``"flashstore"`` stats and tracer, and timed, retried device access."""

    _user_bytes_written = StatHandle(StatRegistry.counter, "user_bytes_written")
    _read_latency = StatHandle(StatRegistry.histogram, "read_latency")

    def __init__(self, flash: FlashMemory, clock: SimClock) -> None:
        self.flash = flash
        self.clock = clock
        self.stats = StatRegistry("flashstore")
        self.stats.derived["write_amplification"] = self.write_amplification
        # Optional repro.obs.Tracer (the one active at construction);
        # writes, GC activity (copies, cleans, retirements) and ECC
        # outcomes emit trace records when set.
        self.tracer = obs_runtime.get_tracer()

    def _do_read(self, offset: int, nbytes: int) -> bytes:
        data, latency, wait = self.flash.read(offset, nbytes, self.clock)
        self._read_latency.record(latency)
        if wait > 0:
            self.stats.counter("reads_stalled").add(1)
            self.stats.histogram("read_stall").record(wait)
        return data

    def _do_program(self, offset: int, data: bytes) -> None:
        """Program with bounded retry on transient device failures.

        Permanent failures (and transients that exhaust the retry
        budget) propagate as :class:`ProgramFailedError`; callers retire
        the sector and place the data elsewhere.
        """
        try:
            self.flash.program(offset, data, self.clock)
        except ProgramFailedError as err:
            self._retry_program(offset, data, err)

    def _retry_program(self, offset: int, data: bytes, err: ProgramFailedError) -> None:
        """Retry a program whose first attempt raised ``err``, with linear
        backoff, until it lands or the failure is permanent or the
        budget is spent (then the last error propagates)."""
        attempt = 0
        while True:
            if not err.transient or attempt >= PROGRAM_RETRY_LIMIT:
                raise err
            attempt += 1
            self.stats.counter("program_retries").add(1)
            self.clock.advance(PROGRAM_RETRY_BACKOFF_S * attempt)
            try:
                self.flash.program(offset, data, self.clock)
                return
            except ProgramFailedError as again:
                err = again

    def _do_erase(self, sector: int) -> None:
        attempt = 0
        while True:
            try:
                self.flash.erase_sector(sector, self.clock)
                break
            except EraseFailedError as err:
                if not err.transient or attempt >= PROGRAM_RETRY_LIMIT:
                    raise
                attempt += 1
                self.stats.counter("erase_retries").add(1)
                self.clock.advance(PROGRAM_RETRY_BACKOFF_S * attempt)
        self.stats.counter("erases").add(1)

    def write_amplification(self) -> float:
        """(user + cleaner) bytes programmed per user byte."""
        user = self.stats.value("user_bytes_written")
        gc = self.stats.value("gc_bytes_copied")
        return (user + gc) / user if user else 0.0


class FlashStore(_SectorStore):
    """Log-structured keyed block store over a :class:`FlashMemory` device."""

    def __init__(
        self,
        flash: FlashMemory,
        clock: SimClock,
        cleaning: CleaningPolicy = CleaningPolicy.COST_BENEFIT,
        wear: WearPolicy = WearPolicy.DYNAMIC,
        free_target_sectors: int = 4,
        wear_gap_threshold: int = 16,
        ecc: bool = False,
    ) -> None:
        """The log is self-describing: it writes an LFS-style summary
        entry per block at the sector tail, making the log recoverable
        after total power loss (see :meth:`recover`); it costs
        ``SUMMARY_BYTES`` of flash per block.

        ``ecc`` additionally embeds a single-error-correcting codeword
        per block in its summary entry (NAND OOB style): reads verify,
        correct one flipped bit, and scrub the block back to flash;
        worse corruption raises :class:`CorruptBlockError` instead of
        returning garbage.

        Transient program/erase failures are retried up to
        :data:`PROGRAM_RETRY_LIMIT` times with linear backoff
        (:data:`PROGRAM_RETRY_BACKOFF_S`); exhausted or
        permanent failures retire the sector (bad-block remapping)."""
        super().__init__(flash, clock)
        self.cleaning = cleaning
        self.wear = wear
        self.free_target_sectors = max(2, free_target_sectors)
        self.wear_gap_threshold = wear_gap_threshold
        self.ecc = ecc
        # Largest block one erase sector holds (beside its summary slot).
        self._max_payload = flash.sector_bytes - SUMMARY_BYTES
        # key -> ECC codeword for the current version of each block.
        # Cached in DRAM (free to read); recovery rebuilds it from the
        # summary entries, which are the durable copy.
        self._ecc: Dict[Hashable, bytes] = {}
        if flash.sector_bytes < PAGE_ALIGN + 2 * SUMMARY_BYTES:
            raise ValueError(
                "self-describing log needs erase sectors larger than "
                f"{PAGE_ALIGN + 2 * SUMMARY_BYTES} bytes (got {flash.sector_bytes})"
            )
        self.allocator = SectorAllocator(flash)
        self._seq = 0
        self.cleaning_stats = CleaningStats()
        self._index: Dict[Hashable, Location] = {}
        # The sector appends currently go to.
        self._open: Optional[int] = None
        # Callbacks (key, old_loc, new_loc) fired when cleaning moves a
        # block; mmap uses this to retarget page tables (paper 3.1).
        self.relocation_listeners: List = []

    # ------------------------------------------------------------------
    # Public API.
    # ------------------------------------------------------------------

    def contains(self, key: Hashable) -> bool:
        return key in self._index

    def location_of(self, key: Hashable) -> Location:
        """Current physical placement of a block."""
        return self._index[key]

    def keys(self) -> List[Hashable]:
        return list(self._index)

    def write_block(self, key: Hashable, data: bytes) -> None:
        """Store ``data`` under ``key``, replacing any previous version."""
        nbytes = len(data)
        if not nbytes:
            raise ValueError("cannot store an empty block")
        if nbytes > self._max_payload:
            raise ValueError(
                f"block of {nbytes} bytes exceeds what an erase sector "
                f"holds ({self._max_payload}); chunk it"
            )
        self._user_bytes_written.value += nbytes
        t0 = self.clock.now
        self._write_logging(key, data)
        if self.tracer is not None:
            # Logical store write with its destination bank: the
            # denominator of per-bank write amplification (the matching
            # physical bytes come from the device's "program" events).
            sector = self._index[key].sector
            detail = {
                "device": self.flash.name,
                "sector": sector,
                "bank": self.allocator.sectors[sector].bank,
            }
            self.tracer.emit(
                "flashstore", "write", t0, nbytes, self.clock.now - t0,
                outcome="logged", detail=detail,
            )

    def read_block(self, key: Hashable) -> bytes:
        loc = self._index[key]
        data = self._do_read(loc.sector * self.allocator.sector_bytes + loc.offset, loc.length)
        if self.ecc:
            data = self._verify_block(key, data, scrub=True)
        return data

    def _verify_block(self, key: Hashable, data: bytes, scrub: bool) -> bytes:
        """ECC-check a block read; correct one flipped bit and (when
        ``scrub`` is set) rewrite the corrected copy out-of-place so the
        corruption cannot accumulate a second, uncorrectable flip."""
        code = self._ecc.get(key)
        if code is None:
            return data
        status, fixed = ecc_check(data, code)
        if status == "ok":
            return data
        if status == "failed":
            self.stats.counter("ecc_uncorrectable").add(1)
            if self.tracer is not None:
                self.tracer.emit(
                    "flashstore", "ecc", self.clock.now, len(data),
                    outcome="uncorrectable",
                )
            raise CorruptBlockError(key)
        self.stats.counter("ecc_corrected").add(1)
        if self.tracer is not None:
            self.tracer.emit(
                "flashstore", "ecc", self.clock.now, len(data),
                outcome="corrected", detail={"scrubbed": scrub},
            )
        if scrub:
            self.stats.counter("scrub_rewrites").add(1)
            self._write_logging(key, fixed)
        return fixed

    def delete_block(self, key: Hashable) -> None:
        loc = self._index.pop(key)
        self._ecc.pop(key, None)
        self.allocator.invalidate(loc)

    # ------------------------------------------------------------------
    # Appending to the log.
    # ------------------------------------------------------------------

    @staticmethod
    def _align_for(data_len: int) -> int:
        """Page-size payloads stay page aligned (direct-mappable)."""
        return PAGE_ALIGN if data_len % PAGE_ALIGN == 0 else 1

    def _append_and_program(
        self, sector: int, key: Hashable, data: bytes, align: int
    ) -> Location:
        """Append a block (``align`` from :meth:`_align_for`): payload,
        then its tail summary entry.

        Each program is tried inline and retried by
        :meth:`_retry_program` only if it fails.  On a permanent program
        failure the allocator reservation is rolled back (marked dead)
        before the error propagates, so the caller can retire the sector
        and place the block elsewhere.
        """
        alloc = self.allocator
        length = len(data)
        loc = alloc.append(sector, key, length, align)
        code = ecc_encode(data) if self.ecc else None
        flash, clock = self.flash, self.clock
        base = sector * alloc.sector_bytes
        try:
            offset = base + loc.offset
            try:
                flash.program(offset, data, clock)
            except ProgramFailedError as err:
                self._retry_program(offset, data, err)
            # The tail slot append() just reserved, the sector's last.
            offset = base + alloc.sector_bytes - (
                alloc.sectors[sector].summary_entries * SUMMARY_BYTES
            )
            entry = pack_summary(_KIND_DATA, self._seq, loc.offset, length, key, code)
            self._seq += 1
            try:
                flash.program(offset, entry, clock)
            except ProgramFailedError as err:
                self._retry_program(offset, entry, err)
        except ProgramFailedError:
            alloc.invalidate(loc)
            raise
        if code is not None:
            self._ecc[key] = code
        return loc

    def _write_logging(self, key: Hashable, data: bytes) -> None:
        length = len(data)
        align = PAGE_ALIGN if length % PAGE_ALIGN == 0 else 1  # _align_for, inline
        while True:
            sector = self._open
            if sector is None or not self.allocator.fits(sector, length, align):
                sector = self._ensure_open_sector(length)
            # Look the old location up *after* ensuring space: cleaning may
            # have relocated this very key while making room.
            old = self._index.get(key)
            try:
                loc = self._append_and_program(sector, key, data, align)
                break
            except ProgramFailedError:
                # The open sector's medium is failing: evacuate its live
                # blocks, retire it, and try again somewhere else.  The
                # loop terminates because each retirement permanently
                # removes a sector (OutOfFlashSpace fires when none are
                # left).
                self._evacuate_and_retire(sector)
        self._index[key] = loc
        if old is not None:
            self.allocator.invalidate(old)
        if self.wear is WearPolicy.STATIC:
            self._maybe_static_rotate()

    def _ensure_open_sector(self, length: int) -> int:
        """Open a fresh sector once the open sector (if any) has no room
        for ``length`` bytes: seal that one, reclaim space if it runs
        low, and take an erased sector."""
        open_sector = self._open
        if open_sector is not None:
            self.allocator.seal(open_sector, self.clock.now)
            self._open = None
        self._reclaim_if_low()
        sector = self._take_erased(length)
        self._open = sector
        return sector

    def _space_error(self, detail: str, requested: Optional[int] = None) -> OutOfFlashSpace:
        alloc = self.allocator
        return OutOfFlashSpace(
            detail,
            requested_bytes=requested,
            live_bytes=alloc.total_live_bytes,
            erased_sectors=alloc.free_sector_count(),
            retired_sectors=len(alloc.remap),
        )

    @property
    def gc_reserve_sectors(self) -> int:
        """Erased sectors reserved for the cleaner.

        User writes may never consume the last ones, or the cleaner
        could find itself with live data to relocate and nowhere to put
        it (the classic LFS deadlock).  Tiny test devices get a reserve
        of one; real geometries get two.
        """
        return 2 if self.flash.num_sectors >= 16 else 1

    def _take_erased(self, length: Optional[int] = None) -> int:
        if self.allocator.free_sector_count() <= self.gc_reserve_sectors:
            # Try to claw space back before touching the reserve.
            self.cleaning_stats.forced_cleanings += 1
            cleaned = 0
            while (
                self.allocator.free_sector_count() <= self.gc_reserve_sectors
                and cleaned < 8
            ):
                if not self._clean_one():
                    break
                cleaned += 1
            if self.allocator.free_sector_count() <= self.gc_reserve_sectors:
                raise self._space_error(
                    f"device effectively full (reserve={self.gc_reserve_sectors} "
                    "sectors held for cleaning)",
                    requested=length,
                )
        sector = choose_erased_sector(self.allocator, self.wear)
        if sector is None:
            # Forced cleaning: recover space synchronously on the write path.
            self.cleaning_stats.forced_cleanings += 1
            if not self._clean_one():
                raise self._space_error(
                    "no erased sectors and nothing to clean", requested=length
                )
            sector = choose_erased_sector(self.allocator, self.wear)
            if sector is None:
                raise self._space_error("cleaning recovered no sector", requested=length)
        self.allocator.take_erased(sector)
        return sector

    def _reclaim_if_low(self) -> None:
        cleaned = 0
        while (
            self.allocator.free_sector_count() < self.free_target_sectors
            and cleaned < 2 * self.free_target_sectors
        ):
            if not self._clean_one():
                break
            cleaned += 1

    def _clean_one(self) -> bool:
        """Clean one victim sector; True if one was cleaned."""
        # Emergency mode: when only the reserve is left, forward progress
        # matters more than policy -- greedy (most dead bytes) maximizes
        # the space each precious erase recovers.  Above the reserve the
        # configured policy runs untouched (the normal operating band is
        # free_target > reserve).
        policy = self.cleaning
        if self.allocator.free_sector_count() <= self.gc_reserve_sectors:
            policy = CleaningPolicy.GREEDY
        victim = choose_victim(self.allocator, policy, self.clock.now)
        if victim is None:
            return False
        self._relocate_and_erase(victim)
        return True

    def _relocate_live_blocks(self, victim: int) -> Optional[int]:
        """Move every live block out of ``victim``; returns the last
        destination sector used (None if the victim held nothing live).

        Reads are ECC-verified (a flip picked up in transit would
        otherwise be copied forward and accumulate); destination
        program failures retire the destination and relocate again.
        """
        info = self.allocator.info(victim)
        live = sorted(info.blocks.items())  # (offset, (key, length))
        dest_used: Optional[int] = None
        t0 = self.clock.now
        copied_bytes = 0
        for offset, (key, length) in live:
            absolute = victim * self.allocator.sector_bytes + offset
            data = self._do_read(absolute, length)
            if self.ecc:
                data = self._verify_block(key, data, scrub=False)
            new_loc = self._place_relocated(key, data)
            old_loc = Location(victim, offset, length)
            self.allocator.invalidate(old_loc)
            self._index[key] = new_loc
            self.stats.counter("gc_bytes_copied").add(length)
            copied_bytes += length
            for listener in self.relocation_listeners:
                listener(key, old_loc, new_loc)
            dest_used = new_loc.sector
        if copied_bytes and self.tracer is not None:
            # Cleaning overhead: live bytes GC had to copy out of the
            # victim (latency is the sim-time cost of the copies).
            self.tracer.emit(
                "flashstore", "gc_copy", t0, copied_bytes,
                self.clock.now - t0,
                detail={"sector": victim, "blocks": len(live)},
            )
        return dest_used

    def _place_relocated(self, key: Hashable, data: bytes) -> Location:
        """Append a relocated block to the open sector, retiring any
        destination whose medium refuses the program."""
        while True:
            dest = self._ensure_open_sector_for_gc(len(data))
            try:
                return self._append_and_program(dest, key, data, self._align_for(len(data)))
            except ProgramFailedError:
                self._evacuate_and_retire(dest)

    def _evacuate_and_retire(self, victim: int) -> None:
        """A permanent program failure hit ``victim``: move its live
        blocks elsewhere, then retire it into the bad-block remap table."""
        if self._open == victim:
            self._open = None
        dest_used = self._relocate_live_blocks(victim)
        self.allocator.retire(victim, remapped_to=dest_used)
        self.stats.counter("sectors_retired").add(1)
        if self.tracer is not None:
            self.tracer.emit(
                "flashstore", "retire", self.clock.now, outcome="retired",
                detail={"sector": victim},
            )

    def _relocate_and_erase(self, victim: int) -> None:
        info = self.allocator.info(victim)
        reclaimed = info.dead_bytes
        # The GC pause this clean imposes: sim time from the first
        # relocation read through the erase (emitted as event latency).
        t0 = self.clock.now
        self._relocate_live_blocks(victim)
        try:
            self._do_erase(victim)
        except EraseFailedError:
            # The erase failed for good: the sector keeps its stale bits
            # but leaves service permanently.
            self.allocator.retire(victim, remapped_to=None)
            self.stats.counter("sectors_retired").add(1)
            if self.tracer is not None:
                self.tracer.emit(
                    "flashstore", "gc_clean", self.clock.now, reclaimed,
                    self.clock.now - t0,
                    outcome="erase_failed", detail={"sector": victim},
                )
            return
        self.allocator.mark_erased(victim)
        if self.tracer is not None:
            self.tracer.emit(
                "flashstore", "gc_clean", self.clock.now, reclaimed,
                self.clock.now - t0,
                outcome="cleaned", detail={"sector": victim},
            )

    def _ensure_open_sector_for_gc(self, length: int) -> int:
        """Open-sector logic for the cleaner itself.

        Must not recurse into cleaning (we are mid-clean).  It never
        picks the victim being emptied: a cleaning or rotation victim is
        SEALED, a failing sector has left ``_open`` before its
        evacuation, and the free set holds only ERASED sectors.
        """
        open_sector = self._open
        if open_sector is not None:
            if self.allocator.fits(open_sector, length, self._align_for(length)):
                return open_sector
            self.allocator.seal(open_sector, self.clock.now)
            self._open = None
        sector = self.allocator.peek_erased(self.wear is not WearPolicy.NONE)
        if sector is None:
            raise self._space_error(
                "cleaner found no erased sector for live data", requested=length
            )
        self.allocator.take_erased(sector)
        self._open = sector
        return sector

    def _maybe_static_rotate(self) -> None:
        """Under the STATIC wear policy, rotate cold data off the least
        worn sector once the wear gap grows too wide."""
        victim = static_rotation_victim(self.allocator, self.wear_gap_threshold)
        if victim is not None:
            self.stats.counter("static_rotations").add(1)
            self._relocate_and_erase(victim)

    # ------------------------------------------------------------------
    # Crash recovery (the "flash is the durable repository" guarantee).
    # ------------------------------------------------------------------

    @classmethod
    def recover(
        cls,
        flash: FlashMemory,
        clock: SimClock,
        **store_kwargs,
    ) -> "FlashStore":
        """Rebuild a store by scanning the device's summary areas.

        This is LFS-style recovery: the in-DRAM index and allocator
        state died with the power, but every block left a summary entry
        at its sector's tail.  The scan reads each occupied sector's
        summary area (timed -- recovery latency is real), resolves
        duplicate keys by sequence number (newest wins), and adopts the
        sectors into a fresh allocator.  Deleted-but-unreclaimed blocks
        may resurrect; layers with authoritative metadata (the
        memory-resident FS checkpoint) prune them afterwards.
        """
        store = cls(flash, clock, **store_kwargs)

        # Pass 1: collect every summary entry on the device.
        per_sector: Dict[int, Tuple[List[Tuple[int, int, int, Hashable]], int]] = {}
        winners: Dict[Hashable, Tuple[int, Location, Optional[bytes]]] = {}
        for sector in range(flash.num_sectors):
            if flash.sector_programmed_bytes(sector) == 0:
                continue  # genuinely erased: stays in the free set
            entries, slots_scanned = store._scan_sector_summaries(sector)
            per_sector[sector] = (entries, slots_scanned)
            for seq, offset, length, key, ecc in entries:
                loc = Location(sector, offset, length)
                best = winners.get(key)
                if best is None or seq > best[0]:
                    winners[key] = (seq, loc, ecc)

        # Pass 2: adopt occupied sectors with their winning blocks.
        for sector, (entries, slots_scanned) in per_sector.items():
            live = [
                (offset, key, length)
                for seq, offset, length, key, _ecc in entries
                if winners.get(key, (None, None, None))[1]
                == Location(sector, offset, length)
                and winners[key][0] == seq
            ]
            store.allocator.adopt(sector, live, slots_scanned, clock.now)

        store._index = {key: loc for key, (seq, loc, _ecc) in winners.items()}
        if store.ecc:
            store._ecc = {
                key: ecc for key, (_seq, _loc, ecc) in winners.items() if ecc is not None
            }
        store._seq = 1 + max((seq for seq, _, _ in winners.values()), default=-1)
        store.stats.counter("recovered_blocks").add(len(winners))
        store.stats.counter("recovered_sectors").add(len(per_sector))
        return store

    def _scan_sector_summaries(
        self, sector: int
    ) -> Tuple[List[Tuple[int, int, int, Hashable, Optional[bytes]]], int]:
        """Read a sector's summary area.

        Returns ``(entries, slots_scanned)`` where each entry is
        ``(seq, offset, len, key, ecc)``.  Summary slots are written
        strictly in order, so the first *never-programmed* (all-0xFF)
        slot ends the area — but a *corrupt* slot (torn write, bit flip,
        scrambled erase) is skipped and counted rather than trusted to
        end the scan: an intact entry past it must not be lost, or an
        acknowledged block would silently vanish.
        """
        out: List[Tuple[int, int, int, Hashable, Optional[bytes]]] = []
        entry_index = 0
        consecutive_corrupt = 0
        base = sector * self.allocator.sector_bytes
        while True:
            slot = self.allocator.summary_slot_offset(sector, entry_index)
            if slot < 0:
                break
            raw = self._do_read(base + slot, SUMMARY_BYTES)
            if raw == b"\xff" * SUMMARY_BYTES:
                break  # first never-programmed slot ends the area
            parsed = unpack_summary(raw)
            if parsed is None:
                self.stats.counter("recovery_corrupt_summaries").add(1)
                consecutive_corrupt += 1
                # A single crash tears at most one slot and a bit flip
                # hits one more; a longer corrupt run means we have
                # walked off the summary area into payload bytes (or a
                # scrambled sector) — stop rather than scan it all.
                if consecutive_corrupt >= 4:
                    entry_index += 1
                    break
                entry_index += 1
                continue
            consecutive_corrupt = 0
            kind, seq, offset, length, key, ecc = parsed
            if kind == _KIND_DATA:
                out.append((seq, offset, length, key, ecc))
            entry_index += 1
        return out, entry_index


class InPlaceFlashStore(_SectorStore):
    """The naive baseline: each key owns, for good, the next free
    fixed slot at its first write, and every overwrite erases the slot's
    whole sector.  No cleaner, wear leveling, ECC or recovery metadata."""

    def __init__(self, flash: FlashMemory, clock: SimClock) -> None:
        super().__init__(flash, clock)
        if IN_PLACE_SLOT_BYTES > flash.sector_bytes:
            raise ValueError("in-place slot larger than erase sector")
        self._slots_per_sector = flash.sector_bytes // IN_PLACE_SLOT_BYTES
        # key -> (sector, slot).
        self._slot_of: Dict[Hashable, Tuple[int, int]] = {}
        # Sector -> [(slot, key)] in assignment order.  A key keeps its
        # slot for good, so an overwrite finds its neighbours here
        # without scanning every key in the store.
        self._sector_slots: Dict[int, List[Tuple[int, Hashable]]] = {}
        # key -> length of its live block; a deleted key keeps its slot.
        self._lengths: Dict[Hashable, int] = {}
        self._next_slot: Tuple[int, int] = (0, 0)

    def contains(self, key: Hashable) -> bool:
        return key in self._lengths

    def write_block(self, key: Hashable, data: bytes) -> None:
        """Store ``data`` in ``key``'s slot, erasing its sector if written before."""
        nbytes = len(data)
        if not nbytes:
            raise ValueError("cannot store an empty block")
        if nbytes > IN_PLACE_SLOT_BYTES:
            raise ValueError(
                f"in-place block of {nbytes} bytes exceeds slot "
                f"({IN_PLACE_SLOT_BYTES})"
            )
        self._user_bytes_written.value += nbytes
        t0 = self.clock.now
        placement = self._slot_of.get(key)
        if placement is None:
            placement = self._assign_slot(key)
            self._slot_of[key] = placement
            sector, slot = placement
            self._sector_slots.setdefault(sector, []).append((slot, key))
            self._do_program(sector * self.flash.sector_bytes + slot * IN_PLACE_SLOT_BYTES, data)
        else:
            # Overwrite: read-modify-erase-program the whole sector.  A
            # deleted key re-created here takes this path too: its slot
            # still holds stale bits.
            sector, slot = placement
            sector_base = sector * self.flash.sector_bytes
            survivors: List[Tuple[int, bytes]] = []
            for other_slot, other_key in self._sector_slots[sector]:
                if other_key == key or other_key not in self._lengths:
                    continue  # the key itself, or a deleted neighbour: nothing to keep
                off = other_slot * IN_PLACE_SLOT_BYTES
                survivors.append((off, self._do_read(sector_base + off, self._lengths[other_key])))
            self._do_erase(sector)
            for off, blob in survivors:
                self._do_program(sector_base + off, blob)
            self._do_program(sector_base + slot * IN_PLACE_SLOT_BYTES, data)
            self.stats.counter("in_place_rewrites").add(1)
        self._lengths[key] = nbytes
        if self.tracer is not None:
            self.tracer.emit(
                "flashstore", "write", t0, nbytes, self.clock.now - t0,
                outcome="in_place",
                detail={
                    "device": self.flash.name,
                    "sector": sector,
                    "bank": self.flash.bank_of_sector(sector),
                },
            )

    def read_block(self, key: Hashable) -> bytes:
        if key not in self._lengths:
            raise KeyError(key)
        sector, slot = self._slot_of[key]
        base = sector * self.flash.sector_bytes + slot * IN_PLACE_SLOT_BYTES
        return self._do_read(base, self._lengths[key])

    def delete_block(self, key: Hashable) -> None:
        # The logical-to-physical binding is permanent: the slot stays
        # reserved for this key (a rewrite reuses it with the usual
        # erase), only the liveness marker goes away.
        if key not in self._lengths:
            raise KeyError(key)
        del self._lengths[key]

    def _assign_slot(self, key: Hashable) -> Tuple[int, int]:
        sector, slot = self._next_slot
        if sector >= self.flash.num_sectors:
            raise OutOfFlashSpace(
                "in-place store is full", requested_bytes=IN_PLACE_SLOT_BYTES
            )
        nxt = (sector, slot + 1)
        if nxt[1] >= self._slots_per_sector:
            nxt = (sector + 1, 0)
        self._next_slot = nxt
        return (sector, slot)
