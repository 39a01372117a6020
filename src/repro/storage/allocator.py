"""Flash sector accounting, the free set and the victim index.

The allocator owns the *state machine* of every erase sector:

``ERASED`` --open--> ``OPEN`` --seal--> ``SEALED`` --erase--> ``ERASED``

Blocks are appended into the open sector of a pool (bump-pointer
allocation); overwriting a logical block marks its old location *dead*.
Sealed sectors with dead bytes are garbage-collection victims, kept in
an incrementally maintained victim index (:meth:`SectorAllocator.best_victim`);
erasing a sector returns it to the free set.  Both serve the whole
device as one pool.  The allocator is pure bookkeeping -- it never
touches the flash device -- which makes its invariants easy to test
exhaustively:

- a byte is live in at most one location,
- ``live + dead + unwritten == sector size`` for every sector,
- erased sectors hold no blocks, and the free set holds exactly the
  erased sectors.
"""

from __future__ import annotations

import enum
import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, NamedTuple, Optional, Set, Tuple

from repro.devices.flash import FlashMemory

#: Bytes of one summary slot: every appended block reserves one at the
#: tail of its sector (the self-describing log entry
#: :mod:`repro.storage.flashstore` writes for crash recovery).
SUMMARY_BYTES = 64


class OutOfFlashSpace(Exception):
    """Live data exceeds what cleaning can recover.

    Carries the request and the allocator's occupancy at failure time so
    torture-harness and pressure-test failures are diagnosable from the
    message alone.
    """

    def __init__(
        self,
        detail: str,
        requested_bytes: Optional[int] = None,
        live_bytes: Optional[int] = None,
        erased_sectors: Optional[int] = None,
        retired_sectors: Optional[int] = None,
    ) -> None:
        parts = [detail]
        if requested_bytes is not None:
            parts.append(f"requested={requested_bytes}B")
        if live_bytes is not None:
            parts.append(f"live={live_bytes}B")
        if erased_sectors is not None:
            parts.append(f"erased_sectors={erased_sectors}")
        if retired_sectors:
            parts.append(f"retired_sectors={retired_sectors}")
        super().__init__(" ".join(parts))
        self.requested_bytes = requested_bytes
        self.live_bytes = live_bytes
        self.erased_sectors = erased_sectors
        self.retired_sectors = retired_sectors


class SectorState(enum.Enum):
    ERASED = "erased"
    OPEN = "open"
    SEALED = "sealed"
    #: Retired after a permanent program/erase failure; never allocated,
    #: cleaned, or counted toward capacity again.
    BAD = "bad"


class Location(NamedTuple):
    """A block's physical placement: sector plus byte range within it."""

    sector: int
    offset: int  # sector-relative
    length: int

    def absolute(self, sector_bytes: int) -> int:
        return self.sector * sector_bytes + self.offset


@dataclass
class SectorInfo:
    """Bookkeeping for one erase sector."""

    index: int
    bank: int
    state: SectorState = SectorState.ERASED
    write_ptr: int = 0
    live_bytes: int = 0
    dead_bytes: int = 0
    seal_time: float = 0.0
    summary_entries: int = 0  # self-describing log entries at the tail
    # offset -> (key, length) for every live block in this sector.
    blocks: Dict[int, Tuple[Hashable, int]] = field(default_factory=dict)


#: One victim-index entry: ``(seal_time, sector, live_bytes)``.  Heap
#: order is ``(seal_time, sector)``; ``live_bytes`` names the bucket.
VictimEntry = Tuple[float, int, int]


class _VictimBucket:
    """Heap of the victim entries of one ``live_bytes`` bucket.

    ``valid`` counts the entries that are still current; the rest are
    stale and discarded when they surface or when the heap is compacted.
    """

    __slots__ = ("heap", "valid")

    def __init__(self) -> None:
        self.heap: List[VictimEntry] = []
        self.valid = 0


class SectorAllocator:
    """Tracks sector states, the free set, and live/dead byte accounting.

    Every appended block also reserves one :data:`SUMMARY_BYTES` slot at
    the *tail* of its sector (the self-describing log format
    :mod:`repro.storage.flashstore` uses for crash recovery); the slot
    is charged to the block's live bytes and becomes dead together with
    it.
    """

    def __init__(self, flash: FlashMemory) -> None:
        self.flash = flash
        self.sector_bytes = flash.sector_bytes
        self.sectors: List[SectorInfo] = [
            SectorInfo(index=i, bank=flash.bank_of_sector(i)) for i in range(flash.num_sectors)
        ]
        # The erased sectors (initially every sector, assuming a
        # factory-fresh device; recovery adopts the occupied ones).  The
        # set is the truth; two lazily-invalidated heaps over it give
        # O(log n) picks -- (erase_count, sector) for least-worn-first
        # and plain sector indices for the naive first-fit policy.  Heap
        # entries whose sector has left the set (or rejoined with a newer
        # erase count) are discarded when they surface at the top.
        self._free_set: Set[int] = set()
        self._wear_heap: List[Tuple[int, int]] = []
        self._index_heap: List[int] = []
        for info in self.sectors:
            self._push_free(info.index)
        self.total_live_bytes = 0
        self.total_dead_bytes = 0
        # Bad-block remap table: retired sector -> sector that absorbed
        # its live data at retirement time (None if it held none).  The
        # mapping is diagnostic; the index always holds current truth.
        self.remap: Dict[int, Optional[int]] = {}
        # Cleaning-victim index: every SEALED sector with dead bytes has
        # one current entry in the heap of its live_bytes bucket.
        # An entry is current iff it *is* (identity) _victim_entry[sector],
        # so entries go stale lazily, like the free heaps'.  invalidate()
        # only marks a sealed sector dirty; dirty sectors are re-bucketed
        # before the next query, so overwrites between two cleanings cost
        # one heap push per sector.
        self._victims: Dict[int, _VictimBucket] = {}
        self._victim_entry: List[Optional[VictimEntry]] = [None] * flash.num_sectors
        self._victim_dirty: Set[int] = set()

    # ------------------------------------------------------------------
    # Queries.
    # ------------------------------------------------------------------

    def info(self, sector: int) -> SectorInfo:
        return self.sectors[sector]

    def free_sector_count(self) -> int:
        """Erased sectors on the device."""
        return len(self._free_set)

    # ------------------------------------------------------------------
    # O(log n) erased-sector selection.
    # ------------------------------------------------------------------

    def _push_free(self, sector: int) -> None:
        """Put ``sector`` in the free set and on both heaps."""
        self._free_set.add(sector)
        heapq.heappush(self._wear_heap, (self.flash.sector_erase_count(sector), sector))
        heapq.heappush(self._index_heap, sector)

    def peek_erased(self, least_worn: bool = True) -> Optional[int]:
        """Best erased sector without taking it, or None.

        ``least_worn`` picks by ``(erase_count, index)`` (the DYNAMIC /
        STATIC wear policies); otherwise by lowest index (the naive
        first-fit NONE policy).  Equivalent to a ``min`` scan over the
        free set but O(log n) amortized: stale heap entries (sector no
        longer free, or free again with a newer erase count) are popped
        for good.
        """
        free = self._free_set
        if least_worn:
            wear_heap = self._wear_heap
            erase_count = self.flash.sector_erase_count
            while wear_heap:
                count, sector = wear_heap[0]
                if sector in free and count == erase_count(sector):
                    return sector
                heapq.heappop(wear_heap)
            return None
        index_heap = self._index_heap
        while index_heap:
            sector = index_heap[0]
            if sector in free:
                return sector
            heapq.heappop(index_heap)
        return None

    def sealed_victims(self) -> List[SectorInfo]:
        """Sealed sectors (GC candidates), in index order."""
        return [s for s in self.sectors if s.state is SectorState.SEALED]

    def capacity_bytes(self) -> int:
        return self.sector_bytes * len(self.sectors)

    # ------------------------------------------------------------------
    # Incremental cleaning-victim index.
    # ------------------------------------------------------------------

    def _index_victim(self, info: SectorInfo) -> None:
        if info.state is not SectorState.SEALED or info.dead_bytes <= 0:
            return
        bucket = self._victims.get(info.live_bytes)
        if bucket is None:
            bucket = self._victims[info.live_bytes] = _VictimBucket()
        entry = (info.seal_time, info.index, info.live_bytes)
        heapq.heappush(bucket.heap, entry)
        bucket.valid += 1
        self._victim_entry[info.index] = entry

    def _unindex_victim(self, sector: int) -> None:
        """Make ``sector``'s entry stale; compact its bucket heap once
        stale entries outnumber current ones (so a heap never holds more
        than twice its current entries)."""
        self._victim_dirty.discard(sector)
        entry = self._victim_entry[sector]
        if entry is None:
            return
        self._victim_entry[sector] = None
        live = entry[2]
        bucket = self._victims[live]
        bucket.valid -= 1
        if bucket.valid == 0:
            del self._victims[live]
        elif len(bucket.heap) > 2 * bucket.valid:
            current = self._victim_entry
            bucket.heap = [e for e in bucket.heap if current[e[1]] is e]
            heapq.heapify(bucket.heap)

    def _drain_victim_dirty(self) -> None:
        dirty = self._victim_dirty
        while dirty:
            sector = dirty.pop()
            self._unindex_victim(sector)
            self._index_victim(self.sectors[sector])

    def _bucket_best(
        self,
        bucket: _VictimBucket,
        score: Callable[[SectorInfo, int, float], float],
        now: float,
    ) -> int:
        """Lowest sector among the bucket's best-scoring candidates.

        Scores never rise with ``seal_time`` inside a bucket, so the
        sectors tying for the best score are a prefix of the heap order:
        pop while the score holds, then push the popped entries back.
        Stale entries are dropped for good.  The bucket must hold a
        current entry.
        """
        heap = bucket.heap
        current = self._victim_entry
        popped: List[VictimEntry] = []
        best = -1
        best_score = 0.0
        while heap:
            entry = heap[0]
            sector = entry[1]
            if current[sector] is not entry:
                heapq.heappop(heap)
                continue
            value = score(self.sectors[sector], self.sector_bytes, now)
            if best < 0:
                best, best_score = sector, value
            elif value != best_score:
                break
            elif sector < best:
                best = sector
            popped.append(heapq.heappop(heap))
        for entry in popped:
            heapq.heappush(heap, entry)
        return best

    def best_victim(
        self,
        score: Callable[[SectorInfo, int, float], float],
        now: float,
    ) -> Optional[int]:
        """The sealed sector with dead bytes that maximizes ``score``.

        Picks exactly what a scan of :meth:`sealed_victims` in index
        order would: the highest ``score(info, sector_bytes, now)``, the
        lowest index among equal scores.  ``score`` must depend on a
        sector only through ``live_bytes`` and ``seal_time``, and must
        never increase as ``seal_time`` grows with ``live_bytes`` fixed
        (LFS cost-benefit does), so each bucket's best is at the front
        of its heap.
        """
        self._drain_victim_dirty()
        sectors = self.sectors
        sector_bytes = self.sector_bytes
        current = self._victim_entry
        best: Optional[int] = None
        best_score = 0.0
        # Each bucket's front (its best score) is scored once.  Buckets
        # whose front scores best_score but holds further entries may
        # hide an equal score at a lower sector: those few are resolved
        # exactly by _bucket_best at the end.
        leaders: List[_VictimBucket] = []
        for bucket in self._victims.values():
            heap = bucket.heap
            entry = heap[0]
            while current[entry[1]] is not entry:
                heapq.heappop(heap)  # stale: dropped for good
                entry = heap[0]
            sector = entry[1]
            value = score(sectors[sector], sector_bytes, now)
            if best is None or value > best_score:
                best = sector
                best_score = value
                leaders = [bucket] if len(heap) > 1 else []
            elif value == best_score:
                if sector < best:
                    best = sector
                if len(heap) > 1:
                    leaders.append(bucket)
        for bucket in leaders:
            sector = self._bucket_best(bucket, score, now)
            if sector < best:
                best = sector
        return best

    # ------------------------------------------------------------------
    # State transitions.
    # ------------------------------------------------------------------

    def take_erased(self, sector: int) -> SectorInfo:
        """Move an erased sector into the OPEN state."""
        info = self.sectors[sector]
        if info.state is not SectorState.ERASED:
            raise ValueError(f"sector {sector} is {info.state}, not erased")
        self._free_set.remove(sector)  # heap entries go stale lazily
        info.state = SectorState.OPEN
        info.write_ptr = 0
        info.live_bytes = 0
        info.dead_bytes = 0
        info.blocks = {}
        return info

    def fits(self, sector: int, length: int, align: int = 1) -> bool:
        """Whether a block (plus its summary slot) fits the open sector."""
        info = self.sectors[sector]
        pad = (-info.write_ptr) % align
        tail = (info.summary_entries + 1) * SUMMARY_BYTES
        return info.write_ptr + pad + length <= self.sector_bytes - tail

    def summary_slot_offset(self, sector: int, entry: int) -> int:
        """Sector-relative offset of summary slot ``entry`` (0 = last bytes)."""
        return self.sector_bytes - (entry + 1) * SUMMARY_BYTES

    def append(self, sector: int, key: Hashable, length: int, align: int = 1) -> Location:
        """Bump-pointer allocate ``length`` bytes in an open sector.

        ``align`` pads the payload to the given alignment (page-aligned
        blocks stay directly mappable); padding is dead space.  One tail
        summary slot is reserved per block and charged to its live bytes.
        """
        info = self.sectors[sector]
        if info.state is not SectorState.OPEN:
            raise ValueError(f"append to sector {sector} in state {info.state}")
        if length <= 0:
            raise ValueError("block length must be positive")
        if align < 1:
            raise ValueError("alignment must be >= 1")
        # What fits() checks, inline.
        pad = (-info.write_ptr) % align
        reserved = info.summary_entries + 1
        if info.write_ptr + pad + length > self.sector_bytes - reserved * SUMMARY_BYTES:
            raise ValueError(
                f"sector {sector} overflow: ptr={info.write_ptr} len={length} "
                f"align={align} cap={self.sector_bytes} "
                f"summaries={info.summary_entries}"
            )
        if pad:
            info.dead_bytes += pad
            self.total_dead_bytes += pad
            info.write_ptr += pad
        offset = info.write_ptr
        info.blocks[offset] = (key, length)
        info.write_ptr = offset + length
        charged = length + SUMMARY_BYTES
        info.live_bytes += charged
        info.summary_entries += 1
        self.total_live_bytes += charged
        return Location(sector, offset, length)

    def seal(self, sector: int, now: float) -> None:
        info = self.sectors[sector]
        if info.state is not SectorState.OPEN:
            raise ValueError(f"seal of sector {sector} in state {info.state}")
        info.state = SectorState.SEALED
        info.seal_time = now
        # Space between the write pointer and the summary area is
        # unreachable until erase; count it dead so cleaning policies
        # see the true reclaimable total.
        summary_area = info.summary_entries * SUMMARY_BYTES
        slack = self.sector_bytes - info.write_ptr - summary_area
        if slack:
            info.dead_bytes += slack
            self.total_dead_bytes += slack
            info.write_ptr += slack
        self._index_victim(info)

    def invalidate(self, loc: Location) -> Hashable:
        """Mark a previously appended block dead; returns its key."""
        info = self.sectors[loc.sector]
        entry = info.blocks.pop(loc.offset, None)
        if entry is None:
            raise ValueError(f"no live block at {loc}")
        key, length = entry
        if length != loc.length:
            raise ValueError(f"length mismatch at {loc}: recorded {length}")
        charged = length + SUMMARY_BYTES
        info.live_bytes -= charged
        info.dead_bytes += charged
        self.total_live_bytes -= charged
        self.total_dead_bytes += charged
        if info.state is SectorState.SEALED:
            self._victim_dirty.add(loc.sector)
        return key

    def adopt(
        self,
        sector: int,
        live_blocks: List[Tuple[int, Hashable, int]],
        summary_entries: int,
        now: float,
    ) -> None:
        """Rebuild one sector's state from a crash-recovery scan.

        The sector is adopted as SEALED: ``live_blocks`` is the list of
        (offset, key, payload length) winners found in its summary area,
        ``summary_entries`` the total entries present (live + stale).
        Everything not live is dead and reclaimable by the cleaner.
        """
        info = self.sectors[sector]
        if info.state is not SectorState.ERASED:
            raise ValueError(f"adopt of sector {sector} in state {info.state}")
        self._free_set.remove(sector)
        info.state = SectorState.SEALED
        info.seal_time = now
        info.write_ptr = self.sector_bytes
        info.summary_entries = summary_entries
        info.blocks = {offset: (key, length) for offset, key, length in live_blocks}
        live = sum(length for _, _, length in live_blocks)
        live += len(live_blocks) * SUMMARY_BYTES
        if live > self.sector_bytes:
            raise ValueError(f"sector {sector}: recovered live bytes exceed capacity")
        info.live_bytes = live
        info.dead_bytes = self.sector_bytes - live
        self.total_live_bytes += live
        self.total_dead_bytes += info.dead_bytes
        self._index_victim(info)

    def retire(self, sector: int, remapped_to: Optional[int] = None) -> None:
        """Permanently remove a failing sector from service.

        The caller must have evacuated (or invalidated) every live block
        first; ``remapped_to`` records where the evacuated data went.
        A BAD sector is never allocated, cleaned, or erased again.
        """
        info = self.sectors[sector]
        if info.state is SectorState.BAD:
            return  # already retired
        if info.live_bytes:
            raise ValueError(
                f"retiring sector {sector} with {info.live_bytes} live bytes"
            )
        if info.state is SectorState.ERASED:
            self._free_set.remove(sector)
        self._unindex_victim(sector)
        self.total_dead_bytes -= info.dead_bytes
        info.state = SectorState.BAD
        info.write_ptr = 0
        info.dead_bytes = 0
        info.summary_entries = 0
        info.blocks = {}
        self.remap[sector] = remapped_to

    def retired_sectors(self) -> List[int]:
        return sorted(self.remap)

    def usable_capacity_bytes(self) -> int:
        """Capacity excluding retired (BAD) sectors."""
        return self.sector_bytes * (len(self.sectors) - len(self.remap))

    def mark_erased(self, sector: int) -> None:
        """Record that the device erased ``sector``; back to the free set."""
        info = self.sectors[sector]
        if info.state is SectorState.ERASED:
            raise ValueError(f"sector {sector} already erased")
        if info.state is SectorState.BAD:
            raise ValueError(f"sector {sector} is retired; it cannot rejoin")
        if info.live_bytes:
            raise ValueError(f"erasing sector {sector} with {info.live_bytes} live bytes")
        self._unindex_victim(sector)
        self.total_dead_bytes -= info.dead_bytes
        info.state = SectorState.ERASED
        info.write_ptr = 0
        info.dead_bytes = 0
        info.summary_entries = 0
        info.blocks = {}
        self._push_free(sector)

    # ------------------------------------------------------------------
    # Invariant checking (used by property tests).
    # ------------------------------------------------------------------

    def check_invariants(self) -> None:
        free = self._free_set
        live = dead = 0
        for info in self.sectors:
            block_bytes = sum(length for _, length in info.blocks.values())
            expected_live = block_bytes + len(info.blocks) * SUMMARY_BYTES
            if expected_live != info.live_bytes:
                raise AssertionError(f"sector {info.index}: block map != live_bytes")
            if info.state is SectorState.ERASED:
                if info.blocks or info.dead_bytes or info.write_ptr:
                    raise AssertionError(f"erased sector {info.index} not clean")
                if info.index not in free:
                    raise AssertionError(f"erased sector {info.index} missing from free set")
            elif info.index in free:
                raise AssertionError(f"{info.state.value} sector {info.index} in the free set")
            if info.state is SectorState.BAD:
                if info.blocks or info.live_bytes or info.dead_bytes:
                    raise AssertionError(f"bad sector {info.index} holds data")
                if info.index not in self.remap:
                    raise AssertionError(f"bad sector {info.index} missing from remap")
            if info.live_bytes + info.dead_bytes > self.sector_bytes:
                raise AssertionError(f"sector {info.index} over-committed")
            live += info.live_bytes
            dead += info.dead_bytes
        if live != self.total_live_bytes or dead != self.total_dead_bytes:
            raise AssertionError("global live/dead totals out of sync")
        erase_count = self.flash.sector_erase_count
        if not free <= {s for c, s in self._wear_heap if c == erase_count(s)}:
            raise AssertionError("free sector missing from the wear heap")
        if not free <= set(self._index_heap):
            raise AssertionError("free sector missing from the index heap")
        self._check_victim_index()

    def _check_victim_index(self) -> None:
        """Each SEALED sector with dead bytes has exactly one current
        entry, in its ``live_bytes`` bucket with its seal time;
        no other sector has one; every heap holds at most twice its
        current entries."""
        self._drain_victim_dirty()
        candidates = {
            s.index
            for s in self.sectors
            if s.state is SectorState.SEALED and s.dead_bytes > 0
        }
        indexed = {e[1] for e in self._victim_entry if e is not None}
        if indexed != candidates:
            raise AssertionError("victim index entries != sealed sectors with dead bytes")
        seen: Set[int] = set()
        for live, bucket in self._victims.items():
            current = [e for e in bucket.heap if self._victim_entry[e[1]] is e]
            if not current or len(current) != bucket.valid:
                raise AssertionError(f"bucket {live}: valid count out of sync")
            if len(bucket.heap) > 2 * bucket.valid:
                raise AssertionError(f"bucket {live}: stale entries not compacted")
            for seal_time, sector, entry_live in current:
                if sector in seen:
                    raise AssertionError(f"sector {sector}: two current victim entries")
                seen.add(sector)
                info = self.sectors[sector]
                if (info.live_bytes, info.seal_time, entry_live) != (live, seal_time, live):
                    raise AssertionError(f"sector {sector}: victim entry in the wrong bucket")
        if seen != candidates:
            raise AssertionError("victim entries missing from bucket heaps")

    def occupancy(self) -> dict:
        usable = self.usable_capacity_bytes()
        return {
            "live_bytes": self.total_live_bytes,
            "dead_bytes": self.total_dead_bytes,
            "capacity_bytes": self.capacity_bytes(),
            "usable_capacity_bytes": usable,
            "free_sectors": self.free_sector_count(),
            "retired_sectors": len(self.remap),
            "utilization": self.total_live_bytes / usable if usable else 1.0,
        }
