"""Battery-backed DRAM write buffer.

Paper Section 3.3: "It can buffer written data in DRAM before eventually
flushing it to flash memory.  This technique can keep the rate of writes
into flash memory manageably low because a large percentage of write
operations are to short-lived files or to file blocks that are soon
overwritten.  Trace-driven simulations of networked workstations have
shown that as little as one megabyte of battery-backed RAM can reduce
write traffic by 40 to 50%" [Baker et al., ASPLOS '91].

The buffer absorbs write traffic through two mechanisms this class
accounts for separately:

- **overwrites** -- a block rewritten while still buffered costs no new
  flash traffic (``overwritten_bytes``);
- **deaths** -- a block whose file is deleted or truncated before the
  flush deadline never reaches flash at all (``died_bytes``).

Flush policy is watermark + age: exceeding capacity flushes the coldest
entries down to a low watermark, and entries older than ``age_limit_s``
are flushed by the manager's periodic timer (bounding how much data a
battery failure can lose).

The buffer is pure policy: callers persist whatever it returns.  DRAM
timing is charged for bytes entering and leaving the buffer, since in
the real organization those are DRAM copies.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, List, Optional

from repro.devices.dram import DRAM
from repro.obs import runtime as obs_runtime
from repro.sim.clock import SimClock
from repro.sim.stats import StatHandle, StatRegistry


class FlushReason(enum.Enum):
    WATERMARK = "watermark"  # buffer hit capacity
    AGE = "age"  # entry exceeded its age limit
    SYNC = "sync"  # application called fsync/sync
    SHUTDOWN = "shutdown"  # orderly shutdown / battery getting low


@dataclass
class FlushItem:
    """A buffered block the caller must now persist to flash.

    ``first_write`` carries the entry's original age-clock origin so a
    failed persist can :meth:`WriteBuffer.restore` the block *without*
    restarting its age clock (restarting it let a block that kept
    failing to persist evade the ``age_limit_s`` battery-loss bound
    forever).
    """

    key: Hashable
    data: bytes
    first_write: float


@dataclass
class _Entry:
    data: bytes
    first_write: float


class WriteBuffer:
    """Watermark/age write-behind buffer in battery-backed DRAM."""

    # Metrics every put, hit or flush touches.
    _bytes_in = StatHandle(StatRegistry.counter, "bytes_in")
    _puts = StatHandle(StatRegistry.counter, "puts")
    _read_hits = StatHandle(StatRegistry.counter, "read_hits")
    _overwritten_bytes = StatHandle(StatRegistry.counter, "overwritten_bytes")
    _flushed_bytes = StatHandle(StatRegistry.counter, "flushed_bytes")
    _occupancy = StatHandle(StatRegistry.gauge, "occupancy_bytes")

    def __init__(
        self,
        capacity_bytes: int,
        clock: SimClock,
        dram: DRAM,
        age_limit_s: float = 30.0,
        low_watermark: float = 0.75,
    ) -> None:
        if capacity_bytes < 0:
            raise ValueError("buffer capacity cannot be negative")
        if not 0.0 < low_watermark <= 1.0:
            raise ValueError("low watermark must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self.clock = clock
        self.dram = dram
        self.age_limit_s = age_limit_s
        self.low_watermark = low_watermark
        self.stats = StatRegistry("writebuffer")
        # Optional repro.obs.Tracer (the one active at construction).
        self.tracer = obs_runtime.get_tracer()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._bytes = 0

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def buffered_bytes(self) -> int:
        return self._bytes

    def is_dirty(self, key: Hashable) -> bool:
        """True while ``key``'s newest version sits in the buffer."""
        return key in self._entries

    # ------------------------------------------------------------------
    # Core operations.  Bytes entering and leaving the buffer charge
    # accounting-only DRAM copies: the block bytes live in the buffer's
    # own map, so no ghost buffer is allocated to model them.
    # ------------------------------------------------------------------

    def put(self, key: Hashable, data: bytes) -> List[FlushItem]:
        """Buffer a block write; returns entries evicted to make room.

        With a zero-capacity buffer (the "no buffer" baseline) the block
        itself comes straight back as a WATERMARK flush.
        """
        if not data:
            raise ValueError("cannot buffer an empty block")
        clock = self.clock
        now = clock.now
        self._bytes_in.value += len(data)
        self._puts.value += 1
        self.dram.charge_write(len(data), clock)

        if self.capacity_bytes <= 0:
            # Write-through: account it as an immediate flush so the
            # conservation identity (in == flushed + absorbed) holds.
            self._flushed_bytes.value += len(data)
            self.stats.counter(f"flushed_{FlushReason.WATERMARK.value}").add(1)
            if self.tracer is not None:
                self.tracer.emit(
                    "writebuffer", "put", now, len(data), outcome="writethrough"
                )
            return [FlushItem(key, data, now)]

        existing = self._entries.pop(key, None)
        if existing is not None:
            # Overwrite absorbed: the earlier version never reaches flash.
            self._bytes -= len(existing.data)
            self._overwritten_bytes.value += len(existing.data)
            entry = _Entry(data=data, first_write=existing.first_write)
        else:
            entry = _Entry(data=data, first_write=now)
        self._entries[key] = entry  # most-recently-written at the end
        self._bytes += len(data)
        self._track_occupancy()
        if self.tracer is not None:
            # "prev" (bytes of the overwritten version) lets a live
            # conservation monitor track buffered bytes exactly.
            self.tracer.emit(
                "writebuffer", "put", now, len(data),
                outcome="overwrite" if existing is not None else "buffered",
                detail={"prev": len(existing.data)} if existing is not None else None,
            )

        if self._bytes <= self.capacity_bytes:
            return []
        return self._evict_to_watermark()

    def restore(self, key: Hashable, data: bytes, first_write: float) -> None:
        """Put a flush item *back* after a failed persist (graceful
        degradation): the data re-enters the buffer without recounting
        ``bytes_in`` and without evicting anything — it is the same
        logical write coming home, and evicting would just re-trigger
        the failing flush.  A newer buffered version wins and is kept.

        ``first_write`` (from :attr:`FlushItem.first_write`) preserves
        the entry's original age clock: the block has been dirty since
        its first write, and the ``age_limit_s`` bound on battery-loss
        exposure must keep counting from there (a future origin is
        clamped to now).
        """
        if key in self._entries:
            return  # overwritten while the flush was in flight
        now = self.clock.now
        self._entries[key] = _Entry(data=data, first_write=min(first_write, now))
        self._bytes += len(data)
        if self.tracer is not None:
            self.tracer.emit("writebuffer", "restore", now, len(data))
        # The earlier flush accounting claimed these bytes left the
        # buffer; counters are monotonic, so the correction is a
        # separate counter netted out in absorption_ratio().
        self.stats.counter("restored_bytes").add(len(data))
        self._track_occupancy()

    def get(self, key: Hashable) -> Optional[bytes]:
        """Return the buffered version of a block, if any (read hit)."""
        entry = self._entries.get(key)
        if entry is None:
            return None
        self._read_hits.value += 1
        self.dram.charge_read(len(entry.data), self.clock)
        return entry.data

    def drop(self, key: Hashable) -> int:
        """Discard a buffered block (its file died); returns bytes saved."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return 0
        self._bytes -= len(entry.data)
        self.stats.counter("died_bytes").add(len(entry.data))
        self._track_occupancy()
        if self.tracer is not None:
            self.tracer.emit(
                "writebuffer", "drop", self.clock.now, len(entry.data), outcome="died"
            )
        return len(entry.data)

    # ------------------------------------------------------------------
    # Flushing.
    # ------------------------------------------------------------------

    def _remove_for_flush(self, key: Hashable, reason: FlushReason) -> FlushItem:
        entry = self._entries.pop(key)
        self._bytes -= len(entry.data)
        self._flushed_bytes.value += len(entry.data)
        self.stats.counter(f"flushed_{reason.value}").add(1)
        self.dram.charge_read(len(entry.data), self.clock)
        self._track_occupancy()
        if self.tracer is not None:
            self.tracer.emit(
                "writebuffer", "flush", self.clock.now, len(entry.data),
                outcome=reason.value,
                detail={
                    "age_s": self.clock.now - entry.first_write,
                    "limit_s": self.age_limit_s,
                },
            )
        return FlushItem(key=key, data=entry.data, first_write=entry.first_write)

    def _evict_to_watermark(self) -> List[FlushItem]:
        target = int(self.capacity_bytes * self.low_watermark)
        items: List[FlushItem] = []
        # Coldest first: least-recently-written entries sit at the front.
        while self._bytes > target and self._entries:
            key = next(iter(self._entries))
            items.append(self._remove_for_flush(key, FlushReason.WATERMARK))
        return items

    def flush_aged(self) -> List[FlushItem]:
        """Flush entries older than the age limit (periodic timer)."""
        now = self.clock.now
        aged = [
            key
            for key, entry in self._entries.items()
            if now - entry.first_write >= self.age_limit_s
        ]
        return [self._remove_for_flush(key, FlushReason.AGE) for key in aged]

    def flush_all(self, reason: FlushReason = FlushReason.SYNC) -> List[FlushItem]:
        keys = list(self._entries)
        return [self._remove_for_flush(key, reason) for key in keys]

    def flush_key(self, key: Hashable) -> Optional[FlushItem]:
        if key not in self._entries:
            return None
        return self._remove_for_flush(key, FlushReason.SYNC)

    # ------------------------------------------------------------------
    # Power failure (experiment E11).
    # ------------------------------------------------------------------

    def power_loss(self) -> int:
        """Battery died with dirty data buffered; returns bytes lost."""
        lost = self._bytes
        self.stats.counter("lost_bytes").add(lost)
        self._entries.clear()
        self._bytes = 0
        if self.tracer is not None:
            self.tracer.emit(
                "writebuffer", "power_loss", self.clock.now, lost, outcome="lost"
            )
        return lost

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def _track_occupancy(self) -> None:
        self._occupancy.set(self._bytes, self.clock.now)

    def absorption_ratio(self) -> float:
        """Fraction of incoming write traffic that never reached flash.

        This is the paper's headline 40-50% number when the buffer is
        ~1 MB and the workload has workstation-like overwrite behaviour.
        """
        bytes_in = self.stats.value("bytes_in")
        if bytes_in == 0:
            return 0.0
        flushed = self.stats.value("flushed_bytes") - self.stats.value("restored_bytes")
        return 1.0 - (flushed / bytes_in)
