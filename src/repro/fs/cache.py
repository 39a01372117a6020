"""The buffer cache the paper says the memory-resident FS can drop.

Conventional file systems interpose a DRAM block cache between the FS
and the device: reads hit the cache when lucky, writes are buffered
dirty and pushed out by LRU eviction or the periodic ``sync`` (the
classic 30-second update policy).  This is exactly the machinery the
paper's Section 3.1 declares "unnecessary because all data and metadata
always reside in fast storage" -- so the baseline needs it and the
memory-resident FS must not have it (experiment E4 compares them).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from repro.devices.dram import DRAM
from repro.fs.blockdev import BlockDevice
from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.sim import sched
from repro.sim.sched import current_client
from repro.sim.stats import StatRegistry


class BufferCache:
    """Write-back LRU block cache in (volatile) DRAM."""

    def __init__(
        self,
        device: BlockDevice,
        clock: SimClock,
        capacity_blocks: int,
        dram: Optional[DRAM] = None,
    ) -> None:
        if capacity_blocks < 1:
            raise ValueError("cache needs at least one block")
        self.device = device
        self.clock = clock
        self.capacity_blocks = capacity_blocks
        self.dram = dram
        self.stats = StatRegistry("buffercache")
        # Counters every read/write touches; StatRegistry.reset resets
        # them in place, so the references stay valid.
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._writes = self.stats.counter("writes")
        # One immutable bytes object per resident block: a hit hands the
        # stored object out, and eviction and flush hand it to the device.
        self._blocks: "OrderedDict[int, bytes]" = OrderedDict()
        self._dirty: Dict[int, bool] = {}
        self._sync_timer = None

    # ------------------------------------------------------------------
    # DRAM charging for cache hits/installs.
    # ------------------------------------------------------------------

    def _charge_dram(self, nbytes: int, write: bool) -> None:
        """Advance the clock by a DRAM touch of ``nbytes``.

        Uses the accounting-only charge API: writes and installs pay DRAM
        latency/energy without allocating ghost buffers (the block bytes
        already live in the cache's own structures).  :meth:`read`
        inlines the same charge on its hit path.
        """
        if self.dram is None:
            return
        if write:
            result = self.dram.charge_write(nbytes, self.clock.now)
        else:
            result = self.dram.charge_read(nbytes, self.clock.now)
        self.clock.advance(result.latency)

    # ------------------------------------------------------------------
    # Core cache operations.
    # ------------------------------------------------------------------

    def read(self, lba: int) -> bytes:
        """The block's bytes; a hit returns the cached object itself.

        Callers get an immutable ``bytes``, and the same object for as
        long as the block is neither rewritten nor evicted, so a parse of
        it may be memoized on object identity.
        """
        # The hit path is the hottest in the block-FS stack: it reads the
        # scheduler's client context and bumps the hit counter directly
        # (the same values ``current_client()`` and ``Counter.add`` give).
        client = sched._current_client
        block = self._blocks.get(lba)
        if block is not None:
            self._blocks.move_to_end(lba)
            self._hits.value += 1
            if client is not None:
                self.stats.counter(f"client{client}_hits").add(1)
            dram = self.dram
            if dram is not None:
                clock = self.clock
                clock.advance(dram.charge_read(self.device.block_size, clock.now).latency)
            return block
        self._misses.add(1)
        if client is not None:
            self.stats.counter(f"client{client}_misses").add(1)
        data = self.device.read_block(lba)  # timed device read
        if type(data) is not bytes:
            data = bytes(data)
        self._install(lba, data, dirty=False)
        return data

    def write(self, lba: int, data: bytes) -> None:
        """Cache ``data`` as the block's new contents (write-back).

        The cache keeps ``data`` itself when it is ``bytes`` and one
        immutable copy otherwise, so a caller mutating its buffer later
        cannot change the cached block.
        """
        if len(data) != self.device.block_size:
            raise ValueError("cache writes whole blocks")
        self.device.check_lba(lba)
        self._writes.add(1)
        client = current_client()
        if client is not None:
            self.stats.counter(f"client{client}_writes").add(1)
        if type(data) is not bytes:
            data = bytes(data)
        self._charge_dram(len(data), write=True)
        if lba in self._blocks:
            self._blocks[lba] = data
            self._blocks.move_to_end(lba)
            self._dirty[lba] = True
            return
        self._install(lba, data, dirty=True)

    def _install(self, lba: int, block: bytes, dirty: bool) -> None:
        self._charge_dram(len(block), write=True)
        self._blocks[lba] = block
        self._dirty[lba] = dirty
        while len(self._blocks) > self.capacity_blocks:
            victim, vblock = self._blocks.popitem(last=False)
            if self._dirty.pop(victim):
                self.stats.counter("dirty_evictions").add(1)
                self.device.write_block(victim, vblock)  # timed
            else:
                self.stats.counter("clean_evictions").add(1)

    # ------------------------------------------------------------------
    # Synchronization.
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Write back every dirty block; returns blocks written."""
        written = 0
        for lba in list(self._blocks):
            if self._dirty.get(lba):
                self.device.write_block(lba, self._blocks[lba])
                self._dirty[lba] = False
                written += 1
        self.stats.counter("sync_writebacks").add(written)
        return written

    def attach_sync_timer(self, engine: Engine, interval_s: float = 30.0) -> None:
        """The classic periodic update daemon."""
        if self._sync_timer is not None:
            self._sync_timer.cancel()
        self._sync_timer = engine.schedule_every(interval_s, self.flush, name="bcache-sync")

    def discard(self, lba: int) -> None:
        """Forget a block without writing it back (its owner freed it)."""
        self._blocks.pop(lba, None)
        self._dirty.pop(lba, None)

    def crash(self) -> int:
        """Volatile cache contents vanish; returns dirty blocks lost."""
        lost = sum(1 for d in self._dirty.values() if d)
        self._blocks.clear()
        self._dirty.clear()
        self.stats.counter("dirty_blocks_lost").add(lost)
        return lost

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    @property
    def dirty_blocks(self) -> int:
        return sum(1 for d in self._dirty.values() if d)

    def hit_ratio(self) -> float:
        hits = self._hits.value
        misses = self._misses.value
        total = hits + misses
        return hits / total if total else 0.0

    def snapshot(self) -> dict:
        return {
            "capacity_blocks": self.capacity_blocks,
            "resident_blocks": len(self._blocks),
            "dirty_blocks": self.dirty_blocks,
            "hit_ratio": self.hit_ratio(),
            "stats": self.stats.snapshot(self.clock.now),
        }
