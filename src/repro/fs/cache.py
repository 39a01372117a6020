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
from repro.sim.stats import StatRegistry

#: The classic update daemon's period: the machine flushes the cache
#: every 30 s.
SYNC_INTERVAL_S = 30.0


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
        # A block device's geometry is fixed, so it is bound once.
        self._block_size = device.block_size
        self._nblocks = device.nblocks
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

    # ------------------------------------------------------------------
    # Core cache operations.
    # ------------------------------------------------------------------

    def read(self, lba: int) -> bytes:
        """The block's bytes; a hit returns the cached object itself.

        Callers get an immutable ``bytes``, and the same object for as
        long as the block is neither rewritten nor evicted, so a parse of
        it may be memoized on object identity.
        """
        # The hit path is the hottest in the block-FS stack: it bumps the
        # hit counter directly.
        block = self._blocks.get(lba)
        if block is not None:
            self._blocks.move_to_end(lba)
            self._hits.value += 1
            if self.dram is not None:
                self.dram.charge_read(self._block_size, self.clock)
            return block
        self._misses.value += 1
        data = self.device.read_block(lba)  # timed device read
        if type(data) is not bytes:
            data = bytes(data)
        # Install: one DRAM write of the block, then evict past capacity.
        if self.dram is not None:
            self.dram.charge_write(len(data), self.clock)
        blocks = self._blocks
        blocks[lba] = data
        self._dirty[lba] = False
        if len(blocks) > self.capacity_blocks:
            self._evict()
        return data

    def write(self, lba: int, data: bytes) -> None:
        """Cache ``data`` as the block's new contents (write-back).

        The cache keeps ``data`` itself when it is ``bytes`` and one
        immutable copy otherwise, so a caller mutating its buffer later
        cannot change the cached block.  The write is charged one DRAM
        write of the block, and a block not yet resident a second one for
        its install.
        """
        if len(data) != self._block_size:
            raise ValueError("cache writes whole blocks")
        if not 0 <= lba < self._nblocks:
            self.device.check_lba(lba)
        self._writes.value += 1
        if type(data) is not bytes:
            data = bytes(data)
        dram = self.dram
        if dram is not None:
            dram.charge_write(self._block_size, self.clock)
        blocks = self._blocks
        if lba in blocks:
            blocks[lba] = data
            blocks.move_to_end(lba)
            self._dirty[lba] = True
            return
        if dram is not None:
            dram.charge_write(self._block_size, self.clock)
        blocks[lba] = data
        self._dirty[lba] = True
        if len(blocks) > self.capacity_blocks:
            self._evict()

    def _evict(self) -> None:
        """Drop least-recently-used blocks down to capacity, writing back
        the dirty ones."""
        blocks = self._blocks
        while len(blocks) > self.capacity_blocks:
            victim, vblock = blocks.popitem(last=False)
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
