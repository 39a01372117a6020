"""Property test: the buffer cache against its earlier, plainer self.

``BufferCache.write`` and the miss path of ``read`` install and evict
inline and bump counters directly.  None of that may move a number, so
the cache is driven side by side with a verbatim copy of the version
before those changes, on a cache of a few blocks (misses, clean and
dirty evictions and flushes all happen), with and without DRAM; its
DRAM charges take the clock, as every device access now does.  After
every step both must agree on the returned bytes or raised error, the
LRU order, the dirty map, the order of device reads and writes, every
cache counter, DRAM and disk ``DeviceStats``, and the simulated clock,
bit for bit.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional

from hypothesis import given, settings, strategies as st

from repro.devices import DRAM, MagneticDisk
from repro.fs import BufferCache, DiskBlockDevice
from repro.fs.blockdev import BlockDevice
from repro.sim.clock import SimClock
from repro.sim.stats import StatRegistry

MB = 1024 * 1024
BLOCK = 4096
#: Blocks the device exports; LBAs up to two past the end are drawn.
NBLOCKS = 12


class _ReferenceCache:
    """``BufferCache`` as it was before its lean read/write paths, verbatim."""

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
            self.dram.charge_write(nbytes, self.clock)
        else:
            self.dram.charge_read(nbytes, self.clock)

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
        # hit counter directly (the same value ``Counter.add`` gives).
        block = self._blocks.get(lba)
        if block is not None:
            self._blocks.move_to_end(lba)
            self._hits.value += 1
            dram = self.dram
            if dram is not None:
                dram.charge_read(self.device.block_size, self.clock)
            return block
        self._misses.add(1)
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


class _LoggingDevice(DiskBlockDevice):
    """A disk block device that logs every block read and write."""

    def __init__(self, disk: MagneticDisk, clock: SimClock) -> None:
        super().__init__(disk, clock, nblocks=NBLOCKS)
        self.log = []

    def read_block(self, lba: int) -> bytes:
        self.log.append(("read", lba))
        return super().read_block(lba)

    def write_block(self, lba: int, data: bytes) -> None:
        self.log.append(("write", lba, bytes(data)))
        super().write_block(lba, data)


class _Stack:
    def __init__(self, cache_cls, capacity: int, with_dram: bool) -> None:
        self.clock = SimClock()
        self.disk = MagneticDisk(MB)
        self.device = _LoggingDevice(self.disk, self.clock)
        self.dram = DRAM(MB) if with_dram else None
        self.cache = cache_cls(self.device, self.clock, capacity, dram=self.dram)

    def apply(self, op):
        kind, lba, arg = op
        cache = self.cache
        try:
            if kind == "read":
                return cache.read(lba)
            if kind == "write":
                return cache.write(lba, bytes([arg]) * BLOCK)
            if kind == "write_mutable":
                # The cache must keep its own copy of a mutable buffer.
                buf = bytearray([arg]) * BLOCK
                cache.write(lba, buf)
                buf[:] = bytes(BLOCK)
                return None
            if kind == "write_short":
                return cache.write(lba, bytes([arg]) * (BLOCK - 1))
            if kind == "flush":
                return cache.flush()
            if kind == "discard":
                return cache.discard(lba)
            if kind == "crash":
                return cache.crash()
        except ValueError as exc:
            return (type(exc).__name__, str(exc))
        raise AssertionError(kind)

    def observed(self):
        cache = self.cache
        return (
            self.clock.now,
            list(cache._blocks.items()),
            list(cache._dirty.items()),
            self.device.log,
            cache.stats.snapshot(self.clock.now),
            None if self.dram is None else self.dram.stats.snapshot(),
            self.disk.stats.snapshot(),
        )


@st.composite
def cache_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from([
            "read", "read", "read", "write", "write", "write_mutable",
            "write_short", "flush", "discard", "crash",
        ]))
        lba = draw(st.integers(0, NBLOCKS + 1))
        ops.append((kind, lba, draw(st.integers(0, 255))))
    return ops


@given(cache_ops(), st.integers(1, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_cache_matches_its_reference_copy(ops, capacity, with_dram):
    lean = _Stack(BufferCache, capacity, with_dram)
    reference = _Stack(_ReferenceCache, capacity, with_dram)
    for op in ops:
        assert lean.apply(op) == reference.apply(op), op
        assert lean.observed() == reference.observed(), op
