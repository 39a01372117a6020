"""The per-block allocation scans pick what the per-entry scans picked.

``ConventionalFileSystem._alloc_inode`` and ``_alloc_block`` read each
inode-table or bitmap block once and search it in memory.  The functions
below are verbatim copies of the scans they replaced, which made one
cache read per inode slot or bitmap bit; on the same on-device state
both must claim the same inode number or LBA, or both must run out.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.fs import BufferCache, ConventionalFileSystem, mkfs
from repro.fs.api import NoSpaceFSError
from repro.fs.blockdev import BlockDevice
from repro.fs.diskfs import (
    BITS_PER_BITMAP_BLOCK,
    BLOCK_SIZE,
    INODES_PER_BLOCK,
    MODE_DIR,
    MODE_FILE,
    MODE_FREE,
    NDIRECT,
    DiskInode,
)
from repro.sim import SimClock

ZERO = bytes(BLOCK_SIZE)


class MemBlocks(BlockDevice):
    """Untimed dict-backed blocks: unwritten blocks read as zeros."""

    def __init__(self, nblocks: int) -> None:
        super().__init__("mem", nblocks)
        self.blocks = {}

    def read_block(self, lba):
        self.check_lba(lba)
        return self.blocks.get(lba, ZERO)

    def write_block(self, lba, data):
        self.check_lba(lba)
        self.blocks[lba] = bytes(data)


def _fs(nblocks: int, ninodes: int) -> ConventionalFileSystem:
    cache = BufferCache(MemBlocks(nblocks), SimClock(), 64)
    return ConventionalFileSystem(cache, mkfs(cache, ninodes=ninodes))


# Verbatim copies of the per-entry scans (``self`` renamed ``fs``).


def per_entry_alloc_inode(fs, mode):
    for ino in range(1, fs.layout.ninodes + 1):
        if fs._inode_fields(ino)[0] == MODE_FREE:
            fresh = DiskInode(ino, mode, 1, 0, fs.clock.now, [0] * NDIRECT, 0, 0)
            fs._write_inode(fresh)
            return fresh
    raise NoSpaceFSError("out of inodes")


def per_entry_alloc_block(fs, near=None):
    start = near if near and near >= fs.layout.data_start else fs._alloc_hint
    n = fs.layout.nblocks
    span = n - fs.layout.data_start
    for probe in range(span):
        lba = fs.layout.data_start + (start - fs.layout.data_start + probe) % span
        if not fs._bitmap_get(lba):
            fs._bitmap_set(lba, True)
            fs._alloc_hint = lba + 1
            # Fresh blocks must read as zeros regardless of what the
            # raw device holds (flash reads 0xFF when erased).
            fs.cache.write(lba, bytes(BLOCK_SIZE))
            return lba
    raise NoSpaceFSError("out of data blocks")


def _outcome(alloc, *args):
    try:
        return alloc(*args)
    except NoSpaceFSError:
        return "no space"


def _blocks(fs, start, count):
    return [fs.cache.read(lba) for lba in range(start, start + count)]


# ----------------------------------------------------------------------
# Inodes.
# ----------------------------------------------------------------------


@st.composite
def inode_tables(draw):
    # Counts off multiples of 32 leave a partial last table block.
    ninodes = draw(st.integers(1, 5 * INODES_PER_BLOCK + 7))
    used = draw(st.lists(st.booleans(), min_size=ninodes, max_size=ninodes))
    return ninodes, used


def _claim(fs, used):
    # The root (inode 1) is always in use.
    for ino, taken in enumerate(used[1:], start=2):
        if taken:
            fs._write_inode(DiskInode(ino, MODE_FILE, 1, 0, 0.0, [0] * NDIRECT, 0, 0))


@given(inode_tables(), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_alloc_inode_matches_per_slot_scan(table, allocations):
    ninodes, used = table
    new, old = _fs(256, ninodes), _fs(256, ninodes)
    _claim(new, used)
    _claim(old, used)
    for _ in range(allocations):
        got = _outcome(new._alloc_inode, MODE_FILE)
        want = _outcome(per_entry_alloc_inode, old, MODE_FILE)
        assert got == want
    layout = new.layout
    assert _blocks(new, layout.inode_start, layout.inode_blocks) == _blocks(
        old, layout.inode_start, layout.inode_blocks
    )


def test_alloc_inode_exhausts_a_partial_last_block():
    fs = _fs(256, 2 * INODES_PER_BLOCK + 3)
    inos = [fs._alloc_inode(MODE_FILE).ino for _ in range(2 * INODES_PER_BLOCK + 2)]
    assert inos == list(range(2, 2 * INODES_PER_BLOCK + 4))
    with pytest.raises(NoSpaceFSError):
        fs._alloc_inode(MODE_FILE)


@pytest.mark.parametrize("k", range(5))
def test_alloc_inode_reads_one_block_per_table_block_examined(k):
    fs = _fs(256, 5 * INODES_PER_BLOCK)
    # Fill table blocks 0..k-1 and the first half of block k.
    _claim(fs, [True] * (k * INODES_PER_BLOCK + INODES_PER_BLOCK // 2))
    stats = fs.cache.stats
    reads = stats.counter("hits").value + stats.counter("misses").value
    writes = stats.counter("writes").value
    inode = fs._alloc_inode(MODE_DIR)
    assert inode.ino == k * INODES_PER_BLOCK + INODES_PER_BLOCK // 2 + 1
    assert stats.counter("hits").value + stats.counter("misses").value - reads == k + 1
    assert stats.counter("writes").value - writes == 1


# ----------------------------------------------------------------------
# Data blocks.
# ----------------------------------------------------------------------


def _set_bitmap(fs, used_bits):
    """Install a bitmap with exactly ``used_bits`` set beyond the metadata."""
    layout = fs.layout
    value = (1 << layout.data_start) - 1
    for lba in used_bits:
        value |= 1 << lba
    raw = value.to_bytes(layout.bitmap_blocks * BLOCK_SIZE, "little")
    for i in range(layout.bitmap_blocks):
        fs.cache.write(layout.bitmap_start + i, raw[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])


@st.composite
def bitmaps(draw, min_blocks, max_blocks, sparse_free):
    nblocks = draw(st.integers(min_blocks, max_blocks))
    # Superblock, one inode-table block (32 inodes), then the bitmap.
    data_start = 2 + -(-nblocks // BITS_PER_BITMAP_BLOCK)
    data = range(data_start, nblocks)
    if sparse_free:
        # Nearly full: a few free bits anywhere, possibly none at all.
        free = set(draw(st.lists(st.sampled_from(data), max_size=4)))
        used = [lba for lba in data if lba not in free]
    else:
        density = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 1.0]))
        rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
        used = [lba for lba in data if rnd.random() < density]
    # The hint and ``near`` range over the whole region; hints at or
    # just below the end force the scan to wrap around.
    hint = draw(st.one_of(
        st.integers(data_start, nblocks),
        st.integers(max(data_start, nblocks - 3), nblocks),
    ))
    near = draw(st.one_of(st.none(), st.just(0), st.integers(0, nblocks - 1)))
    return nblocks, used, hint, near


def _check_alloc_block(nblocks, used, hint, near, allocations):
    new, old = _fs(nblocks, 32), _fs(nblocks, 32)
    assert new.layout.data_start == 2 + new.layout.bitmap_blocks
    for fs in (new, old):
        _set_bitmap(fs, used)
        fs._alloc_hint = hint
    for i in range(allocations):
        where = near if i == 0 else None
        got = _outcome(new._alloc_block, where)
        want = _outcome(per_entry_alloc_block, old, where)
        assert got == want
        assert new._alloc_hint == old._alloc_hint
    layout = new.layout
    assert _blocks(new, layout.bitmap_start, layout.bitmap_blocks) == _blocks(
        old, layout.bitmap_start, layout.bitmap_blocks
    )


@given(bitmaps(40, 3000, sparse_free=False), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_alloc_block_matches_per_bit_scan(bitmap, allocations):
    _check_alloc_block(*bitmap, allocations)


@given(bitmaps(BITS_PER_BITMAP_BLOCK + 1, BITS_PER_BITMAP_BLOCK + 1200, sparse_free=True),
       st.integers(1, 2))
@settings(max_examples=8, deadline=None)
def test_alloc_block_matches_per_bit_scan_across_bitmap_blocks(bitmap, allocations):
    _check_alloc_block(*bitmap, allocations)


def test_full_bitmap_raises():
    fs = _fs(500, 32)
    _set_bitmap(fs, range(fs.layout.data_start, 500))
    fs._alloc_hint = 499
    with pytest.raises(NoSpaceFSError):
        fs._alloc_block()


def test_alloc_block_reads_each_bitmap_block_it_enters_once():
    nblocks = BITS_PER_BITMAP_BLOCK + 500
    fs = _fs(nblocks, 32)
    # Everything free lies in the second bitmap block.
    _set_bitmap(fs, range(fs.layout.data_start, BITS_PER_BITMAP_BLOCK + 17))
    stats = fs.cache.stats
    reads = stats.counter("hits").value + stats.counter("misses").value
    assert fs._alloc_block() == BITS_PER_BITMAP_BLOCK + 17
    assert stats.counter("hits").value + stats.counter("misses").value - reads == 2
