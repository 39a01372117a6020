"""Unit tests for page tables and the DRAM frame allocator."""

import pytest

from repro.mem.paging import (
    PAGE_SIZE,
    OutOfFramesError,
    PageFrameAllocator,
    PageTable,
    PageTableEntry,
    Permissions,
)


class TestPageTable:
    def test_insert_lookup(self):
        pt = PageTable()
        pt.insert(PageTableEntry(vpn=5, perms=Permissions.RW))
        assert pt.lookup(5) is not None
        assert pt.lookup(6) is None

    def test_double_insert_rejected(self):
        pt = PageTable()
        pt.insert(PageTableEntry(vpn=5, perms=Permissions.RW))
        with pytest.raises(ValueError):
            pt.insert(PageTableEntry(vpn=5, perms=Permissions.READ))

    def test_remove(self):
        pt = PageTable()
        pt.insert(PageTableEntry(vpn=5, perms=Permissions.RW))
        assert pt.remove(5).vpn == 5
        with pytest.raises(KeyError):
            pt.remove(5)


class TestPermissions:
    def test_flag_composition(self):
        assert Permissions.RW & Permissions.WRITE
        assert not (Permissions.READ & Permissions.WRITE)
        assert Permissions.RX & Permissions.EXECUTE


class TestFrameAllocator:
    def test_allocates_distinct_frames(self):
        alloc = PageFrameAllocator(0, 8 * PAGE_SIZE)
        frames = {alloc.allocate() for _ in range(8)}
        assert len(frames) == 8
        assert all(f % PAGE_SIZE == 0 for f in frames)

    def test_exhaustion(self):
        alloc = PageFrameAllocator(0, 2 * PAGE_SIZE)
        alloc.allocate()
        alloc.allocate()
        with pytest.raises(OutOfFramesError):
            alloc.allocate()

    def test_free_and_reuse(self):
        alloc = PageFrameAllocator(0, PAGE_SIZE)
        frame = alloc.allocate()
        alloc.free(frame)
        assert alloc.allocate() == frame

    def test_double_free_rejected(self):
        alloc = PageFrameAllocator(0, 2 * PAGE_SIZE)
        frame = alloc.allocate()
        alloc.free(frame)
        with pytest.raises(ValueError):
            alloc.free(frame)

    def test_foreign_address_rejected(self):
        alloc = PageFrameAllocator(0, 2 * PAGE_SIZE)
        with pytest.raises(ValueError):
            alloc.free(10 * PAGE_SIZE)
        with pytest.raises(ValueError):
            alloc.free(17)  # unaligned

    def test_unaligned_region_rejected(self):
        with pytest.raises(ValueError):
            PageFrameAllocator(0, PAGE_SIZE + 1)

    def test_counts(self):
        alloc = PageFrameAllocator(1 << 20, 4 * PAGE_SIZE)
        assert alloc.total_frames == 4
        alloc.allocate()
        assert alloc.used_frames == 1
        assert alloc.free_frames == 3

    def test_contains(self):
        alloc = PageFrameAllocator(1 << 20, 4 * PAGE_SIZE)
        assert alloc.contains((1 << 20) + PAGE_SIZE)
        assert not alloc.contains(0)
