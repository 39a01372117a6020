"""Unit tests for the virtual memory system: protection, faults, replacement."""

import pytest

from repro.devices import DRAM, FlashMemory, MagneticDisk
from repro.mem import (
    PAGE_SIZE,
    PageFrameAllocator,
    Permissions,
    PhysicalAddressSpace,
    RawDiskSwap,
    VirtualMemory,
)
from repro.mem.paging import OutOfFramesError
from repro.mem.vm import PageFaultError, ProtectionError
from repro.sim import SimClock

MB = 1024 * 1024


def make_vm(frames=64, swap=False):
    clock = SimClock()
    phys = PhysicalAddressSpace(clock)
    dram = DRAM(frames * PAGE_SIZE + MB)
    region = phys.add_region("dram", dram)
    allocator = PageFrameAllocator(region.base, frames * PAGE_SIZE)
    backend = None
    if swap:
        disk = MagneticDisk(16 * MB)
        backend = RawDiskSwap(disk, clock, 0, 8 * MB)
    return VirtualMemory(phys, allocator, swap=backend)


class TestProtection:
    def test_unmapped_access_faults(self):
        vm = make_vm()
        space = vm.create_space("p")
        with pytest.raises(PageFaultError):
            vm.read(space, 0x1000, 4)

    def test_write_to_readonly_rejected(self):
        vm = make_vm()
        space = vm.create_space("p")
        # Anonymous memory is always RW; a read-only page is one mapped
        # in place, as XIP maps program code.
        vaddr = vm.map_physical(space, 0, 1, Permissions.READ)
        with pytest.raises(ProtectionError):
            vm.write(space, vaddr, b"nope")

    def test_execute_needs_execute_permission(self):
        vm = make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 1)
        with pytest.raises(ProtectionError):
            vm.execute(space, vaddr, 16)

    def test_spaces_are_isolated(self):
        vm = make_vm()
        a = vm.create_space("a")
        b = vm.create_space("b")
        vaddr = vm.map_anonymous(a, 1)
        vm.write(a, vaddr, b"private")
        with pytest.raises(PageFaultError):
            vm.read(b, vaddr, 7)


class TestDemandPaging:
    def test_zero_fill_on_first_touch(self):
        vm = make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 2)
        assert vm.read(space, vaddr, 8) == bytes(8)
        assert vm.stats.counter("zero_fill_faults").value == 1

    def test_lazy_allocation(self):
        vm = make_vm(frames=4)
        space = vm.create_space("p")
        vm.map_anonymous(space, 100)  # far more pages than frames
        assert vm.frames.used_frames == 0  # nothing touched yet

    def test_write_read_roundtrip(self):
        vm = make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 4)
        blob = bytes(range(256)) * 32
        vm.write(space, vaddr + 100, blob)
        assert vm.read(space, vaddr + 100, len(blob)) == blob

    def test_cross_page_access(self):
        vm = make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 3)
        vm.write(space, vaddr + PAGE_SIZE - 4, b"straddles!")
        assert vm.read(space, vaddr + PAGE_SIZE - 4, 10) == b"straddles!"

    def test_unaligned_map_rejected(self):
        vm = make_vm()
        space = vm.create_space("p")
        with pytest.raises(ValueError):
            vm.map_physical(space, 123, 1, Permissions.READ)


class TestReplacement:
    def test_eviction_and_swap_back(self):
        vm = make_vm(frames=8, swap=True)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 16)
        for i in range(16):
            vm.write(space, vaddr + i * PAGE_SIZE, bytes([i]) * 64)
        # All 16 pages written with only 8 frames: evictions happened.
        assert vm.stats.counter("swap_out_evictions").value > 0
        for i in range(16):
            data = vm.read(space, vaddr + i * PAGE_SIZE, 64)
            assert data == bytes([i]) * 64, f"page {i} corrupted by paging"
        assert vm.stats.counter("swap_in_faults").value > 0

    def test_no_swap_configured_raises(self):
        vm = make_vm(frames=2, swap=False)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 4)
        with pytest.raises(OutOfFramesError):
            for i in range(4):
                vm.write(space, vaddr + i * PAGE_SIZE, b"x")

    def test_referenced_pages_get_second_chance(self):
        vm = make_vm(frames=4, swap=True)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 5)
        hot = vaddr  # keep touching page 0
        for i in range(5):
            vm.write(space, vaddr + i * PAGE_SIZE, bytes([i]) * 8)
            vm.read(space, hot, 8)
        # The hot page should still be resident (its vpn in the queue).
        entry = space.page_table.lookup(hot // PAGE_SIZE)
        assert entry.present

    def test_ample_dram_means_zero_swap(self):
        vm = make_vm(frames=64, swap=True)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 32)
        for _ in range(3):
            for i in range(32):
                vm.write(space, vaddr + i * PAGE_SIZE, b"work")
        assert vm.stats.counter("swap_out_evictions").value == 0


class TestSpaceLifecycle:
    def test_destroy_frees_frames(self):
        vm = make_vm(frames=8)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 4)
        for i in range(4):
            vm.write(space, vaddr + i * PAGE_SIZE, b"x")
        assert vm.frames.used_frames == 4
        vm.destroy_space(space)
        assert vm.frames.used_frames == 0

    def test_destroy_discards_swap(self):
        vm = make_vm(frames=2, swap=True)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 6)
        for i in range(6):
            vm.write(space, vaddr + i * PAGE_SIZE, b"x")
        assert len(vm.swap._held) > 0
        vm.destroy_space(space)
        assert len(vm.swap._held) == 0


class TestCopyOnWrite:
    def test_cow_from_flash_mapping(self):
        clock = SimClock()
        phys = PhysicalAddressSpace(clock)
        dram = DRAM(MB)
        region = phys.add_region("dram", dram)
        flash = FlashMemory(MB, banks=1)
        flash_region = phys.add_region("flash", flash)
        flash.program(0, b"F" * PAGE_SIZE, SimClock())
        allocator = PageFrameAllocator(region.base, region.size)
        vm = VirtualMemory(phys, allocator)
        space = vm.create_space("p")
        # A writable flash page mapped copy-on-write, as mmap maps one.
        vaddr = vm.map_physical(space, flash_region.base, 1, perms=Permissions.RW)
        space.page_table.lookup(vaddr // PAGE_SIZE).cow = True
        # Reads come straight from flash, no frame used.
        assert vm.read(space, vaddr, 4) == b"FFFF"
        assert vm.frames.used_frames == 0
        # First store promotes to DRAM.
        vm.write(space, vaddr, b"EDIT")
        assert vm.frames.used_frames == 1
        assert vm.stats.counter("cow_faults").value == 1
        assert vm.read(space, vaddr, 8) == b"EDITFFFF"
        # Flash copy is untouched.
        assert flash.read(0, 4, SimClock())[0] == b"FFFF"
