"""Unit tests for swap backends and execute-in-place."""

import pytest

from repro.devices import DRAM, FlashMemory, MagneticDisk
from repro.mem import (
    PAGE_SIZE,
    FlashSwap,
    PageFrameAllocator,
    PhysicalAddressSpace,
    ProgramStore,
    RawDiskSwap,
    VirtualMemory,
    launch_load,
    launch_xip,
)
from repro.mem.swap import SwapExhaustedError
from repro.sim import SimClock
from repro.storage import FlashStore

MB = 1024 * 1024


class TestRawDiskSwap:
    def make(self, partition_mb=1):
        clock = SimClock()
        disk = MagneticDisk(8 * MB)
        return RawDiskSwap(disk, clock, 0, partition_mb * MB)

    def test_roundtrip(self):
        swap = self.make()
        page = bytes(range(256)) * 16
        handle = swap.page_out(page)
        assert swap.page_in(handle) == page
        assert len(swap._held) == 0

    def test_handle_single_use(self):
        swap = self.make()
        handle = swap.page_out(bytes(PAGE_SIZE))
        swap.page_in(handle)
        with pytest.raises(KeyError):
            swap.page_in(handle)

    def test_partial_page_rejected(self):
        swap = self.make()
        with pytest.raises(ValueError):
            swap.page_out(b"short")

    def test_exhaustion(self):
        clock = SimClock()
        disk = MagneticDisk(8 * MB)
        swap = RawDiskSwap(disk, clock, 0, 2 * PAGE_SIZE)
        swap.page_out(bytes(PAGE_SIZE))
        swap.page_out(bytes(PAGE_SIZE))
        with pytest.raises(SwapExhaustedError):
            swap.page_out(bytes(PAGE_SIZE))

    def test_discard_frees_slot(self):
        clock = SimClock()
        disk = MagneticDisk(8 * MB)
        swap = RawDiskSwap(disk, clock, 0, PAGE_SIZE)
        handle = swap.page_out(bytes(PAGE_SIZE))
        swap.discard(handle)
        swap.page_out(bytes(PAGE_SIZE))  # slot reusable

    def test_misaligned_partition_rejected(self):
        clock = SimClock()
        disk = MagneticDisk(8 * MB)
        with pytest.raises(ValueError):
            RawDiskSwap(disk, clock, 0, PAGE_SIZE + 1)


class TestFlashSwap:
    def make(self):
        clock = SimClock()
        flash = FlashMemory(4 * MB, banks=2)
        return FlashSwap(FlashStore(flash, clock))

    def test_roundtrip_and_cleanup(self):
        swap = self.make()
        page = b"\xAB" * PAGE_SIZE
        handle = swap.page_out(page)
        assert len(swap._held) == 1
        assert swap.page_in(handle) == page
        # Page-in deletes the block: the log can reclaim it.
        assert not swap.store.contains(("swap", handle))

    def test_discard(self):
        swap = self.make()
        handle = swap.page_out(bytes(PAGE_SIZE))
        swap.discard(handle)
        assert len(swap._held) == 0

    def test_invalid_handle(self):
        swap = self.make()
        with pytest.raises(KeyError):
            swap.page_in(42)


def make_machine(program_flash_mb=2, dram_mb=2):
    clock = SimClock()
    phys = PhysicalAddressSpace(clock)
    dram = DRAM(dram_mb * MB)
    dram_region = phys.add_region("dram", dram)
    flash = FlashMemory(program_flash_mb * MB, banks=1)
    flash_region = phys.add_region("flash", flash)
    frames = PageFrameAllocator(dram_region.base, dram_region.size)
    vm = VirtualMemory(phys, frames)
    store = ProgramStore(phys, flash_region)
    return vm, store


class TestProgramStore:
    def test_install_and_get(self):
        vm, store = make_machine()
        image = store.install("ed", b"\x90" * 5000)
        assert image.npages == 2
        assert store.get("ed") is image

    def test_duplicate_install_rejected(self):
        _vm, store = make_machine()
        store.install("ed", b"x")
        with pytest.raises(ValueError):
            store.install("ed", b"y")

    def test_empty_image_rejected(self):
        _vm, store = make_machine()
        with pytest.raises(ValueError):
            store.install("null", b"")

    def test_store_exhaustion(self):
        vm, store = make_machine(program_flash_mb=1)
        store.install("big", b"x" * (900 * 1024))
        with pytest.raises(MemoryError):
            store.install("more", b"y" * (200 * 1024))


class TestLaunch:
    def test_xip_uses_no_dram_and_is_fast(self):
        vm, store = make_machine()
        image = store.install("app", b"CODE" * 8192)  # 32 KB
        space = vm.create_space("p")
        result = launch_xip(vm, space, image)
        assert result.dram_pages_used == 0
        assert result.mode == "xip"
        load_space = vm.create_space("q")
        load = launch_load(vm, load_space, image)
        assert load.dram_pages_used == image.npages
        assert load.launch_latency_s > 100 * result.launch_latency_s

    def test_both_modes_execute_same_code(self):
        vm, store = make_machine()
        code = bytes((i * 13) & 0xFF for i in range(20000))
        image = store.install("app", code)
        a = vm.create_space("a")
        b = vm.create_space("b")
        xip = launch_xip(vm, a, image)
        load = launch_load(vm, b, image)
        assert vm.execute(a, xip.code_vaddr, 4096) == vm.execute(
            b, load.code_vaddr, 4096
        )

    def test_xip_code_is_write_protected(self):
        from repro.mem.vm import ProtectionError

        vm, store = make_machine()
        image = store.install("app", b"RO" * 100)
        space = vm.create_space("p")
        result = launch_xip(vm, space, image)
        with pytest.raises(ProtectionError):
            vm.write(space, result.code_vaddr, b"virus")

    def test_data_segment_is_private_dram(self):
        vm, store = make_machine()
        image = store.install("app", b"x" * 4096)
        space = vm.create_space("p")
        result = launch_xip(vm, space, image)
        vm.write(space, result.data_vaddr, b"heap data")
        assert vm.read(space, result.data_vaddr, 9) == b"heap data"
        assert vm.frames.used_frames == 1  # one touched data page
