"""Unit tests for flash sector allocation bookkeeping."""

import pytest

import dataclasses

from repro.devices import FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.storage import Location, SectorAllocator, SectorState
from repro.storage.allocator import SUMMARY_BYTES

KB = 1024

FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=4 * KB
)


@pytest.fixture
def alloc():
    flash = FlashMemory(64 * KB, spec=FLASH_4K, banks=2)
    return SectorAllocator(flash)


class TestLifecycle:
    def test_fresh_device_all_free(self, alloc):
        assert alloc.free_sector_count() == 16
        assert alloc.total_live_bytes == 0

    def test_take_erased_opens_sector(self, alloc):
        info = alloc.take_erased(0)
        assert info.state is SectorState.OPEN
        assert alloc.free_sector_count() == 15

    def test_take_non_erased_rejected(self, alloc):
        alloc.take_erased(0)
        with pytest.raises(ValueError):
            alloc.take_erased(0)

    def test_append_bump_pointer(self, alloc):
        alloc.take_erased(0)
        a = alloc.append(0, "k1", 100)
        b = alloc.append(0, "k2", 200)
        assert a == Location(0, 0, 100)
        assert b == Location(0, 100, 200)
        # Each block is charged its summary slot too.
        assert alloc.total_live_bytes == 300 + 2 * SUMMARY_BYTES

    def test_append_overflow_rejected(self, alloc):
        alloc.take_erased(0)
        alloc.append(0, "k", 4000)
        with pytest.raises(ValueError):
            alloc.append(0, "k2", 200)

    def test_append_to_sealed_rejected(self, alloc):
        alloc.take_erased(0)
        alloc.seal(0, now=1.0)
        with pytest.raises(ValueError):
            alloc.append(0, "k", 10)

    def test_seal_counts_slack_as_dead(self, alloc):
        alloc.take_erased(0)
        alloc.append(0, "k", 1000)
        alloc.seal(0, now=1.0)
        info = alloc.info(0)
        assert info.dead_bytes == 4 * KB - 1000 - SUMMARY_BYTES
        assert info.live_bytes == 1000 + SUMMARY_BYTES

    def test_invalidate_moves_live_to_dead(self, alloc):
        alloc.take_erased(0)
        loc = alloc.append(0, "k", 500)
        assert alloc.invalidate(loc) == "k"
        info = alloc.info(0)
        assert info.live_bytes == 0
        assert info.dead_bytes == 500 + SUMMARY_BYTES

    def test_double_invalidate_rejected(self, alloc):
        alloc.take_erased(0)
        loc = alloc.append(0, "k", 500)
        alloc.invalidate(loc)
        with pytest.raises(ValueError):
            alloc.invalidate(loc)

    def test_mark_erased_requires_no_live_data(self, alloc):
        alloc.take_erased(0)
        alloc.append(0, "k", 500)
        alloc.seal(0, now=1.0)
        with pytest.raises(ValueError):
            alloc.mark_erased(0)

    def test_full_cycle_back_to_free(self, alloc):
        alloc.take_erased(0)
        loc = alloc.append(0, "k", 500)
        alloc.seal(0, now=1.0)
        alloc.invalidate(loc)
        alloc.mark_erased(0)
        assert alloc.info(0).state is SectorState.ERASED
        assert alloc.free_sector_count() == 16
        alloc.check_invariants()


class TestQueries:
    def test_occupancy(self, alloc):
        alloc.take_erased(0)
        alloc.append(0, "k", 1024)
        occ = alloc.occupancy()
        assert occ["live_bytes"] == 1024 + SUMMARY_BYTES
        assert occ["utilization"] == pytest.approx((1024 + SUMMARY_BYTES) / (64 * KB))

    def test_invariants_hold_through_random_ops(self, alloc):
        locs = {}
        for i in range(8):
            alloc.take_erased(i)
            for j in range(4):
                locs[(i, j)] = alloc.append(i, f"k{i}-{j}", 512)
            alloc.seal(i, now=float(i))
        for (i, j), loc in list(locs.items()):
            if j % 2 == 0:
                alloc.invalidate(loc)
        alloc.check_invariants()
