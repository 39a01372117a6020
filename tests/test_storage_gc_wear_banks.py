"""Unit tests for the cleaning policies and wear helpers."""

import pytest

import dataclasses

from repro.devices import FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.sim.clock import SimClock
from repro.storage import SectorAllocator, WearPolicy
from repro.storage.allocator import SUMMARY_BYTES
from repro.storage.gc import CleaningPolicy, choose_victim
from repro.storage.wear import choose_erased_sector, static_rotation_victim

KB = 1024

FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=4 * KB
)


@pytest.fixture
def alloc():
    flash = FlashMemory(64 * KB, spec=FLASH_4K, banks=2)
    return SectorAllocator(flash)


def seal_with(alloc, sector, live, dead, when):
    """Seal ``sector`` with one live and one dead block charged ``live``
    and ``dead`` bytes (payload plus summary slot)."""
    info = alloc.take_erased(sector)
    if live:
        alloc.append(sector, f"live{sector}", live - SUMMARY_BYTES)
    if dead:
        loc = alloc.append(sector, f"dead{sector}", dead - SUMMARY_BYTES)
        alloc.seal(sector, when)
        alloc.invalidate(loc)
        return info
    alloc.seal(sector, when)
    return info


class TestChooseVictim:
    def test_greedy_picks_most_dead(self, alloc):
        seal_with(alloc, 0, live=3 * KB, dead=1 * KB, when=0.0)
        seal_with(alloc, 1, live=1 * KB, dead=3 * KB, when=0.0)
        assert choose_victim(alloc, CleaningPolicy.GREEDY, now=10.0) == 1

    def test_cost_benefit_prefers_old_cold(self, alloc):
        # Sector 0: moderately dead but ancient; sector 1: more dead, new.
        seal_with(alloc, 0, live=2 * KB, dead=2 * KB, when=0.0)
        seal_with(alloc, 1, live=1 * KB, dead=3 * KB, when=999.0)
        assert choose_victim(alloc, CleaningPolicy.COST_BENEFIT, now=1000.0) == 0

    def test_fully_live_sectors_skipped(self, alloc):
        alloc.take_erased(0)
        alloc.append(0, "k", 4 * KB - SUMMARY_BYTES)
        alloc.seal(0, 0.0)
        assert choose_victim(alloc, CleaningPolicy.GREEDY, now=1.0) is None

    def test_generational_prefers_young_mostly_dead(self, alloc):
        # Young and mostly dead beats old and half-live.
        seal_with(alloc, 0, live=2 * KB, dead=2 * KB, when=0.0)
        seal_with(alloc, 1, live=512, dead=3584, when=95.0)
        assert choose_victim(alloc, CleaningPolicy.GENERATIONAL, now=100.0) == 1


class TestWearHelpers:
    def test_none_policy_first_fit(self, alloc):
        assert choose_erased_sector(alloc, WearPolicy.NONE) == 0

    def test_dynamic_picks_least_worn(self, alloc):
        flash = alloc.flash
        for _ in range(5):
            flash.erase_sector(0, SimClock())
        flash.erase_sector(1, SimClock())
        chosen = choose_erased_sector(alloc, WearPolicy.DYNAMIC)
        assert chosen not in (0, 1)  # both have wear; others are fresh

    def test_no_free_sectors_returns_none(self, alloc):
        for s in range(16):
            alloc.take_erased(s)
        assert choose_erased_sector(alloc, WearPolicy.DYNAMIC) is None

    def test_static_rotation_needs_gap(self, alloc):
        seal_with(alloc, 0, live=2 * KB, dead=0, when=0.0)
        assert static_rotation_victim(alloc, gap_threshold=4) is None
        for _ in range(10):
            alloc.flash.erase_sector(5, SimClock())
        victim = static_rotation_victim(alloc, gap_threshold=4)
        assert victim == 0  # least-worn sealed sector

    def test_static_rotation_skips_worn_victims(self, alloc):
        for _ in range(10):
            alloc.flash.erase_sector(0, SimClock())
        seal_with(alloc, 0, live=2 * KB, dead=0, when=0.0)
        # Only sealed sector is itself heavily worn: no rotation.
        assert static_rotation_victim(alloc, gap_threshold=4) is None

    def test_invalid_threshold(self, alloc):
        with pytest.raises(ValueError):
            static_rotation_victim(alloc, gap_threshold=0)

