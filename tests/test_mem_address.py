"""Unit tests for the single-level physical address space."""

import pytest

from repro.devices import DRAM, FlashMemory
from repro.mem import PhysicalAddressSpace
from repro.mem.address import DRAM_BASE, FLASH_BASE
from repro.sim import SimClock

MB = 1024 * 1024


@pytest.fixture
def phys():
    clock = SimClock()
    space = PhysicalAddressSpace(clock)
    space.add_region("dram", DRAM(1 * MB))
    space.add_region("flash", FlashMemory(1 * MB, banks=2), base=FLASH_BASE)
    return space


def _bases(phys):
    return {region.name: region.base for region in phys._regions}


class TestRegions:
    def test_first_region_at_dram_base(self, phys):
        assert _bases(phys)["dram"] == DRAM_BASE

    def test_flash_at_requested_base(self, phys):
        assert _bases(phys)["flash"] == FLASH_BASE

    def test_auto_base_does_not_overlap(self):
        space = PhysicalAddressSpace(SimClock())
        a = space.add_region("a", DRAM(1 * MB))
        b = space.add_region("b", DRAM(1 * MB))
        assert b.base >= a.end

    def test_overlap_rejected(self, phys):
        with pytest.raises(ValueError):
            phys.add_region("bad", DRAM(1 * MB), base=DRAM_BASE + 4096)

    def test_region_of(self, phys):
        assert phys.region_of(FLASH_BASE + 100).name == "flash"
        with pytest.raises(ValueError):
            phys.region_of(0x5000_0000_0000)

    def test_region_of_straddling_access(self, phys):
        with pytest.raises(ValueError):
            phys.region_of(1 * MB - 2, nbytes=8)  # runs off the DRAM region

    def test_unknown_region_name(self, phys):
        assert "nvram" not in _bases(phys)


class TestUniformAccess:
    def test_dram_roundtrip(self, phys):
        phys.write(DRAM_BASE + 128, b"primary")
        assert phys.read(DRAM_BASE + 128, 7) == b"primary"

    def test_flash_roundtrip(self, phys):
        phys.write(FLASH_BASE + 4096, b"secondary")
        assert phys.read(FLASH_BASE + 4096, 9) == b"secondary"

    def test_clock_advances_with_access(self, phys):
        before = phys.clock.now
        phys.read(DRAM_BASE, 4096)
        assert phys.clock.now > before

    def test_flash_read_slower_than_dram(self, phys):
        phys.write(DRAM_BASE, b"\x00" * 4096)
        start = phys.clock.now
        phys.read(DRAM_BASE, 4096)
        dram_latency = phys.clock.now - start
        start = phys.clock.now
        phys.read(FLASH_BASE, 4096)
        assert phys.clock.now - start > dram_latency

    def test_is_flash(self, phys):
        assert isinstance(phys.region_of(FLASH_BASE).device, FlashMemory)
        assert not isinstance(phys.region_of(DRAM_BASE).device, FlashMemory)
