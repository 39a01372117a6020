"""Unit tests for the flash memory model: erase-before-write, wear, banks."""

import dataclasses

import pytest

from repro.devices import FlashMemory, WriteBeforeEraseError
from repro.devices.catalog import DeviceSpec, FLASH_PAPER_NOMINAL, FLASH_SUNDISK_SDI
from repro.sim.clock import SimClock

KB = 1024

# A 4 KB-sector variant keeps the geometry assertions independent of the
# catalog's nominal sector size.
FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=4 * KB,
    erase_latency_s=40e-3,
)


def small_flash(banks=1, **kwargs) -> FlashMemory:
    # 64 KB with 4 KB sectors -> 16 sectors.
    return FlashMemory(64 * KB, spec=FLASH_4K, banks=banks, **kwargs)


class TestGeometry:
    def test_sector_count(self):
        f = small_flash()
        assert f.num_sectors == 16
        assert f.sector_bytes == 4 * KB

    def test_bank_mapping_contiguous(self):
        f = small_flash(banks=4)
        assert f.sectors_per_bank == 4
        assert f.bank_of_sector(0) == 0
        assert f.bank_of_sector(3) == 0
        assert f.bank_of_sector(4) == 1
        assert f.bank_of_sector(15) == 3

    def test_capacity_must_divide(self):
        with pytest.raises(ValueError):
            FlashMemory(64 * KB + 1, spec=FLASH_PAPER_NOMINAL)

    def test_non_flash_spec_rejected(self):
        from repro.devices.catalog import DRAM_NEC_LOW_POWER

        with pytest.raises(ValueError):
            FlashMemory(64 * KB, spec=DRAM_NEC_LOW_POWER)


class TestEraseBeforeWrite:
    def test_fresh_device_is_erased(self):
        f = small_flash()
        assert all(f.sector_programmed_bytes(s) == 0 for s in range(f.num_sectors))
        data, _, _ = f.read(0, 16, SimClock(0.0))
        assert data == b"\xff" * 16

    def test_program_then_read_back(self):
        f = small_flash()
        f.program(100, b"hello flash", SimClock(0.0))
        data, _, _ = f.read(100, 11, SimClock(1.0))
        assert data == b"hello flash"

    def test_rewrite_without_erase_rejected(self):
        f = small_flash()
        f.program(0, b"aaaa", SimClock(0.0))
        with pytest.raises(WriteBeforeEraseError):
            f.program(2, b"bb", SimClock(1.0))

    def test_adjacent_programs_allowed(self):
        f = small_flash()
        f.program(0, b"aaaa", SimClock(0.0))
        f.program(4, b"bbbb", SimClock(1.0))  # directly adjacent, not overlapping
        data, _, _ = f.read(0, 8, SimClock(2.0))
        assert data == b"aaaabbbb"

    def test_erase_resets_sector(self):
        f = small_flash()
        f.program(0, b"x" * 100, SimClock(0.0))
        f.erase_sector(0, SimClock(1.0))
        assert f.sector_programmed_bytes(0) == 0
        data, _, _ = f.read(0, 4, SimClock(2.0))
        assert data == b"\xff\xff\xff\xff"
        f.program(0, b"again", SimClock(3.0))  # reprogrammable after erase

    def test_program_spanning_sectors(self):
        f = small_flash()
        blob = bytes(range(256)) * 40  # 10240 bytes, crosses 2 boundaries
        f.program(0, blob, SimClock(0.0))
        data, _, _ = f.read(0, len(blob), SimClock(1.0))
        assert data == blob

    def test_erase_only_touches_its_sector(self):
        f = small_flash()
        f.program(0, b"first", SimClock(0.0))
        f.program(4 * KB, b"second", SimClock(1.0))
        f.erase_sector(0, SimClock(2.0))
        data, _, _ = f.read(4 * KB, 6, SimClock(3.0))
        assert data == b"second"


class TestTiming:
    def test_write_much_slower_than_read(self):
        f = small_flash()
        write, _ = f.program(0, b"z" * 1024, SimClock(0.0))
        read = f.read(0, 1024, SimClock(10.0))[1]
        # Paper: write times two orders of magnitude above read times.
        assert write > 50 * read

    def test_read_latency_scales_with_size(self):
        f = small_flash()
        r1 = f.read(0, 100, SimClock(0.0))[1]
        r2 = f.read(0, 10000, SimClock(0.0))[1]
        assert r2 > r1

    def test_erase_charges_spec_latency(self):
        f = small_flash()
        clock = SimClock()
        latency, wait = f.erase_sector(0, clock)
        assert latency == pytest.approx(FLASH_4K.erase_latency_s)
        assert wait == 0.0
        assert clock.now == latency


class TestBankBlocking:
    def test_read_stalls_behind_erase_same_bank(self):
        f = small_flash(banks=2)
        f.erase_sector(0, SimClock(0.0))  # occupies bank 0
        _, _, wait = f.read(0, 64, SimClock(0.0))
        assert wait > 0.0

    def test_read_other_bank_not_stalled(self):
        f = small_flash(banks=2)
        f.erase_sector(0, SimClock(0.0))  # bank 0 busy
        offset_bank1 = 8 * (4 * KB)  # first sector of bank 1
        _, _, wait = f.read(offset_bank1, 64, SimClock(0.0))
        assert wait == 0.0

    def test_bank_frees_after_erase_completes(self):
        f = small_flash(banks=2)
        erase, _ = f.erase_sector(0, SimClock(0.0))
        _, _, wait = f.read(0, 64, SimClock(erase + 0.001))
        assert wait == 0.0

    def test_single_bank_blocks_everything(self):
        f = small_flash(banks=1)
        f.erase_sector(15, SimClock(0.0))
        _, _, wait = f.read(0, 64, SimClock(0.0))
        assert wait > 0.0


class TestWear:
    def test_erase_counts_accumulate(self):
        f = small_flash()
        for _ in range(5):
            f.erase_sector(3, SimClock(0.0))
        assert f.sector_erase_count(3) == 5
        assert f.total_erases == 5

    def test_wearout_detection(self):
        spec = DeviceSpec(
            **{**FLASH_4K.__dict__, "endurance_cycles": 3, "name": "short-lived"}
        )
        f = FlashMemory(64 * KB, spec=spec)
        for _ in range(3):
            f.erase_sector(0, SimClock(0.0))
        assert f.first_wearout is None
        f.erase_sector(0, SimClock(7.5))
        assert f.first_wearout == (7.5, 4)
        assert f.worn_sector_count == 1

    def test_wear_summary(self):
        f = small_flash()
        f.erase_sector(0, SimClock(0.0))
        f.erase_sector(0, SimClock(0.0))
        f.erase_sector(1, SimClock(0.0))
        summary = f.wear_summary()
        assert summary["total_erases"] == 3
        assert summary["max_erases"] == 2
        assert summary["min_erases"] == 0
        assert summary["wear_cov"] > 0


class TestSunDiskVariant:
    def test_small_sectors(self):
        f = FlashMemory(64 * KB, spec=FLASH_SUNDISK_SDI)
        assert f.sector_bytes == 512
        assert f.num_sectors == 128
