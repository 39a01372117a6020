"""Unit tests for the 1993 device catalog (paper Section 2 anchors)."""

import pytest

from repro.devices import DeviceSpec, catalog_specs
from repro.devices.catalog import (
    DISK_FUJITSU_M2633,
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_INTEL_SERIES2,
    FLASH_PAPER_NOMINAL,
    FLASH_SUNDISK_SDI,
)


class TestCatalogContents:
    def test_all_paper_devices_present(self):
        names = set(catalog_specs())
        assert len(names) == 6
        assert any("NEC" in n for n in names)
        assert any("Intel" in n for n in names)
        assert any("SunDisk" in n for n in names)
        assert any("KittyHawk" in n for n in names)
        assert any("Fujitsu" in n for n in names)

    def test_lookup_by_name(self):
        specs = catalog_specs()
        assert specs[DRAM_NEC_LOW_POWER.name] is DRAM_NEC_LOW_POWER
        assert "IBM Microdrive" not in specs

    def test_all_specs_validate(self):
        for spec in catalog_specs().values():
            spec.validate()


class TestPaperNumbers:
    """The exact figures quoted in the paper's text."""

    def test_flash_read_100ns_per_byte_class(self):
        assert FLASH_PAPER_NOMINAL.read_per_byte_s == pytest.approx(100e-9)
        assert FLASH_INTEL_SERIES2.read_per_byte_s == pytest.approx(100e-9)

    def test_flash_write_10us_per_byte_class(self):
        assert FLASH_PAPER_NOMINAL.write_per_byte_s == pytest.approx(10e-6)

    def test_flash_endurance_100k(self):
        for spec in (FLASH_PAPER_NOMINAL, FLASH_INTEL_SERIES2, FLASH_SUNDISK_SDI):
            assert spec.endurance_cycles == 100_000

    def test_sundisk_erase_sector_512(self):
        assert FLASH_SUNDISK_SDI.erase_sector_bytes == 512

    def test_flash_cost_50_per_mb(self):
        assert FLASH_PAPER_NOMINAL.dollars_per_mb == pytest.approx(50.0)

    def test_densities_match_paper(self):
        assert DRAM_NEC_LOW_POWER.density_mb_per_cubic_inch == pytest.approx(15.0)
        assert DISK_HP_KITTYHAWK.density_mb_per_cubic_inch == pytest.approx(19.0)
        # Flash within 20% of the KittyHawk.
        ratio = (
            FLASH_PAPER_NOMINAL.density_mb_per_cubic_inch
            / DISK_HP_KITTYHAWK.density_mb_per_cubic_inch
        )
        assert ratio > 0.8
        # Flash about half the 2.5-inch Fujitsu.
        ratio = (
            FLASH_PAPER_NOMINAL.density_mb_per_cubic_inch
            / DISK_FUJITSU_M2633.density_mb_per_cubic_inch
        )
        assert 0.4 < ratio < 0.6

    def test_cost_identity_12mb_dram_20mb_flash_120mb_disk(self):
        """Paper Section 4: same money buys 12 MB DRAM, 20 MB flash, or
        120 MB disk."""
        budget = 12 * DRAM_NEC_LOW_POWER.dollars_per_mb
        flash_mb = budget / FLASH_PAPER_NOMINAL.dollars_per_mb
        disk_mb = budget / DISK_HP_KITTYHAWK.dollars_per_mb
        assert flash_mb == pytest.approx(20.0, rel=0.05)
        assert disk_mb == pytest.approx(120.0, rel=0.05)

    def test_power_ordering_flash_lowest(self):
        flash_active = FLASH_PAPER_NOMINAL.active_read_power_w
        assert flash_active < DRAM_NEC_LOW_POWER.active_read_power_w
        assert flash_active < DISK_HP_KITTYHAWK.active_read_power_w


class TestSpecValidation:
    def test_bad_kind_rejected(self):
        spec = DeviceSpec(
            name="x", kind="tape", year=1993,
            read_overhead_s=0, read_per_byte_s=0,
            write_overhead_s=0, write_per_byte_s=0,
        )
        with pytest.raises(ValueError):
            spec.validate()

    def test_flash_needs_erase_geometry(self):
        spec = DeviceSpec(
            name="x", kind="flash", year=1993,
            read_overhead_s=0, read_per_byte_s=0,
            write_overhead_s=0, write_per_byte_s=0,
        )
        with pytest.raises(ValueError):
            spec.validate()

    def test_disk_needs_mechanics(self):
        spec = DeviceSpec(
            name="x", kind="disk", year=1993,
            read_overhead_s=0, read_per_byte_s=0,
            write_overhead_s=0, write_per_byte_s=0,
        )
        with pytest.raises(ValueError):
            spec.validate()
