"""Unit tests for config validation, lifetime projection, and the machine."""

import math

import pytest

from repro.core import MobileComputer, Organization, SystemConfig, lifetime_projection
from repro.devices import FlashMemory
from repro.devices.catalog import DeviceSpec, FLASH_PAPER_NOMINAL

KB = 1024
MB = 1024 * 1024


class TestSystemConfig:
    def test_default_is_valid(self):
        SystemConfig().validate()

    def test_dram_too_small_rejected(self):
        config = SystemConfig(dram_bytes=512 * KB, write_buffer_bytes=1 * MB)
        with pytest.raises(ValueError):
            config.validate()

    def test_disk_org_needs_disk(self):
        config = SystemConfig(organization=Organization.DISK, disk_bytes=0)
        with pytest.raises(ValueError):
            config.validate()

    def test_write_banks_bounds(self):
        config = SystemConfig(flash_banks=4, write_banks=5)
        with pytest.raises(ValueError):
            config.validate()

    def test_storage_budget(self):
        solid = SystemConfig(organization=Organization.SOLID_STATE)
        disk = SystemConfig(organization=Organization.DISK)
        assert solid.storage_budget_dollars() > 0
        assert disk.storage_budget_dollars() > 0

    def test_vm_frame_bytes_positive(self):
        config = SystemConfig()
        assert config.vm_frame_bytes() > 0


class TestLifetimeProjection:
    def test_no_traffic_is_infinite(self):
        flash = FlashMemory(256 * KB, spec=FLASH_PAPER_NOMINAL)
        projection = lifetime_projection(flash, 100.0)
        assert math.isinf(projection.projected_seconds)

    def test_hotspot_projection(self):
        spec = DeviceSpec(
            **{**FLASH_PAPER_NOMINAL.__dict__, "endurance_cycles": 100, "name": "t"}
        )
        flash = FlashMemory(256 * KB, spec=spec)
        for _ in range(10):
            flash.erase_sector(0, 0.0)
        projection = lifetime_projection(flash, observed_seconds=100.0)
        # 10 erases / 100 s on the hot sector -> 100 cycles last 1000 s.
        assert projection.projected_seconds == pytest.approx(1000.0)
        assert projection.leveling_efficiency < 0.1  # single hot sector

    def test_perfect_leveling_efficiency_one(self):
        spec = DeviceSpec(
            **{**FLASH_PAPER_NOMINAL.__dict__, "endurance_cycles": 100, "name": "t"}
        )
        flash = FlashMemory(64 * KB, spec=spec)  # 16 sectors
        for s in range(flash.num_sectors):
            flash.erase_sector(s, 0.0)
        projection = lifetime_projection(flash, 100.0)
        assert projection.leveling_efficiency == pytest.approx(1.0)

    def test_invalid_window(self):
        flash = FlashMemory(256 * KB)
        with pytest.raises(ValueError):
            lifetime_projection(flash, 0.0)


class TestMobileComputer:
    @pytest.mark.parametrize("org", list(Organization))
    def test_every_org_builds_and_runs(self, org):
        config = SystemConfig(
            organization=org,
            dram_bytes=4 * MB,
            flash_bytes=8 * MB,
            disk_bytes=24 * MB,
            program_flash_bytes=1 * MB,
        )
        machine = MobileComputer(config)
        report, metrics = machine.run_workload("pim", duration_s=30.0)
        assert report.errors == 0
        assert metrics.organization == org.value
        assert metrics.energy_joules > 0
        assert metrics.records == report.records

    def test_determinism_same_seed(self):
        def run():
            machine = MobileComputer(
                SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB, seed=5)
            )
            _report, metrics = machine.run_workload("office", duration_s=45.0)
            return metrics.snapshot()

        a, b = run(), run()
        # Full metric dictionaries must match bit-for-bit.
        assert a == b

    def test_solid_state_beats_disk_on_latency_and_energy(self):
        results = {}
        for org in (Organization.SOLID_STATE, Organization.DISK):
            machine = MobileComputer(
                SystemConfig(
                    organization=org,
                    dram_bytes=4 * MB,
                    flash_bytes=16 * MB,
                    disk_bytes=32 * MB,
                )
            )
            _report, metrics = machine.run_workload("office", duration_s=60.0)
            results[org] = metrics
        solid = results[Organization.SOLID_STATE]
        disk = results[Organization.DISK]
        assert solid.mean_write_latency < disk.mean_write_latency / 3
        assert solid.mean_read_latency < disk.mean_read_latency
        assert solid.energy_joules < disk.energy_joules

    def test_write_buffer_reduces_flash_traffic(self):
        machine = MobileComputer(
            SystemConfig(dram_bytes=4 * MB, flash_bytes=16 * MB, write_buffer_bytes=MB)
        )
        _report, metrics = machine.run_workload("office", duration_s=60.0)
        assert 0.2 < metrics.write_traffic_reduction < 0.9

    def test_program_launches_xip_on_solid_state(self):
        machine = MobileComputer(SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB))
        machine.register_programs((("ed", 32 * KB),))
        result = machine.launch_program("ed")
        assert result.mode == "xip"
        assert result.dram_pages_used == 0

    def test_program_launches_load_on_disk_org(self):
        machine = MobileComputer(
            SystemConfig(
                organization=Organization.DISK, dram_bytes=4 * MB, disk_bytes=24 * MB
            )
        )
        machine.register_programs((("ed", 32 * KB),))
        result = machine.launch_program("ed")
        assert result.mode == "load"
        assert result.dram_pages_used >= 8

    def test_resident_process_cap(self):
        machine = MobileComputer(SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB))
        for i in range(8):
            machine.register_programs(((f"p{i}", 16 * KB),))
            machine.launch_program(f"p{i}")
        assert len(machine._resident) <= 4

    def test_battery_failure_loses_only_buffered(self):
        machine = MobileComputer(SystemConfig(dram_bytes=4 * MB, flash_bytes=16 * MB))
        machine.fs.write_file("/stable", b"s" * 8 * KB)
        machine.fs.sync()
        machine.fs.write_file("/dirty", b"d" * 8 * KB)
        stable_ino = machine.fs._lookup(["stable"]).ino
        machine.inject_battery_failure()
        lost = machine.stats.counter("bytes_lost_to_power_failure").value
        assert lost >= 8 * KB
        # Flash contents survive the failure.
        assert machine.manager.store.contains(("data", stable_ino, 0))

    def test_orderly_shutdown_loses_nothing(self):
        machine = MobileComputer(SystemConfig(dram_bytes=4 * MB, flash_bytes=16 * MB))
        machine.fs.write_file("/doc", b"d" * 8 * KB)
        machine.orderly_shutdown()
        machine.inject_battery_failure()
        assert machine.stats.counter("bytes_lost_to_power_failure").value == 0

    def test_snapshot(self):
        machine = MobileComputer(SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB))
        snap = machine.snapshot()
        assert snap["organization"] == "solid_state"
        assert "storage_manager" in snap
