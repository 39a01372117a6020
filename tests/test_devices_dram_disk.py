"""Unit tests for the DRAM and magnetic disk models."""

import pytest

from repro.devices import DRAM, MagneticDisk, OutOfRangeError, PowerLossError
from repro.devices.catalog import DISK_FUJITSU_M2633, DISK_HP_KITTYHAWK
from repro.sim import SimClock

MB = 1024 * 1024


class TestDRAM:
    def test_read_back(self):
        d = DRAM(MB)
        d.write(1000, b"persist me", SimClock())
        data, _, _ = d.read(1000, 10, SimClock(1.0))
        assert data == b"persist me"

    def test_symmetric_latency(self):
        d = DRAM(MB)
        w = d.write(0, b"x" * 4096, SimClock())[0]
        r = d.read(0, 4096, SimClock(1.0))[1]
        assert w == pytest.approx(r)

    def test_out_of_range(self):
        d = DRAM(MB)
        with pytest.raises(OutOfRangeError):
            d.read(MB - 2, 4, SimClock())

    def test_power_loss_destroys_contents(self):
        d = DRAM(MB)
        d.write(0, b"gone", SimClock())
        d.power_loss()
        with pytest.raises(PowerLossError):
            d.read(0, 4, SimClock(1.0))
        d.power_restore()
        data, _, _ = d.read(0, 4, SimClock(2.0))
        assert data == b"\x00\x00\x00\x00"

    def test_power_loss_zeroes_whole_array_in_place(self):
        d = DRAM(MB)
        d.write(0, b"\xa5" * 4096, SimClock())
        d.write(MB - 4096, b"\x5a" * 4096, SimClock())
        # A view handed out before the loss aliases the live array, so
        # it must observe the zeroing rather than stale bytes.
        view, _, _ = d.read_view(MB - 4096, 4096, SimClock(1.0))
        d.power_loss()
        assert bytes(view) == bytes(4096)
        d.power_restore()
        whole, _, _ = d.read_view(0, MB, SimClock(2.0))
        assert bytes(whole) == bytes(MB)

    def test_stats_accumulate(self):
        d = DRAM(MB)
        d.write(0, b"ab", SimClock())
        d.read(0, 2, SimClock(1.0))
        assert d.stats.writes == 1
        assert d.stats.reads == 1
        assert d.stats.bytes_written == 2

    def test_idle_energy_accrues(self):
        d = DRAM(MB)
        d.accrue_idle(100.0)
        assert d.idle_energy_joules > 0


class TestDiskMechanics:
    def test_read_back(self):
        disk = MagneticDisk(20 * MB)
        disk.write(12345, b"spinning rust", SimClock())
        data, _, _ = disk.read(12345, 13, SimClock(1.0))
        assert data == b"spinning rust"

    def test_unwritten_reads_zero(self):
        disk = MagneticDisk(20 * MB)
        data, _, _ = disk.read(5 * MB, 8, SimClock())
        assert data == b"\x00" * 8

    def test_seek_time_grows_with_distance(self):
        disk = MagneticDisk(20 * MB)
        near = disk.seek_time(0, 1)
        far = disk.seek_time(0, disk.cylinders - 1)
        assert far > near > 0

    def test_no_seek_same_cylinder(self):
        disk = MagneticDisk(20 * MB)
        assert disk.seek_time(10, 10) == 0.0

    def test_random_io_dominated_by_positioning(self):
        disk = MagneticDisk(20 * MB)
        clock = SimClock()
        disk.read(0, 512, clock)
        clock.advance(0.01)
        far = disk.read(19 * MB, 512, clock)[1]
        # Transfer of 512 B takes ~0.5 ms; positioning is 10x that.
        assert far > 0.010

    def test_sequential_faster_than_random(self):
        disk = MagneticDisk(20 * MB)
        disk.read(0, 512, SimClock())
        seq = disk.read(512, 512, SimClock(0.1))[1]
        disk2 = MagneticDisk(20 * MB)
        disk2.read(0, 512, SimClock())
        rand = disk2.read(18 * MB, 512, SimClock(0.1))[1]
        assert seq < rand


class TestDiskPower:
    def test_spin_up_after_idle_timeout(self):
        disk = MagneticDisk(20 * MB)
        disk.read(0, 512, SimClock())
        wait = disk.read(0, 512, SimClock(100.0))[2]  # long idle gap -> spun down
        assert wait == pytest.approx(disk.spec.spin_up_s)
        assert disk.stats.spin_ups >= 1

    def test_no_spin_up_when_busy(self):
        disk = MagneticDisk(20 * MB)
        clock = SimClock()
        disk.read(0, 512, clock)
        clock.advance(0.5)
        assert disk.read(1024, 512, clock)[2] == 0.0

    def test_idle_energy_split_spinning_then_standby(self):
        disk = MagneticDisk(20 * MB)
        disk.read(0, 512, SimClock())
        before = disk.idle_energy_joules
        disk.read(0, 512, SimClock(1000.0))
        accrued = disk.idle_energy_joules - before
        # Mostly standby power over ~1000 s, far below spinning power.
        spinning_only = 1000.0 * disk.spec.idle_power_w
        assert accrued < spinning_only / 5

    def test_fujitsu_spec_loads(self):
        disk = MagneticDisk(45 * MB, spec=DISK_FUJITSU_M2633)
        assert disk.spec.rpm == 3600

    def test_kittyhawk_is_default(self):
        disk = MagneticDisk(20 * MB)
        assert disk.spec is DISK_HP_KITTYHAWK
