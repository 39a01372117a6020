"""Accounting-only charge APIs must be indistinguishable from real I/O.

The buffer cache, write buffer, and metadata paths replaced ghost-buffer
device accesses with ``charge_read``/``charge_write``.  That substitution
is only legitimate if, for every device, a charge produces the *same*
AccessResult and the *same* stats deltas as the data-moving operation it
stands in for -- while leaving stored bytes untouched.
"""

from __future__ import annotations

import pytest

from repro.devices.disk import MagneticDisk
from repro.devices.dram import DRAM, MAX_SHARED_RESULTS
from repro.devices.errors import OutOfRangeError, PowerLossError
from repro.devices.flash import FlashMemory

MB = 1024 * 1024


def _results_equal(a, b):
    return a.latency == b.latency and a.energy == b.energy and a.wait == b.wait


class TestDramCharges:
    def test_charge_read_matches_read(self):
        real, ghost = DRAM(1 * MB), DRAM(1 * MB)
        _, r = real.read(4096, 8192, now=0.0)
        c = ghost.charge_read(8192, now=0.0, offset=4096)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_write(self):
        real, ghost = DRAM(1 * MB), DRAM(1 * MB)
        r = real.write(0, b"\xaa" * 4096, now=0.0)
        c = ghost.charge_write(4096, now=0.0)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_leaves_contents_untouched(self):
        dram = DRAM(64 * 1024)
        dram.write(0, b"\x55" * 128, now=0.0)
        dram.charge_write(128, now=0.0, offset=0)
        data, _ = dram.read(0, 128, now=0.0)
        assert data == b"\x55" * 128

    def test_read_view_is_zero_copy_and_timed(self):
        dram = DRAM(64 * 1024)
        dram.write(256, b"\x11" * 64, now=0.0)
        view, r = dram.read_view(256, 64, now=0.0)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"\x11" * 64
        # Zero-copy: the view aliases the live array, so a later write
        # through the device shows up in the existing view.
        dram.write(256, b"\x22" * 64, now=0.0)
        assert bytes(view) == b"\x22" * 64
        # Timing and stats identical to a copying read.
        other = DRAM(64 * 1024)
        _, r2 = other.read(256, 64, now=0.0)
        assert _results_equal(r, r2)


class TestFlashCharges:
    def test_charge_read_matches_read(self):
        real, ghost = FlashMemory(1 * MB, banks=2), FlashMemory(1 * MB, banks=2)
        _, r = real.read(0, 4096, now=0.0)
        c = ghost.charge_read(4096, now=0.0, offset=0)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_program(self):
        real, ghost = FlashMemory(1 * MB, banks=2), FlashMemory(1 * MB, banks=2)
        r = real.write(0, b"\xab" * 4096, now=0.0)
        c = ghost.charge_write(4096, now=0.0, offset=0)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_does_not_consume_erased_bytes(self):
        flash = FlashMemory(1 * MB, banks=2)
        flash.charge_write(4096, now=0.0, offset=0)
        # The range was never programmed, so a real program still works.
        flash.write(0, b"\xcd" * 4096, now=10.0)
        data, _ = flash.read(0, 4096, now=20.0)
        assert data == b"\xcd" * 4096

    def test_charge_occupies_bank(self):
        flash = FlashMemory(1 * MB, banks=2)
        first = flash.charge_write(4096, now=0.0, offset=0)
        # Immediately issuing against the same bank queues behind it.
        second = flash.charge_write(4096, now=0.0, offset=4096)
        assert second.wait > 0.0
        assert second.latency >= first.latency


class TestDiskCharges:
    def test_charge_read_matches_read(self):
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        _, r = real.read(1 * MB, 4096, now=0.0)
        c = ghost.charge_read(4096, now=0.0, offset=1 * MB)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_write(self):
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        r = real.write(2 * MB, b"\x77" * 4096, now=0.0)
        c = ghost.charge_write(4096, now=0.0, offset=2 * MB)
        assert _results_equal(r, c)
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_moves_the_head(self):
        # Accounting-only accesses still update mechanical state: two
        # identical disks issued the same offsets must agree on the
        # latency of the *next* access whether the first was real or not.
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        real.read(4 * MB, 4096, now=0.0)
        ghost.charge_read(4096, now=0.0, offset=4 * MB)
        _, r = real.read(0, 4096, now=1.0)
        c = ghost.charge_read(4096, now=1.0, offset=0)
        assert _results_equal(r, c)


class TestDramSharedResults:
    """DRAM reuses one AccessResult per (direction, size); nothing else may change."""

    SIZES = (0, 1, 64, 128, 4096, 8192, 65536)

    def test_reused_result_matches_fresh_computation(self):
        dram = DRAM(1 * MB)
        spec = dram.spec
        for nbytes in self.SIZES:
            for charge, overhead, per_byte, power in (
                (dram.charge_read, spec.read_overhead_s, spec.read_per_byte_s,
                 spec.active_read_power_w),
                (dram.charge_write, spec.write_overhead_s, spec.write_per_byte_s,
                 spec.active_write_power_w),
            ):
                first = charge(nbytes, now=0.0)
                again = charge(nbytes, now=1.0, offset=1024)
                assert again is first
                latency = overhead + per_byte * nbytes
                assert again.latency == latency
                assert again.energy == power * latency
                assert again.wait == 0.0

    def test_shared_result_equals_data_moving_ops(self):
        warm, fresh = DRAM(1 * MB), DRAM(1 * MB)
        for nbytes in self.SIZES:
            warm.charge_read(nbytes, now=0.0)
            warm.charge_write(nbytes, now=0.0)
            _, r = fresh.read(0, nbytes, now=0.0)
            assert _results_equal(warm.charge_read(nbytes, now=0.0), r)
            w = fresh.write(0, b"\x5a" * nbytes, now=0.0)
            assert _results_equal(warm.charge_write(nbytes, now=0.0), w)

    def test_shared_table_is_bounded_and_other_sizes_stay_exact(self):
        dram = DRAM(1 * MB)
        spec = dram.spec
        sizes = range(1, 3 * MAX_SHARED_RESULTS)
        for _ in range(2):
            for nbytes in sizes:
                result = dram.charge_write(nbytes, now=0.0)
                latency = spec.write_overhead_s + spec.write_per_byte_s * nbytes
                assert result.latency == latency
                assert result.energy == spec.active_write_power_w * latency
        assert len(dram._write_results) == MAX_SHARED_RESULTS

    def test_unpowered_dram_still_raises_on_charge(self):
        dram = DRAM(64 * 1024)
        dram.charge_read(4096, now=0.0)
        dram.charge_write(4096, now=0.0)
        dram.power_loss()
        with pytest.raises(PowerLossError):
            dram.charge_read(4096, now=1.0)
        with pytest.raises(PowerLossError):
            dram.charge_write(4096, now=1.0)
        with pytest.raises(PowerLossError):
            dram.read(0, 4096, now=1.0)
        dram.power_restore()
        assert dram.charge_read(4096, now=2.0).latency > 0.0

    def test_out_of_range_still_raises_on_charge(self):
        dram = DRAM(64 * 1024)
        dram.charge_read(4096, now=0.0)
        dram.charge_write(4096, now=0.0)
        with pytest.raises(OutOfRangeError):
            dram.charge_read(4096, now=0.0, offset=64 * 1024 - 100)
        with pytest.raises(OutOfRangeError):
            dram.charge_write(4096, now=0.0, offset=-1)
        with pytest.raises(OutOfRangeError):
            dram.charge_read(128 * 1024, now=0.0)

    def test_stats_totals_equal_per_call_sums(self):
        dram = DRAM(1 * MB)
        reads = writes = bytes_read = bytes_written = 0
        busy = energy = 0.0
        for i in range(200):
            nbytes = self.SIZES[i % len(self.SIZES)]
            if i % 3:
                result = dram.charge_read(nbytes, now=float(i))
                reads += 1
                bytes_read += nbytes
            else:
                result = dram.charge_write(nbytes, now=float(i))
                writes += 1
                bytes_written += nbytes
            busy += result.latency - result.wait
            energy += result.energy
        stats = dram.stats
        assert (stats.reads, stats.writes) == (reads, writes)
        assert (stats.bytes_read, stats.bytes_written) == (bytes_read, bytes_written)
        assert stats.busy_time == busy
        assert stats.energy_joules == energy
        assert stats.wait_time == 0.0
