"""Accounting-only charge APIs must be indistinguishable from real I/O.

The buffer cache, write buffer, and metadata paths replaced ghost-buffer
device accesses with ``charge_read``/``charge_write``.  That substitution
is only legitimate if, for every device, a charge costs the *same*
latency and energy and makes the *same* stats deltas as the data-moving
operation it stands in for -- while leaving stored bytes untouched.
Every access takes the caller's clock and advances it by its latency.
A DRAM charge returns nothing; every other access, charge or not,
returns ``(latency, wait)`` (after a read's bytes).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.devices.catalog import DISK_HP_KITTYHAWK, DRAM_NEC_LOW_POWER, FLASH_PAPER_NOMINAL
from repro.devices.disk import MagneticDisk
from repro.devices.dram import DRAM
from repro.devices.flash import FlashMemory
from repro.sim.clock import SimClock

MB = 1024 * 1024


class TestDramCharges:
    def test_charge_read_matches_read(self):
        real, ghost = DRAM(1 * MB), DRAM(1 * MB)
        real_clock, clock = SimClock(), SimClock()
        _, latency, wait = real.read(4096, 8192, real_clock)
        assert ghost.charge_read(8192, clock, offset=4096) is None
        assert clock.now == real_clock.now == latency
        assert wait == 0.0
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_write(self):
        real, ghost = DRAM(1 * MB), DRAM(1 * MB)
        real_clock, clock = SimClock(), SimClock()
        latency, wait = real.write(0, b"\xaa" * 4096, real_clock)
        assert ghost.charge_write(4096, clock) is None
        assert clock.now == real_clock.now == latency
        assert wait == 0.0
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_leaves_contents_untouched(self):
        dram = DRAM(64 * 1024)
        dram.write(0, b"\x55" * 128, SimClock())
        dram.charge_write(128, SimClock(), offset=0)
        data, _, _ = dram.read(0, 128, SimClock())
        assert data == b"\x55" * 128

    def test_read_view_is_zero_copy_and_timed(self):
        dram = DRAM(64 * 1024)
        dram.write(256, b"\x11" * 64, SimClock())
        clock = SimClock()
        view, latency, wait = dram.read_view(256, 64, clock)
        assert isinstance(view, memoryview)
        assert bytes(view) == b"\x11" * 64
        # Zero-copy: the view aliases the live array, so a later write
        # through the device shows up in the existing view.
        dram.write(256, b"\x22" * 64, SimClock())
        assert bytes(view) == b"\x22" * 64
        # Timing identical to a copying read.
        other, other_clock = DRAM(64 * 1024), SimClock()
        assert other.read(256, 64, other_clock)[1:] == (latency, wait)
        assert other_clock.now == clock.now == latency

    @pytest.mark.parametrize("field", [
        "read_overhead_s", "read_per_byte_s", "active_read_power_w",
        "write_overhead_s", "write_per_byte_s", "active_write_power_w",
    ])
    def test_negative_spec_cost_is_rejected_at_construction(self, field):
        with pytest.raises(ValueError):
            DRAM(MB, spec=dataclasses.replace(DRAM_NEC_LOW_POWER, **{field: -1e-12}))
        # Zero is a valid cost.
        dram = DRAM(MB, spec=dataclasses.replace(DRAM_NEC_LOW_POWER, **{field: 0.0}))
        dram.charge_read(64, SimClock())
        dram.charge_write(64, SimClock())


class TestFlashCharges:
    @pytest.mark.parametrize("field", [
        "read_overhead_s", "read_per_byte_s", "active_read_power_w",
        "write_overhead_s", "write_per_byte_s", "active_write_power_w",
        "erase_latency_s",
    ])
    def test_negative_spec_cost_is_rejected_at_construction(self, field):
        with pytest.raises(ValueError):
            FlashMemory(MB, spec=dataclasses.replace(FLASH_PAPER_NOMINAL, **{field: -1e-12}))
        # Zero is a valid cost.
        flash = FlashMemory(MB, spec=dataclasses.replace(FLASH_PAPER_NOMINAL, **{field: 0.0}))
        clock = SimClock()
        flash.program(0, b"\x01" * 64, clock)
        flash.read(0, 64, clock)
        flash.erase_sector(0, clock)

    def test_charge_read_matches_read(self):
        real, ghost = FlashMemory(1 * MB, banks=2), FlashMemory(1 * MB, banks=2)
        real_clock, ghost_clock = SimClock(), SimClock()
        _, latency, wait = real.read(0, 4096, real_clock)
        assert ghost.charge_read(4096, ghost_clock, offset=0) == (latency, wait)
        assert real_clock.now == ghost_clock.now == latency
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_program(self):
        real, ghost = FlashMemory(1 * MB, banks=2), FlashMemory(1 * MB, banks=2)
        real_clock, ghost_clock = SimClock(), SimClock()
        result = real.write(0, b"\xab" * 4096, real_clock)
        assert ghost.charge_write(4096, ghost_clock, offset=0) == result
        assert real_clock.now == ghost_clock.now == result[0]
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_does_not_consume_erased_bytes(self):
        flash = FlashMemory(1 * MB, banks=2)
        flash.charge_write(4096, SimClock(), offset=0)
        # The range was never programmed, so a real program still works.
        flash.write(0, b"\xcd" * 4096, SimClock(10.0))
        data, _, _ = flash.read(0, 4096, SimClock(20.0))
        assert data == b"\xcd" * 4096

    def test_charge_occupies_bank(self):
        flash = FlashMemory(1 * MB, banks=2)
        first_latency, _ = flash.charge_write(4096, SimClock(), offset=0)
        # Immediately issuing against the same bank queues behind it.
        latency, wait = flash.charge_write(4096, SimClock(), offset=4096)
        assert wait > 0.0
        assert latency >= first_latency


class TestDiskCharges:
    @pytest.mark.parametrize("field", [
        "read_overhead_s", "write_overhead_s",
        "active_read_power_w", "active_write_power_w", "spin_up_power_w",
        "spin_up_s", "track_to_track_seek_s", "max_seek_s", "avg_seek_s", "rpm",
    ])
    def test_negative_spec_cost_is_rejected_at_construction(self, field):
        # max_seek_s falls back to twice avg_seek_s only when it is unset.
        base = DISK_HP_KITTYHAWK
        if field == "avg_seek_s":
            base = dataclasses.replace(base, max_seek_s=None)
        with pytest.raises(ValueError):
            MagneticDisk(8 * MB, spec=dataclasses.replace(base, **{field: -1e-12}))
        # Zero is a valid cost.
        disk = MagneticDisk(8 * MB, spec=dataclasses.replace(base, **{field: 0}))
        clock = SimClock()
        disk.write(4 * MB, b"\x01" * 64, clock)
        disk.read(0, 64, clock)
        disk.charge_read(64, SimClock(100.0))
        assert disk.stats.busy_time >= 0.0 and disk.stats.energy_joules >= 0.0

    @pytest.mark.parametrize("rate", [0, 0.0, -1.0, None])
    def test_non_positive_transfer_rate_is_rejected_at_construction(self, rate):
        with pytest.raises(ValueError):
            MagneticDisk(
                8 * MB, spec=dataclasses.replace(DISK_HP_KITTYHAWK, transfer_bytes_per_s=rate)
            )

    def test_charge_read_matches_read(self):
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        real_clock, ghost_clock = SimClock(), SimClock()
        _, latency, wait = real.read(1 * MB, 4096, real_clock)
        assert ghost.charge_read(4096, ghost_clock, offset=1 * MB) == (latency, wait)
        assert real_clock.now == ghost_clock.now == latency
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_write_matches_write(self):
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        real_clock, ghost_clock = SimClock(), SimClock()
        result = real.write(2 * MB, b"\x77" * 4096, real_clock)
        assert ghost.charge_write(4096, ghost_clock, offset=2 * MB) == result
        assert real_clock.now == ghost_clock.now == result[0]
        assert real.stats.snapshot() == ghost.stats.snapshot()

    def test_charge_moves_the_head(self):
        # Accounting-only accesses still update mechanical state: two
        # identical disks issued the same offsets must agree on the
        # latency of the *next* access whether the first was real or not.
        real, ghost = MagneticDisk(8 * MB), MagneticDisk(8 * MB)
        real.read(4 * MB, 4096, SimClock())
        ghost.charge_read(4096, SimClock(), offset=4 * MB)
        _, latency, wait = real.read(0, 4096, SimClock(1.0))
        assert ghost.charge_read(4096, SimClock(1.0), offset=0) == (latency, wait)
