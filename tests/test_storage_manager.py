"""Unit tests for the StorageManager facade."""

import pytest

from repro.devices import DRAM, FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.sim import Engine, SimClock

from tests._storage import build_manager

KB = 1024


@pytest.fixture
def manager():
    clock = SimClock()
    flash = FlashMemory(256 * KB, spec=FLASH_PAPER_NOMINAL, banks=2)
    dram = DRAM(1024 * KB)
    return build_manager(clock, flash, dram=dram, buffer_bytes=16 * KB)


def _holds(manager, key):
    """The key is dirty in the write buffer or stored in flash."""
    return manager.buffer.is_dirty(key) or manager.store.contains(key)


class TestDataPath:
    def test_write_read_through_buffer(self, manager):
        manager.write_block("k", b"buffered")
        assert manager.read_block("k") == b"buffered"
        assert not manager.store.contains("k")  # still only in DRAM

    def test_sync_makes_stable(self, manager):
        manager.write_block("k", b"now stable")
        manager.sync()
        assert manager.store.contains("k")
        assert manager.read_block("k") == b"now stable"

    def test_delete_before_flush_avoids_flash_write(self, manager):
        manager.write_block("temp", b"t" * KB)
        manager.delete_block("temp")
        manager.sync()
        assert manager.store.stats.counter("user_bytes_written").value == 0
        assert not _holds(manager, "temp")

    def test_delete_after_flush_invalidates_flash(self, manager):
        manager.write_block("k", b"data")
        manager.sync()
        manager.delete_block("k")
        assert not _holds(manager, "k")

    def test_read_missing_raises(self, manager):
        with pytest.raises(KeyError):
            manager.read_block("ghost")

    def test_overwrites_absorbed_reduce_traffic(self, manager):
        for i in range(20):
            manager.write_block("hot", bytes([i]) * KB)
        manager.sync()
        # 20 KB written by the app, 1 KB reached flash.
        assert manager.write_traffic_reduction() == pytest.approx(0.95)


class TestTimerFlush(object):
    def test_age_flush_via_engine(self):
        engine = Engine()
        flash = FlashMemory(256 * KB, spec=FLASH_PAPER_NOMINAL)
        manager = build_manager(engine.clock, flash, buffer_bytes=64 * KB)
        manager.buffer.age_limit_s = 10.0
        engine.schedule_every(5.0, manager.flush_aged, name="writebuffer-age-flush")
        manager.write_block("k", b"will age out")
        engine.run_until(4.0)
        assert not manager.store.contains("k")
        engine.run_until(20.0)
        assert manager.store.contains("k")


class TestPowerLoss:
    def test_buffered_data_lost(self, manager):
        manager.write_block("dirty", b"d" * KB)
        lost = manager.power_loss()
        assert lost == KB
        assert not _holds(manager, "dirty")

    def test_flushed_data_survives(self, manager):
        manager.write_block("safe", b"s" * KB)
        manager.sync()
        lost = manager.power_loss()
        assert lost == 0
        assert manager.read_block("safe") == b"s" * KB

    def test_shutdown_flush_prevents_loss(self, manager):
        manager.write_block("k", b"x" * KB)
        manager.shutdown_flush()
        assert manager.power_loss() == 0
        assert manager.store.contains("k")
