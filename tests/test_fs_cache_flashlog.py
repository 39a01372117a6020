"""Unit tests for the buffer cache and the flash block devices (FTLs)."""

import pytest

from repro.devices import DRAM, FlashMemory, MagneticDisk
from repro.fs import (
    BufferCache,
    DiskBlockDevice,
    EraseInPlaceFlashBlockDevice,
    LogStructuredFTL,
)
from repro.fs.cache import SYNC_INTERVAL_S
from repro.sim import Engine, SimClock
from repro.storage import FlashStore

MB = 1024 * 1024
BLOCK = 4096


def make_cache(capacity_blocks=4):
    clock = SimClock()
    disk = MagneticDisk(8 * MB)
    device = DiskBlockDevice(disk, clock)
    cache = BufferCache(device, clock, capacity_blocks, dram=DRAM(1 * MB))
    return cache, device, clock


class TestBufferCache:
    def test_read_miss_then_hit(self):
        cache, device, _clock = make_cache()
        device.write_block(5, b"\x07" * BLOCK)
        assert cache.read(5) == b"\x07" * BLOCK  # miss
        assert cache.read(5) == b"\x07" * BLOCK  # hit
        assert cache.stats.counter("misses").value == 1
        assert cache.stats.counter("hits").value == 1

    def test_write_back_not_through(self):
        cache, device, _clock = make_cache()
        writes_before = device.disk.stats.writes
        cache.write(3, b"\x01" * BLOCK)
        assert device.disk.stats.writes == writes_before  # not yet on disk
        cache.flush()
        assert device.disk.stats.writes == writes_before + 1

    def test_lru_eviction_writes_dirty(self):
        cache, device, _clock = make_cache(capacity_blocks=2)
        cache.write(1, b"\x01" * BLOCK)
        cache.write(2, b"\x02" * BLOCK)
        cache.write(3, b"\x03" * BLOCK)  # evicts block 1 (dirty)
        assert cache.stats.counter("dirty_evictions").value == 1
        assert device.read_block(1) == b"\x01" * BLOCK

    def test_hit_refreshes_lru(self):
        cache, _device, _clock = make_cache(capacity_blocks=2)
        cache.write(1, b"\x01" * BLOCK)
        cache.write(2, b"\x02" * BLOCK)
        cache.read(1)  # 1 is now most recent
        cache.write(3, b"\x03" * BLOCK)  # should evict 2, not 1
        assert 1 in cache._blocks
        assert 2 not in cache._blocks

    def test_periodic_sync_timer(self):
        engine = Engine()
        disk = MagneticDisk(8 * MB)
        device = DiskBlockDevice(disk, engine.clock)
        cache = BufferCache(device, engine.clock, 8)
        engine.schedule_every(SYNC_INTERVAL_S, cache.flush, name="bcache-sync")
        cache.write(0, b"\x0a" * BLOCK)
        engine.run_until(29.0)
        assert cache.dirty_blocks == 1
        engine.run_until(31.0)
        assert cache.dirty_blocks == 0

    def test_crash_loses_dirty(self):
        cache, device, _clock = make_cache()
        cache.write(7, b"\x07" * BLOCK)
        assert cache.crash() == 1
        assert device.read_block(7) == bytes(BLOCK)

    def test_partial_write_rejected(self):
        cache, _device, _clock = make_cache()
        with pytest.raises(ValueError):
            cache.write(0, b"short")

    def test_hit_ratio(self):
        cache, device, _clock = make_cache()
        device.write_block(0, bytes(BLOCK))
        cache.read(0)
        cache.read(0)
        cache.read(0)
        assert cache.hit_ratio() == pytest.approx(2 / 3)


def _record_device_writes(device):
    """Wrap ``device.write_block`` to log the exact objects it receives."""
    written = []
    original = device.write_block

    def write_block(lba, data):
        written.append((lba, data))
        original(lba, data)

    device.write_block = write_block
    return written


class TestBufferCacheAliasing:
    """The cache keeps caller objects, so it must never alias mutable ones."""

    def test_mutating_written_bytearray_leaves_cache_unchanged(self):
        cache, _device, _clock = make_cache()
        buf = bytearray(b"\x01" * BLOCK)
        cache.write(2, buf)
        buf[:] = b"\xff" * BLOCK
        assert cache.read(2) == b"\x01" * BLOCK

    def test_mutating_rewritten_bytearray_leaves_cache_unchanged(self):
        cache, _device, _clock = make_cache()
        cache.write(2, b"\x01" * BLOCK)
        buf = bytearray(b"\x02" * BLOCK)
        cache.write(2, buf)  # resident block: the replace path
        buf[0] = 0xFF
        assert cache.read(2) == b"\x02" * BLOCK

    def test_read_returns_immutable_bytes(self):
        cache, device, _clock = make_cache()
        device.write_block(5, b"\x07" * BLOCK)
        miss = cache.read(5)
        hit = cache.read(5)
        assert type(miss) is bytes and type(hit) is bytes
        cache.write(6, bytearray(BLOCK))
        assert type(cache.read(6)) is bytes

    def test_hit_returns_the_cached_object(self):
        cache, _device, _clock = make_cache()
        data = b"\x03" * BLOCK
        cache.write(1, data)
        assert cache.read(1) is data
        assert cache.read(1) is cache.read(1)

    def test_dirty_eviction_writes_exactly_the_cached_bytes(self):
        cache, device, _clock = make_cache(capacity_blocks=1)
        buf = bytearray(b"\x0a" * BLOCK)
        cache.write(1, buf)
        cached = cache.read(1)
        buf[:] = bytes(BLOCK)  # must not reach the device
        written = _record_device_writes(device)
        cache.write(2, b"\x0b" * BLOCK)  # evicts dirty block 1
        assert written == [(1, b"\x0a" * BLOCK)]
        assert written[0][1] is cached
        assert device.read_block(1) == b"\x0a" * BLOCK

    def test_flush_writes_exactly_the_cached_bytes(self):
        cache, device, _clock = make_cache()
        first, second = bytearray(b"\x01" * BLOCK), b"\x02" * BLOCK
        cache.write(1, first)
        cache.write(2, second)
        cached = {lba: cache.read(lba) for lba in (1, 2)}
        first[:] = bytes(BLOCK)
        written = _record_device_writes(device)
        assert cache.flush() == 2
        assert sorted(lba for lba, _ in written) == [1, 2]
        for lba, data in written:
            assert data is cached[lba]
            assert device.read_block(lba) == cached[lba]
        assert cached == {1: b"\x01" * BLOCK, 2: b"\x02" * BLOCK}


class TestEraseInPlaceDevice:
    def make(self, banks=1):
        clock = SimClock()
        flash = FlashMemory(4 * MB, banks=banks)
        return EraseInPlaceFlashBlockDevice(flash, clock), flash

    def test_roundtrip(self):
        dev, _flash = self.make()
        dev.write_block(3, b"\x33" * BLOCK)
        assert dev.read_block(3) == b"\x33" * BLOCK

    def test_overwrite_costs_erase(self):
        dev, flash = self.make()
        dev.write_block(3, b"\x01" * BLOCK)
        erases = flash.total_erases
        dev.write_block(3, b"\x02" * BLOCK)
        assert flash.total_erases == erases + 1
        assert dev.read_block(3) == b"\x02" * BLOCK

    def test_unwritten_block_reads_erased(self):
        dev, _flash = self.make()
        assert dev.read_block(10) == b"\xff" * BLOCK

    def test_neighbor_blocks_preserved_with_large_sectors(self):
        from repro.devices.catalog import FLASH_INTEL_SERIES2

        clock = SimClock()
        flash = FlashMemory(4 * MB, spec=FLASH_INTEL_SERIES2, banks=1)  # 64 KB sectors
        dev = EraseInPlaceFlashBlockDevice(flash, clock)
        # Blocks 0..15 share one erase sector.
        dev.write_block(0, b"\x01" * BLOCK)
        dev.write_block(1, b"\x02" * BLOCK)
        dev.write_block(0, b"\x03" * BLOCK)  # read-modify-erase-program
        assert dev.read_block(1) == b"\x02" * BLOCK
        assert dev.read_block(0) == b"\x03" * BLOCK


class TestLogStructuredFTL:
    def make(self):
        clock = SimClock()
        flash = FlashMemory(4 * MB, banks=2)
        store = FlashStore(flash, clock)
        return LogStructuredFTL(store), flash

    def test_roundtrip(self):
        ftl, _flash = self.make()
        ftl.write_block(9, b"\x09" * BLOCK)
        assert ftl.read_block(9) == b"\x09" * BLOCK

    def test_unwritten_reads_zero(self):
        ftl, _flash = self.make()
        assert ftl.read_block(100) == bytes(BLOCK)

    def test_overwrite_without_erase(self):
        ftl, flash = self.make()
        ftl.write_block(1, b"\x01" * BLOCK)
        erases = flash.total_erases
        ftl.write_block(1, b"\x02" * BLOCK)
        assert flash.total_erases == erases  # logging hides the erase
        assert ftl.read_block(1) == b"\x02" * BLOCK

    def test_exported_capacity_is_overprovisioned(self):
        ftl, flash = self.make()
        assert ftl.nblocks * BLOCK < flash.capacity_bytes

    def test_trim(self):
        ftl, _flash = self.make()
        ftl.write_block(4, b"\x04" * BLOCK)
        ftl.trim(4)
        assert ftl.read_block(4) == bytes(BLOCK)

    def test_sustained_overwrites_trigger_cleaning(self):
        ftl, flash = self.make()
        for i in range(1500):
            ftl.write_block(i % 8, bytes([i % 256]) * BLOCK)
        assert ftl.store.stats.value("erases") > 0
        for i in range(8):
            assert len(ftl.read_block(i)) == BLOCK
        ftl.store.allocator.check_invariants()


def _block_devices():
    return {
        "disk": lambda: DiskBlockDevice(MagneticDisk(MB), SimClock(), nblocks=8),
        "eip": lambda: EraseInPlaceFlashBlockDevice(FlashMemory(64 * 1024), SimClock()),
        "ftl": lambda: LogStructuredFTL(FlashStore(FlashMemory(MB), SimClock())),
    }


class TestBlockDeviceChecksAndTallies:
    """``read_block``/``write_block`` range-check inline: a bad LBA or a
    wrong-size write raises with the same message on every device."""

    @pytest.mark.parametrize("name", sorted(_block_devices()))
    def test_bad_lba_and_bad_size_raise_before_tallying(self, name):
        device = _block_devices()[name]()
        n = device.nblocks
        for lba in (-1, n, n + 5):
            with pytest.raises(ValueError, match=rf"LBA {lba} outside \[0, {n}\)"):
                device.read_block(lba)
            with pytest.raises(ValueError, match="LBA"):
                device.write_block(lba, b"\x00" * BLOCK)
        with pytest.raises(ValueError, match="exactly"):
            device.write_block(0, b"\x00" * (BLOCK - 1))
