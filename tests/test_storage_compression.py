"""Unit tests for flash compression."""

import pytest

from repro.core import MobileComputer, Organization, SystemConfig
from repro.devices import CPU, FlashMemory
from repro.sim import SimClock
from repro.storage import BlockCompressor

from tests._storage import build_manager

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def compressor():
    return BlockCompressor(SimClock(), CPU())


class TestBlockCompressor:
    def test_roundtrip_compressible(self, compressor):
        data = b"pattern " * 512
        blob = compressor.encode(data)
        assert len(blob) < len(data)
        assert compressor.decode(blob) == data

    def test_roundtrip_incompressible(self, compressor):
        import os

        data = os.urandom(2048)
        blob = compressor.encode(data)
        assert len(blob) <= len(data) + 6  # header only
        assert compressor.decode(blob) == data
        assert compressor.stats.counter("blocks_stored_raw").value == 1

    def test_empty_rejected(self, compressor):
        with pytest.raises(ValueError):
            compressor.encode(b"")

    def test_garbage_blob_rejected(self, compressor):
        with pytest.raises(ValueError):
            compressor.decode(b"XX\x00\x00\x00\x00junk")
        with pytest.raises(ValueError):
            compressor.decode(b"abc")

    def test_cpu_time_charged(self):
        clock = SimClock()
        cpu = CPU()
        BlockCompressor(clock, cpu).encode(b"z" * 100_000)
        assert clock.now == pytest.approx(100_000 / BlockCompressor.compress_bytes_per_s)
        assert cpu.stats.busy_time == clock.now

    def test_space_ratio(self, compressor):
        compressor.encode(b"a" * 10_000)
        assert compressor.space_ratio() < 0.1

    def test_invalid_spec(self):
        # Positive throughputs, and a level zlib accepts.
        assert BlockCompressor.compress_bytes_per_s > 0
        assert BlockCompressor.decompress_bytes_per_s > 0
        assert 1 <= BlockCompressor.level <= 9


class TestCompressedManager:
    def make(self):
        clock = SimClock()
        flash = FlashMemory(4 * MB, banks=2)
        compressor = BlockCompressor(clock, CPU())
        manager = build_manager(
            clock, flash, buffer_bytes=32 * KB, compressor=compressor
        )
        return manager, flash

    def test_flash_traffic_shrinks(self):
        manager, flash = self.make()
        manager.write_block("k", b"text " * 800)  # 4000 compressible bytes
        manager.sync()
        assert flash.stats.bytes_written < 1000  # plus summary/overheads
        assert manager.read_block("k") == b"text " * 800

    def test_read_through_buffer_skips_decode(self):
        manager, _flash = self.make()
        manager.write_block("k", b"buffered")
        assert manager.read_block("k") == b"buffered"  # buffer hit, raw

    def test_machine_with_compression(self):
        machine = MobileComputer(
            SystemConfig(
                organization=Organization.SOLID_STATE,
                dram_bytes=4 * MB,
                flash_bytes=8 * MB,
                compress_flash=True,
            )
        )
        report, metrics = machine.run_workload("pim", duration_s=30.0)
        assert report.errors == 0
        assert machine.manager.compressor.space_ratio() < 1.0
        # Compressed flash bytes land under the raw bytes the FS wrote.
        flushed = machine.manager.buffer.stats.counter("flushed_bytes").value
        if flushed:
            assert metrics.flash_bytes_programmed < flushed

    def test_mmap_falls_back_with_compression(self):
        machine = MobileComputer(
            SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB, compress_flash=True)
        )
        data = b"M" * (2 * 4096)
        machine.fs.write_file("/m", data)
        machine.fs.sync()
        handle = machine.fs.open("/m")
        assert handle.flash_location(0) is None  # no direct map of encoded bytes
        space = machine.vm.create_space("p")
        mapping = machine.mmap.map_file(space, handle, handle.nblocks)
        assert mapping.direct_pages == 0
        assert machine.vm.read(space, mapping.vaddr, len(data)) == data

    def test_recovery_with_compression(self):
        machine = MobileComputer(
            SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB, compress_flash=True)
        )
        machine.fs.write_file("/doc", b"durable " * 1000)
        machine.fs.checkpoint()
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert report.checkpoint_found
        assert machine.fs.read_file("/doc") == b"durable " * 1000
