"""Unit tests for checkpoint internals and metrics plumbing."""

import dataclasses
import math

import pytest

from repro.core import MobileComputer, Organization, SystemConfig
from repro.devices import FlashMemory
from repro.fs.memfs import CHECKPOINT_ROOT_KEY, MemoryFileSystem
from repro.sim import SimClock
from repro.storage import StorageManager

from tests._storage import build_manager

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def fs():
    clock = SimClock()
    flash = FlashMemory(16 * MB, banks=2)
    manager = build_manager(clock, flash, buffer_bytes=256 * KB)
    return MemoryFileSystem(manager, manager.buffer.dram)


def _blocks_in_flash(fs, path):
    """Per block of the file: does a stable copy live in flash?"""
    node = fs._file_inode(path)
    return [fs.manager.store.contains(("data", node.ino, i)) for i in node.blocks]


class TestCheckpointMechanics:
    def test_generation_increments(self, fs):
        assert fs.checkpoint() == 1
        assert fs.checkpoint() == 2
        assert fs.checkpoint() == 3

    def test_checkpoint_flushes_buffer_first(self, fs):
        fs.write_file("/f", b"dirty" * 100)
        fs.checkpoint()
        assert fs.manager.buffer.buffered_bytes == 0
        assert all(_blocks_in_flash(fs, "/f"))

    def test_old_generation_chunks_deleted(self, fs):
        for i in range(40):
            fs.write_file(f"/f{i}", b"x")
        fs.checkpoint()
        fs.checkpoint()
        meta_keys = [
            k
            for k in fs.manager.store.keys()
            if isinstance(k, tuple) and k[0] == "meta"
        ]
        generations = {k[1] for k in meta_keys}
        assert generations == {2}, "stale checkpoint chunks must be deleted"

    def test_root_key_updated(self, fs):
        import json

        fs.checkpoint()
        fs.write_file("/new", b"n")
        gen = fs.checkpoint()
        root = json.loads(fs.manager.store.read_block(CHECKPOINT_ROOT_KEY))
        assert root["generation"] == gen

    def test_large_namespace_multi_chunk(self, fs):
        for i in range(300):
            fs.write_file(f"/file-with-a-long-name-{i:04d}", bytes([i % 256]) * 64)
        gen = fs.checkpoint()
        chunks = [
            k
            for k in fs.manager.store.keys()
            if isinstance(k, tuple) and k[0] == "meta" and k[1] == gen
        ]
        assert len(chunks) > 1  # the image genuinely spans chunks
        # And it round-trips.
        from repro.storage import FlashStore

        recovered_store = FlashStore.recover(fs.manager.store.flash, fs.clock)
        manager2 = StorageManager(
            fs.clock, recovered_store, fs.manager.buffer.__class__(256 * KB, fs.clock, fs.dram)
        )
        fs2, report = MemoryFileSystem.recover(manager2, fs.dram)
        assert report.files == 300
        assert fs2.read_file("/file-with-a-long-name-0123") == bytes([123]) * 64

    def test_checkpoint_stats_counted(self, fs):
        fs.checkpoint()
        assert fs.stats.counter("checkpoints").value == 1
        assert fs.stats.counter("checkpoint_bytes").value > 0


class TestMetricsPlumbing:
    def test_snapshot_keys_complete(self):
        machine = MobileComputer(
            SystemConfig(dram_bytes=4 * MB, flash_bytes=8 * MB)
        )
        _report, metrics = machine.run_workload("pim", duration_s=20.0)
        snap = dataclasses.asdict(metrics)
        for key in (
            "organization",
            "mean_write_latency",
            "write_traffic_reduction",
            "energy_joules",
            "battery_fraction_remaining",
            "storage_cost_dollars",
        ):
            assert key in snap, key
        assert snap["organization"] == "solid_state"
        assert 0.0 <= snap["battery_fraction_remaining"] <= 1.0

    def test_lifetime_included_when_wear_occurs(self):
        machine = MobileComputer(
            SystemConfig(
                dram_bytes=4 * MB,
                flash_bytes=2 * MB,  # small: cleaning guaranteed
                write_buffer_bytes=0,
            )
        )
        _report, metrics = machine.run_workload("office", duration_s=60.0)
        assert metrics.flash_erases > 0
        assert metrics.lifetime is not None
        assert not math.isinf(metrics.lifetime.projected_seconds)

    def test_energy_by_device_covers_all_devices(self):
        machine = MobileComputer(
            SystemConfig(
                organization=Organization.DISK, dram_bytes=4 * MB, disk_bytes=24 * MB
            )
        )
        _report, metrics = machine.run_workload("pim", duration_s=20.0)
        devices = machine.power.devices
        assert {"dram", "disk", "cpu", "flash-programs"} <= {d.name for d in devices}
        assert metrics.energy_joules == pytest.approx(
            sum(d.total_energy_joules for d in devices), rel=1e-6
        )
