"""Crash-recovery tests: flash log scan + metadata checkpoint.

The guarantee under test is the paper's reason for flash to exist at
all: after a total battery failure, everything that reached stable
storage comes back; everything that only lived in battery-backed DRAM
is lost in a *bounded and accounted* way.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import MobileComputer, Organization, SystemConfig
from repro.devices import FlashMemory
from repro.fs.memfs import CHECKPOINT_ROOT_KEY, MemoryFileSystem
from repro.obs import Tracer, runtime
from repro.sim import SimClock
from repro.storage import FlashStore, StorageManager

from tests._storage import build_manager

KB = 1024
MB = 1024 * 1024


def make_machine(**overrides):
    defaults = dict(
        organization=Organization.SOLID_STATE,
        dram_bytes=4 * MB,
        flash_bytes=16 * MB,
        program_flash_bytes=1 * MB,
    )
    defaults.update(overrides)
    return MobileComputer(SystemConfig(**defaults))


class TestStoreScanRecovery:
    """FlashStore.recover: rebuilding the index from summary areas."""

    def test_empty_device_recovers_empty(self):
        clock = SimClock()
        flash = FlashMemory(1 * MB, banks=2)
        store = FlashStore.recover(flash, clock)
        assert store.keys() == []
        assert store.allocator.free_sector_count() == flash.num_sectors

    def test_blocks_survive_scan(self):
        clock = SimClock()
        flash = FlashMemory(1 * MB, banks=2)
        store = FlashStore(flash, clock)
        blobs = {("data", i, 0): bytes([i]) * (i * 100 + 1) for i in range(20)}
        for key, blob in blobs.items():
            store.write_block(key, blob)
        # Power loss: all in-DRAM state (store object) is discarded.
        recovered = FlashStore.recover(flash, clock)
        for key, blob in blobs.items():
            assert recovered.read_block(key) == blob
        recovered.allocator.check_invariants()

    def test_newest_version_wins(self):
        clock = SimClock()
        flash = FlashMemory(1 * MB, banks=1)
        store = FlashStore(flash, clock)
        for version in range(10):
            store.write_block("k", bytes([version]) * 500)
        recovered = FlashStore.recover(flash, clock)
        assert recovered.read_block("k") == bytes([9]) * 500

    def test_recovery_survives_gc_churn(self):
        clock = SimClock()
        flash = FlashMemory(256 * KB, banks=2)
        store = FlashStore(flash, clock, free_target_sectors=2)
        model = {}
        for i in range(400):
            key = ("blk", i % 9)
            payload = bytes([i % 256]) * (1 + (i * 197) % (3 * KB))
            store.write_block(key, payload)
            model[key] = payload
        assert store.stats.value("erases") > 0
        recovered = FlashStore.recover(flash, clock, free_target_sectors=2)
        for key, payload in model.items():
            assert recovered.read_block(key) == payload
        recovered.allocator.check_invariants()

    def test_recovered_store_accepts_new_writes(self):
        clock = SimClock()
        flash = FlashMemory(256 * KB, banks=1)
        store = FlashStore(flash, clock)
        store.write_block("old", b"before crash")
        recovered = FlashStore.recover(flash, clock)
        recovered.write_block("new", b"after crash")
        recovered.write_block("old", b"updated")
        assert recovered.read_block("old") == b"updated"
        assert recovered.read_block("new") == b"after crash"
        recovered.allocator.check_invariants()

    def test_deleted_blocks_may_resurrect_without_checkpoint(self):
        # Documented limitation: the raw store cannot distinguish
        # "deleted" from "live" after a crash -- upper layers prune.
        clock = SimClock()
        flash = FlashMemory(256 * KB, banks=1)
        store = FlashStore(flash, clock)
        store.write_block("ghost", b"boo")
        store.delete_block("ghost")
        recovered = FlashStore.recover(flash, clock)
        assert recovered.contains("ghost")


class TestCheckpointRecovery:
    def test_basic_roundtrip(self):
        machine = make_machine()
        machine.fs.mkdir("/d")
        machine.fs.write_file("/d/a", b"A" * 9000)
        machine.fs.write_file("/d/b", b"B" * 100)
        machine.fs.checkpoint()
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert report.checkpoint_found
        assert report.files == 2
        assert machine.fs.read_file("/d/a") == b"A" * 9000
        assert machine.fs.read_file("/d/b") == b"B" * 100
        assert machine.fs.listdir("/") == ["d"]

    def test_no_checkpoint_means_empty_fs(self):
        machine = make_machine()
        machine.fs.write_file("/x", b"never checkpointed")
        machine.fs.sync()
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert not report.checkpoint_found
        assert not machine.fs.exists("/x")
        # The orphaned data blocks were pruned for the cleaner.
        assert report.pruned_blocks > 0

    def test_dirty_data_lost_flushed_data_survives(self):
        machine = make_machine()
        machine.fs.write_file("/stable", b"S" * (8 * KB))
        machine.fs.checkpoint()
        machine.fs.write_file("/stable", b"T" * (8 * KB))
        machine.fs.sync()  # newer version reaches flash after checkpoint
        machine.fs.write_file("/volatile", b"V" * KB)  # buffer only
        machine.inject_battery_failure()
        machine.reboot_after_power_loss()
        # Newest flash version wins, even though the checkpoint is older.
        assert machine.fs.read_file("/stable") == b"T" * (8 * KB)
        assert not machine.fs.exists("/volatile")

    def test_deleted_file_stays_deleted(self):
        machine = make_machine()
        machine.fs.write_file("/gone", b"G" * (4 * KB))
        machine.fs.checkpoint()
        machine.fs.delete("/gone")
        machine.fs.checkpoint()
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert not machine.fs.exists("/gone")
        ino_keys = [k for k in machine.manager.store.keys()
                    if isinstance(k, tuple) and k[0] == "data"]
        assert ino_keys == []
        assert report.generation == 2

    def test_lost_blocks_counted(self):
        machine = make_machine()
        machine.fs.write_file("/doc", b"D" * (12 * KB))
        machine.fs.checkpoint()
        # Grow the file; the new blocks stay in the buffer.
        machine.fs.write("/doc", 12 * KB, b"E" * (8 * KB))
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        # Checkpoint referenced only the first 3 blocks; nothing lost.
        assert report.lost_blocks == 0
        assert machine.fs.read_file("/doc")[:4] == b"DDDD"

    def test_periodic_checkpoint_timer(self):
        machine = make_machine(checkpoint_interval_s=10.0)
        machine.fs.write_file("/auto", b"A" * KB)
        machine.engine.run_until(25.0)  # two checkpoint ticks
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert report.checkpoint_found
        assert machine.fs.read_file("/auto") == b"A" * KB

    def test_workload_then_recovery(self):
        machine = make_machine(checkpoint_interval_s=15.0)
        machine.run_workload("office", duration_s=60.0, sync_at_end=False)
        files_before = {
            path: machine.fs.read_file(f"/{path}")
            for path in []
        }
        machine.fs.checkpoint()
        snapshot = {}
        for d in machine.fs.listdir("/"):
            for name in machine.fs.listdir(f"/{d}"):
                path = f"/{d}/{name}"
                snapshot[path] = machine.fs.read_file(path)
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert report.checkpoint_found
        for path, content in snapshot.items():
            assert machine.fs.read_file(path) == content, path
        machine.manager.store.allocator.check_invariants()
        del files_before

    def test_double_failure_and_recovery(self):
        machine = make_machine()
        machine.fs.write_file("/a", b"1" * KB)
        machine.fs.checkpoint()
        machine.inject_battery_failure()
        machine.reboot_after_power_loss()
        machine.fs.write_file("/b", b"2" * KB)
        machine.fs.checkpoint()
        machine.inject_battery_failure()
        machine.reboot_after_power_loss()
        assert machine.fs.read_file("/a") == b"1" * KB
        assert machine.fs.read_file("/b") == b"2" * KB

    def test_reboot_keeps_one_timer_per_name(self):
        # A reboot replaces the storage manager; the machine's one flush
        # timer must flush the new manager, and no second timer may
        # appear (a leaked timer shows up as extra queue depth).
        with runtime.tracing(Tracer()) as tracer:
            machine = make_machine()
        machine.run_workload("office", duration_s=30.0, sync_at_end=False)
        for _ in range(2):
            machine.inject_battery_failure()
            machine.reboot_after_power_loss()
        rebooted_at = machine.clock.now
        machine.fs.write_file("/late", b"L" * KB)
        machine.engine.run_until(rebooted_at + 60.0)
        after = [
            r[6] for r in tracer.records
            if r[1:3] == ("engine", "event") and r[0] > rebooted_at
        ]
        assert {d["name"] for d in after} == {"writebuffer-age-flush", "power-settle"}
        assert {d["pending"] for d in after} == {2}
        assert machine.manager.buffer.stats.counter("flushed_age").value > 0

    def test_conventional_org_remounts(self):
        machine = MobileComputer(
            SystemConfig(
                organization=Organization.DISK, dram_bytes=4 * MB, disk_bytes=24 * MB
            )
        )
        machine.fs.create("/f")
        machine.fs.write("/f", 0, b"on disk")
        machine.fs.sync()
        machine.inject_battery_failure()
        report = machine.reboot_after_power_loss()
        assert report is None
        assert machine.fs.read("/f", 0, 7) == b"on disk"


@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 255), st.integers(1, 6 * KB)),
        min_size=1,
        max_size=30,
    )
)
@settings(max_examples=20, deadline=None)
def test_checkpointed_state_always_recovers(writes):
    """Property: whatever was written before the checkpoint survives."""
    clock = SimClock()
    flash = FlashMemory(4 * MB, banks=2)
    manager = build_manager(clock, flash, buffer_bytes=64 * KB)
    fs = MemoryFileSystem(manager, manager.buffer.dram)
    model = {}
    for file_id, fill, size in writes:
        path = f"/f{file_id}"
        data = bytes([fill]) * size
        fs.write_file(path, data)
        model[path] = data
    fs.checkpoint()
    # Total power loss: only the device survives.
    recovered_store = FlashStore.recover(flash, clock)
    buffer = manager.buffer.__class__(64 * KB, clock, fs.dram)
    new_manager = StorageManager(clock, recovered_store, buffer)
    fs2, report = MemoryFileSystem.recover(new_manager, fs.dram)
    assert report.checkpoint_found
    for path, data in model.items():
        assert fs2.read_file(path) == data
    recovered_store.allocator.check_invariants()
