"""Unit tests for the memory-resident file system."""

import pytest

from repro.devices import DRAM, FlashMemory
from repro.fs import MemoryFileSystem
from repro.fs.api import (
    FileExistsFSError,
    FileNotFoundFSError,
    InvalidPathError,
    IsADirectoryFSError,
    NotADirectoryFSError,
    NotEmptyFSError,
)
from repro.sim import SimClock

from tests._storage import build_manager

KB = 1024
MB = 1024 * 1024


@pytest.fixture
def fs():
    clock = SimClock()
    flash = FlashMemory(8 * MB, banks=2)
    dram = DRAM(4 * MB)
    manager = build_manager(clock, flash, dram=dram, buffer_bytes=256 * KB)
    return MemoryFileSystem(manager, dram=dram)


def _blocks_in_flash(fs, path):
    """Per block of the file: does a stable copy live in flash?"""
    node = fs._file_inode(path)
    return [fs.manager.store.contains(("data", node.ino, i)) for i in node.blocks]


class TestNamespace:
    def test_mkdir_and_listdir(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/a/b")
        fs.create("/a/x")
        assert fs.listdir("/a") == ["b", "x"]
        assert fs.listdir("/") == ["a"]

    def test_create_requires_parent(self, fs):
        with pytest.raises(FileNotFoundFSError):
            fs.create("/missing/file")

    def test_create_duplicate_rejected(self, fs):
        fs.create("/f")
        with pytest.raises(FileExistsFSError):
            fs.create("/f")

    def test_file_is_not_a_directory(self, fs):
        fs.create("/f")
        with pytest.raises(NotADirectoryFSError):
            fs.create("/f/child")

    def test_rmdir_requires_empty(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(NotEmptyFSError):
            fs.rmdir("/d")
        fs.delete("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_delete_directory_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.delete("/d")

    def test_relative_path_rejected(self, fs):
        with pytest.raises(InvalidPathError):
            fs.create("not/absolute")

    def test_exists(self, fs):
        assert fs.exists("/")
        assert not fs.exists("/nope")

    def test_rename_moves_file(self, fs):
        fs.mkdir("/a")
        fs.mkdir("/b")
        fs.create("/a/f")
        fs.write("/a/f", 0, b"content")
        fs.rename("/a/f", "/b/g")
        assert not fs.exists("/a/f")
        assert fs.read("/b/g", 0, 7) == b"content"

    def test_rename_over_existing_replaces(self, fs):
        fs.create("/src")
        fs.write("/src", 0, b"new")
        fs.create("/dst")
        fs.write("/dst", 0, b"old data to be destroyed")
        fs.rename("/src", "/dst")
        assert fs.read("/dst", 0, 10) == b"new"
        assert not fs.exists("/src")

    def test_rename_onto_itself_is_a_timed_noop(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        fs.write("/d/f", 0, b"payload")
        fs.rename("/d/f", "/d/f")
        fs.rename("/d", "/d")
        assert fs.read("/d/f", 0, 7) == b"payload"
        assert fs.listdir("/d") == ["f"]
        assert fs.exists("/d/f") and not fs.exists("/d/g")
        assert fs.stats.counter("rename_ops").value == 2
        with pytest.raises(FileNotFoundFSError):
            fs.rename("/d/ghost", "/d/ghost")

    def test_stat(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"x" * 5000)
        st = fs.stat("/f")
        assert st.size == 5000
        assert st.nblocks == 2
        assert not st.is_dir
        assert fs.stat("/").is_dir


class TestDataPath:
    def test_write_read_roundtrip(self, fs):
        fs.create("/f")
        blob = bytes(range(256)) * 64
        fs.write("/f", 0, blob)
        assert fs.read("/f", 0, len(blob)) == blob

    def test_offset_write(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"AAAABBBB")
        fs.write("/f", 4, b"XX")
        assert fs.read("/f", 0, 8) == b"AAAAXXBB"

    def test_sparse_file_reads_zeros(self, fs):
        fs.create("/f")
        fs.write("/f", 10000, b"tail")
        assert fs.read("/f", 0, 4) == b"\x00" * 4
        assert fs.read("/f", 10000, 4) == b"tail"
        assert fs.stat("/f").size == 10004

    def test_read_past_eof_is_short(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"short")
        assert fs.read("/f", 3, 100) == b"rt"
        assert fs.read("/f", 100, 10) == b""

    def test_cross_block_write(self, fs):
        fs.create("/f")
        blob = b"Z" * (3 * 4096 + 17)
        fs.write("/f", 4090, blob)
        assert fs.read("/f", 4090, len(blob)) == blob

    def test_truncate_shrink(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"D" * 10000)
        fs.truncate("/f", 5000)
        assert fs.stat("/f").size == 5000
        assert fs.read("/f", 0, 10000) == b"D" * 5000

    def test_truncate_then_grow_zeroes_gap(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"D" * 6000)
        fs.truncate("/f", 100)
        fs.write("/f", 200, b"end")
        assert fs.read("/f", 100, 100) == b"\x00" * 100

    def test_delete_releases_blocks(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"x" * (64 * KB))
        fs.sync()
        live_before = fs.manager.store.allocator.total_live_bytes
        fs.delete("/f")
        assert fs.manager.store.allocator.total_live_bytes < live_before

    def test_write_file_replaces(self, fs):
        fs.write_file("/f", b"version one is long")
        fs.write_file("/f", b"v2")
        assert fs.read_file("/f") == b"v2"


class TestStorageIntegration:
    def test_new_data_starts_in_buffer(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"fresh")
        assert not any(_blocks_in_flash(fs, "/f"))

    def test_sync_moves_to_flash(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"fresh" * 1000)
        fs.sync()
        assert all(_blocks_in_flash(fs, "/f"))

    def test_data_survives_gc_churn(self, fs):
        fs.write_file("/keep", b"K" * (16 * KB))
        fs.sync()
        for i in range(600):
            fs.write_file("/churn", bytes([i % 256]) * (8 * KB))
            if i % 50 == 0:
                fs.sync()
        assert fs.read_file("/keep") == b"K" * (16 * KB)
        fs.manager.store.allocator.check_invariants()

    def test_delete_before_sync_never_hits_flash(self, fs):
        fs.create("/temp")
        fs.write("/temp", 0, b"t" * (8 * KB))
        fs.delete("/temp")
        fs.sync()
        assert fs.manager.store.stats.counter("user_bytes_written").value == 0

    def test_metadata_ops_cost_dram_time_only(self, fs):
        flash_busy_before = fs.manager.store.flash.stats.busy_time
        for i in range(50):
            fs.mkdir(f"/d{i}")
            fs.stat(f"/d{i}")
            fs.listdir("/")
        # No flash activity for pure metadata work.
        assert fs.manager.store.flash.stats.busy_time == flash_busy_before

    def test_open_handle_tracks_inode_across_rename(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"handle data")
        handle = fs.open("/f")
        fs.rename("/f", "/g")
        assert handle.read_block(0)[:11] == b"handle data"
