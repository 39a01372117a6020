"""Unit tests for the conventional on-device file system."""

import pytest

from repro.devices import DRAM, MagneticDisk
from repro.fs import BufferCache, ConventionalFileSystem, DiskBlockDevice, mkfs
from repro.fs.api import (
    FileExistsFSError,
    FileNotFoundFSError,
    IsADirectoryFSError,
    NotEmptyFSError,
)
from repro.fs.diskfs import BLOCK_SIZE, NDIRECT, Layout
from repro.fs.fsck import fsck
from repro.sim import SimClock

MB = 1024 * 1024


def make_fs(disk_mb=16, cache_blocks=64, ninodes=128):
    clock = SimClock()
    disk = MagneticDisk(disk_mb * MB)
    device = DiskBlockDevice(disk, clock)
    cache = BufferCache(device, clock, capacity_blocks=cache_blocks, dram=DRAM(1 * MB))
    layout = mkfs(cache, ninodes=ninodes)
    return ConventionalFileSystem(cache, layout), cache, disk


@pytest.fixture
def fs():
    return make_fs()[0]


class TestFormat:
    def test_layout_roundtrips_through_superblock(self):
        fs, cache, _disk = make_fs()
        cache.flush()
        remounted = ConventionalFileSystem(cache)  # re-reads superblock
        assert remounted.layout == fs.layout

    def test_bad_magic_rejected(self):
        clock = SimClock()
        disk = MagneticDisk(16 * MB)
        device = DiskBlockDevice(disk, clock)
        cache = BufferCache(device, clock, capacity_blocks=16)
        from repro.fs.api import FSError

        with pytest.raises(FSError):
            ConventionalFileSystem(cache)  # unformatted device

    def test_root_exists(self, fs):
        assert fs.exists("/")
        assert fs.listdir("/") == []


class TestNamespace:
    def test_create_list_delete(self, fs):
        fs.mkdir("/dir")
        fs.create("/dir/a")
        fs.create("/dir/b")
        assert fs.listdir("/dir") == ["a", "b"]
        fs.delete("/dir/a")
        assert fs.listdir("/dir") == ["b"]

    def test_duplicate_create_rejected(self, fs):
        fs.create("/f")
        with pytest.raises(FileExistsFSError):
            fs.create("/f")

    def test_missing_file_errors(self, fs):
        with pytest.raises(FileNotFoundFSError):
            fs.read("/ghost", 0, 1)
        with pytest.raises(FileNotFoundFSError):
            fs.delete("/ghost")

    def test_rmdir_semantics(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        with pytest.raises(NotEmptyFSError):
            fs.rmdir("/d")
        fs.delete("/d/f")
        fs.rmdir("/d")
        assert not fs.exists("/d")

    def test_rename_within_dir(self, fs):
        fs.create("/a")
        fs.write("/a", 0, b"payload")
        fs.rename("/a", "/b")
        assert fs.read("/b", 0, 7) == b"payload"
        assert not fs.exists("/a")

    def test_rename_across_dirs_replacing(self, fs):
        fs.mkdir("/src")
        fs.mkdir("/dst")
        fs.create("/src/f")
        fs.write("/src/f", 0, b"new")
        fs.create("/dst/f")
        fs.write("/dst/f", 0, b"old")
        fs.rename("/src/f", "/dst/f")
        assert fs.read("/dst/f", 0, 3) == b"new"

    def test_rename_onto_itself_is_a_timed_noop(self, fs):
        fs.mkdir("/d")
        fs.create("/d/f")
        fs.write("/d/f", 0, b"payload")
        listing = fs.listdir("/d")
        fs.rename("/d/f", "/d/f")
        fs.rename("/d", "/d")
        assert fs.read("/d/f", 0, 7) == b"payload"
        assert fs.listdir("/d") == listing
        assert fs.stats.counter("rename_ops").value == 2
        assert fsck(fs).clean
        with pytest.raises(FileNotFoundFSError):
            fs.rename("/d/ghost", "/d/ghost")

    def test_delete_dir_with_delete_rejected(self, fs):
        fs.mkdir("/d")
        with pytest.raises(IsADirectoryFSError):
            fs.delete("/d")

    def test_many_directory_entries(self):
        fs, _cache, _disk = make_fs(ninodes=256)
        fs.mkdir("/big")
        names = [f"file{i:03d}" for i in range(150)]  # spans dirent blocks
        for name in names:
            fs.create(f"/big/{name}")
        assert fs.listdir("/big") == sorted(names)

    def test_dirent_slot_reuse(self, fs):
        fs.create("/a")
        fs.delete("/a")
        size_before = fs.stat("/").size
        fs.create("/b")  # should reuse the dead slot
        assert fs.stat("/").size == size_before


class TestData:
    def test_small_file_roundtrip(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"hello disk")
        assert fs.read("/f", 0, 10) == b"hello disk"

    def test_direct_block_limit_file(self, fs):
        fs.create("/f")
        blob = bytes(range(256)) * (NDIRECT * BLOCK_SIZE // 256)
        fs.write("/f", 0, blob)
        assert fs.read("/f", 0, len(blob)) == blob
        assert fs.stats.counter("indirect_block_reads").value == 0

    def test_single_indirect_file(self, fs):
        fs.create("/f")
        size = (NDIRECT + 20) * BLOCK_SIZE  # needs the indirect block
        blob = bytes((i * 31) & 0xFF for i in range(size))
        fs.write("/f", 0, blob)
        assert fs.read("/f", 0, size) == blob
        assert fs.stats.counter("indirect_block_reads").value > 0

    def test_double_indirect_file(self):
        fs, _cache, _disk = make_fs(disk_mb=32, cache_blocks=512)
        size = (NDIRECT + 1024 + 50) * BLOCK_SIZE  # ~4.2 MB
        fs.create("/big")
        blob = (b"0123456789abcdef" * (size // 16))[:size]
        fs.write("/big", 0, blob)
        assert fs.read("/big", 1024 * BLOCK_SIZE, 64) == blob[1024 * BLOCK_SIZE :][:64]
        assert fs.stat("/big").size == size

    def test_sparse_hole_reads_zero(self, fs):
        fs.create("/f")
        fs.write("/f", 100 * BLOCK_SIZE, b"far")
        assert fs.read("/f", 0, 8) == b"\x00" * 8

    def test_truncate_frees_blocks(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"D" * (20 * BLOCK_SIZE))
        blocks_before = fs.stat("/f").nblocks
        fs.truncate("/f", BLOCK_SIZE)
        assert fs.stat("/f").nblocks < blocks_before
        assert fs.read("/f", 0, 10) == b"D" * 10

    def test_delete_frees_all_blocks(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"D" * (30 * BLOCK_SIZE))
        fs.delete("/f")
        # All freed blocks are reusable: write another file of same size.
        fs.create("/g")
        fs.write("/g", 0, b"E" * (30 * BLOCK_SIZE))
        assert fs.read("/g", 0, 4) == b"EEEE"

    def test_persistence_across_remount(self):
        fs, cache, _disk = make_fs()
        fs.mkdir("/docs")
        fs.create("/docs/report")
        fs.write("/docs/report", 0, b"durable bytes" * 100)
        fs.sync()
        cache.crash()  # drop the volatile cache entirely
        remounted = ConventionalFileSystem(cache)
        assert remounted.read("/docs/report", 0, 13) == b"durable bytes"
        assert remounted.listdir("/docs") == ["report"]

    def test_unsynced_data_lost_on_crash(self):
        fs, cache, _disk = make_fs()
        fs.create("/f")
        fs.write("/f", 0, b"volatile")
        lost = cache.crash()
        assert lost > 0
        remounted = ConventionalFileSystem(cache)
        # The file may be missing or empty -- but the FS must still mount.
        assert remounted.exists("/") and remounted.layout == fs.layout


class TestClustering:
    def test_sequential_blocks_are_clustered(self, fs):
        fs.create("/f")
        fs.write("/f", 0, b"x" * (8 * BLOCK_SIZE))
        fs.sync()
        inode = fs._resolve(["f"])
        lbas = [lba for kind, lba in fs._file_lbas(inode) if kind == "data"]
        gaps = [b - a for a, b in zip(lbas, lbas[1:])]
        # First-fit with a near hint: consecutive logical blocks land on
        # (near-)consecutive LBAs.
        assert all(abs(g) <= 4 for g in gaps)
