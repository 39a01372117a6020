"""Unit tests for the conventional-FS consistency checker."""

import struct

import pytest

from repro.devices import DRAM, MagneticDisk
from repro.fs import BufferCache, ConventionalFileSystem, DiskBlockDevice, mkfs
from repro.fs.diskfs import DIRENT_SIZE, INODE_SIZE, MODE_FILE
from repro.fs.fsck import fsck
from repro.sim import SimClock

MB = 1024 * 1024


@pytest.fixture
def fs():
    clock = SimClock()
    disk = MagneticDisk(16 * MB)
    cache = BufferCache(DiskBlockDevice(disk, clock), clock, 64, dram=DRAM(MB))
    layout = mkfs(cache, ninodes=64)
    return ConventionalFileSystem(cache, layout)


def populate(fs):
    fs.mkdir("/d")
    fs.create("/d/a")
    fs.write("/d/a", 0, b"A" * 9000)
    fs.create("/b")
    fs.write("/b", 0, b"B" * 100)


class TestCleanImage:
    def test_fresh_fs_is_clean(self, fs):
        assert fsck(fs).clean

    def test_populated_fs_is_clean(self, fs):
        populate(fs)
        fs.sync()
        report = fsck(fs)
        assert report.clean, report.snapshot()
        assert report.reachable_inodes == 4  # root, /d, /d/a, /b

    def test_clean_after_deletes_and_renames(self, fs):
        populate(fs)
        fs.delete("/d/a")
        fs.rename("/b", "/d/b2")
        fs.sync()
        assert fsck(fs).clean


class TestCorruptionDetection:
    def test_leaked_block(self, fs):
        populate(fs)
        fs.sync()
        # Mark a random free data block used without any reference.
        victim = fs.layout.data_start + 37
        assert not fs._bitmap_get(victim)
        fs._bitmap_set(victim, True)
        report = fsck(fs)
        assert victim in report.leaked_blocks
        assert not report.clean

    def test_referenced_block_marked_free(self, fs):
        populate(fs)
        fs.sync()
        inode = fs._resolve(["d", "a"])
        lba = inode.direct[0]
        fs._bitmap_set(lba, False)
        report = fsck(fs)
        assert lba in report.missing_used_bits

    def test_dangling_dirent(self, fs):
        populate(fs)
        fs.sync()
        # Free /b's inode behind the namespace's back.
        ino = fs._dir_lookup(fs._read_inode(1), "b")
        inode = fs._read_inode(ino)
        inode.mode = 0
        fs._write_inode(inode)
        report = fsck(fs)
        assert ("b" in [name for _d, name in report.dangling_dirents]) or any(
            name == "b" for _d, name in report.dangling_dirents
        )

    def test_orphaned_inode(self, fs):
        populate(fs)
        fs.sync()
        # Allocate an inode that no directory references.
        orphan = fs._alloc_inode(MODE_FILE)
        report = fsck(fs)
        assert orphan.ino in report.orphaned_inodes

    def test_cross_linked_blocks(self, fs):
        populate(fs)
        fs.sync()
        # Point /b's first block at /d/a's first block.
        a = fs._resolve(["d", "a"])
        b = fs._resolve(["b"])
        shared = a.direct[0]
        old = b.direct[0]
        b.direct[0] = shared
        fs._write_inode(b)
        report = fsck(fs)
        assert shared in report.cross_linked_blocks
        assert old in report.leaked_blocks  # b's old block is now orphaned


class TestRepair:
    def test_repair_restores_clean_state(self, fs):
        populate(fs)
        fs.sync()
        # Inject three kinds of damage.
        fs._bitmap_set(fs.layout.data_start + 40, True)  # leak
        orphan = fs._alloc_inode(MODE_FILE)
        ino = fs._dir_lookup(fs._read_inode(1), "b")
        dead = fs._read_inode(ino)
        dead.mode = 0
        fs._write_inode(dead)  # /b dangles

        report = fsck(fs, repair=True)
        assert report.repaired
        assert orphan.ino in report.orphaned_inodes
        after = fsck(fs)
        assert after.clean, after
        # Surviving file is intact.
        assert fs.read("/d/a", 0, 4) == b"AAAA"
        assert not fs.exists("/b")

    def test_repair_after_cache_crash(self, fs):
        populate(fs)
        fs.sync()
        fs.create("/d/mid")
        fs.write("/d/mid", 0, b"M" * 5000)  # partially cached metadata
        fs.cache.crash()
        remounted = ConventionalFileSystem(fs.cache)
        fsck(remounted, repair=True)
        final = fsck(remounted)
        assert final.clean, final
        # The pre-crash synced data is still there.
        assert remounted.read("/d/a", 0, 4) == b"AAAA"

    def test_repaired_space_is_reusable(self, fs):
        populate(fs)
        fs.sync()
        for i in range(10):
            fs._bitmap_set(fs.layout.data_start + 30 + i, True)
        fsck(fs, repair=True)
        # Freed leaks are allocatable again.
        fs.create("/big")
        fs.write("/big", 0, b"Z" * (20 * 4096))
        assert fs.read("/big", 0, 4) == b"ZZZZ"
        assert fsck(fs).clean
