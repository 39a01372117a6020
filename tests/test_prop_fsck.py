"""Property-based test: fsck repair converges on random corruption.

Whatever combination of bitmap flips, inode frees, and orphan
allocations we inject, one repair pass must leave the image clean and
must never damage the files that were consistent to begin with.
"""

from hypothesis import given, settings, strategies as st

from repro.devices import DRAM, MagneticDisk
from repro.fs import BufferCache, ConventionalFileSystem, DiskBlockDevice, mkfs
from repro.fs.diskfs import MODE_FILE
from repro.fs.fsck import fsck
from repro.sim import SimClock

KB = 1024
MB = 1024 * 1024


@st.composite
def corruptions(draw):
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["leak", "free_bit", "orphan", "kill_inode"]))
        ops.append((kind, draw(st.integers(0, 1000))))
    return ops


@given(corruptions())
@settings(max_examples=25, deadline=None)
def test_fsck_repair_converges(ops):
    clock = SimClock()
    disk = MagneticDisk(16 * MB)
    cache = BufferCache(DiskBlockDevice(disk, clock), clock, 64, dram=DRAM(MB))
    layout = mkfs(cache, ninodes=32)
    fs = ConventionalFileSystem(cache, layout)

    fs.mkdir("/d")
    fs.create("/d/keep")
    fs.write("/d/keep", 0, b"K" * (6 * KB))
    fs.create("/extra")
    fs.write("/extra", 0, b"E" * 500)
    fs.sync()
    protected = fs.read("/d/keep", 0, 6 * KB)

    span = layout.nblocks - layout.data_start
    for kind, arg in ops:
        if kind == "leak":
            fs._bitmap_set(layout.data_start + arg % span, True)
        elif kind == "free_bit":
            inode = fs._resolve(["d", "keep"])
            lba = inode.direct[arg % 2]
            if lba:
                fs._bitmap_set(lba, False)
        elif kind == "orphan":
            try:
                fs._alloc_inode(MODE_FILE)
            except Exception:
                pass
        elif kind == "kill_inode":
            # Free /extra's inode behind the namespace (dangling entry).
            ino = fs._dir_lookup(fs._read_inode(1), "extra")
            if ino is not None:
                dead = fs._read_inode(ino)
                dead.mode = 0
                fs._write_inode(dead)

    fsck(fs, repair=True)
    final = fsck(fs)
    assert final.clean, final
    # The consistent file survived repair byte-for-byte.
    assert fs.read("/d/keep", 0, 6 * KB) == protected
