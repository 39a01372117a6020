"""Property-based tests: the conventional FS against the same model.

The on-device layout (inode table, bitmap, indirect blocks, dirent
blocks) plus the write-back cache must still be indistinguishable from a
dict of bytearrays, including across cache crashes after sync.  The
memoized directory and inode parsing must be indistinguishable from
re-parsing every block on every touch.
"""

import struct

from hypothesis import given, settings, strategies as st

from repro.devices import DRAM, MagneticDisk
from repro.fs import BufferCache, ConventionalFileSystem, DiskBlockDevice, mkfs
from repro.fs.api import (
    FileNotFoundFSError,
    FSError,
    InvalidPathError,
    NoSpaceFSError,
    NotADirectoryFSError,
)
from repro.fs.diskfs import (
    _DIRENT,
    _INODE,
    BLOCK_SIZE,
    DIRENT_SIZE,
    DIRENTS_PER_BLOCK,
    INODE_SIZE,
    INODES_PER_BLOCK,
    MAX_NAME,
    MODE_FREE,
    NDIRECT,
    ROOT_INO,
    DiskInode,
)
from repro.fs.fsck import fsck
from repro.sim import SimClock

KB = 1024
MB = 1024 * 1024

FILES = ["/a", "/b", "/c"]


@st.composite
def fs_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["write", "write", "read", "truncate", "delete"]))
        path = draw(st.sampled_from(FILES))
        if kind == "write":
            offset = draw(st.integers(0, 60 * KB))  # crosses into indirects
            length = draw(st.integers(1, 6 * KB))
            fill = draw(st.integers(0, 255))
            ops.append(("write", path, offset, bytes([fill]) * length))
        elif kind == "read":
            ops.append(("read", path, draw(st.integers(0, 70 * KB)), draw(st.integers(0, 8 * KB))))
        elif kind == "truncate":
            ops.append(("truncate", path, draw(st.integers(0, 70 * KB)), None))
        else:
            ops.append(("delete", path, 0, None))
    return ops


@given(fs_ops(), st.booleans())
@settings(max_examples=25, deadline=None)
def test_diskfs_matches_model(ops, crash_after_sync):
    clock = SimClock()
    disk = MagneticDisk(24 * MB)
    cache = BufferCache(DiskBlockDevice(disk, clock), clock, 64, dram=DRAM(MB))
    layout = mkfs(cache, ninodes=32)
    fs = ConventionalFileSystem(cache, layout)
    model = {}

    for kind, path, offset, arg in ops:
        exists = path in model
        if kind == "write":
            if not exists:
                fs.create(path)
                model[path] = bytearray()
            buf = model[path]
            if len(buf) < offset:
                buf.extend(bytes(offset - len(buf)))
            end = offset + len(arg)
            if len(buf) < end:
                buf.extend(bytes(end - len(buf)))
            buf[offset:end] = arg
            fs.write(path, offset, arg)
        elif kind == "read" and exists:
            expected = bytes(model[path][offset : offset + arg])
            assert fs.read(path, offset, arg) == expected
        elif kind == "truncate" and exists:
            fs.truncate(path, offset)
            buf = model[path]
            if offset <= len(buf):
                del buf[offset:]
            else:
                buf.extend(bytes(offset - len(buf)))
        elif kind == "delete" and exists:
            fs.delete(path)
            del model[path]

    fs.sync()
    if crash_after_sync:
        cache.crash()
        fs = ConventionalFileSystem(cache)  # remount from the device
    for path, buf in model.items():
        assert fs.read(path, 0, len(buf) + 64) == bytes(buf)
        assert fs.stat(path).size == len(buf)
    for path in FILES:
        assert fs.exists(path) == (path in model)


# ----------------------------------------------------------------------
# Directory/inode memo equivalence.
#
# ConventionalFileSystem memoizes parsed directory blocks and inode
# fields on the identity of the cached block object.  The oracle below
# re-parses every block on every touch, as the file system did before
# the memo, so any stale memo entry or any change in which blocks are
# touched shows up as a different result, cache count, DRAM stat or
# simulated time.
# ----------------------------------------------------------------------

class OracleFS(ConventionalFileSystem):
    """Unmemoized metadata parsing: every touch unpacks the raw block,
    and the path walk builds a DiskInode for every component."""

    def _inode_fields(self, ino):
        lba, slot = self._inode_block(ino)
        block = self.cache.read(lba)
        return _INODE.unpack(block[slot * INODE_SIZE : slot * INODE_SIZE + _INODE.size])

    def _alloc_inode(self, mode):
        # One read per inode-table block; every slot is unpacked afresh.
        ninodes = self.layout.ninodes
        for first in range(0, ninodes, INODES_PER_BLOCK):
            lba = self.layout.inode_start + first // INODES_PER_BLOCK
            block = bytearray(self.cache.read(lba))
            for slot in range(min(INODES_PER_BLOCK, ninodes - first)):
                start = slot * INODE_SIZE
                if _INODE.unpack(block[start : start + _INODE.size])[0] == MODE_FREE:
                    ino = first + slot + 1
                    fresh = DiskInode(ino, mode, 1, 0, self.clock.now, [0] * NDIRECT, 0, 0)
                    block[start : start + INODE_SIZE] = fresh.pack()
                    self.cache.write(lba, bytes(block))
                    return fresh
        raise NoSpaceFSError("out of inodes")

    def _write_inode(self, inode):
        lba, slot = self._inode_block(inode.ino)
        block = bytearray(self.cache.read(lba))
        block[slot * INODE_SIZE : (slot + 1) * INODE_SIZE] = inode.pack()
        self.cache.write(lba, bytes(block))

    def _dir_entries(self, inode):
        nblocks = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for bi in range(nblocks):
            lba = self._bmap(inode, bi, allocate=False)
            if lba == 0:
                continue
            block = self.cache.read(lba)
            for slot in range(DIRENTS_PER_BLOCK):
                raw = block[slot * DIRENT_SIZE : (slot + 1) * DIRENT_SIZE]
                ino, namelen, namebuf = _DIRENT.unpack(raw)
                if ino:
                    yield bi, slot, namebuf[:namelen].decode("utf-8"), ino

    def _walk(self, parts):
        # The one walk every lookup goes through (exists, read, and
        # _resolve for the rest), unmemoized.
        ino, fields = ROOT_INO, self._inode_fields(ROOT_INO)
        for part in parts:
            inode = DiskInode.from_fields(ino, fields)
            if not inode.is_dir:
                raise NotADirectoryFSError("/" + "/".join(parts))
            child = self._dir_lookup(inode, part)
            if child is None:
                raise FileNotFoundFSError("/" + "/".join(parts))
            ino, fields = child, self._inode_fields(child)
        return ino, fields

    def _dir_lookup(self, inode, name):
        for _bi, _slot, entry_name, ino in self._dir_entries(inode):
            if entry_name == name:
                return ino
        return None

    def _dir_add(self, dir_inode, name, ino):
        encoded = name.encode("utf-8")
        if len(encoded) > MAX_NAME:
            raise InvalidPathError(f"name too long: {name!r}")
        entry = _DIRENT.pack(ino, len(encoded), encoded.ljust(59, b"\x00"))
        nblocks = (dir_inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for bi in range(nblocks):
            lba = self._bmap(dir_inode, bi, allocate=False)
            if lba == 0:
                continue
            block = bytearray(self.cache.read(lba))
            for slot in range(DIRENTS_PER_BLOCK):
                off = slot * DIRENT_SIZE
                if struct.unpack_from("<I", block, off)[0] == 0:
                    if bi * BLOCK_SIZE + (slot + 1) * DIRENT_SIZE > dir_inode.size:
                        continue
                    block[off : off + DIRENT_SIZE] = entry
                    self.cache.write(lba, bytes(block))
                    return
        index, within = divmod(dir_inode.size, BLOCK_SIZE)
        lba = self._bmap(dir_inode, index, allocate=True)
        block = bytearray(self.cache.read(lba))
        block[within : within + DIRENT_SIZE] = entry
        self.cache.write(lba, bytes(block))
        dir_inode.size += DIRENT_SIZE
        dir_inode.mtime = self.clock.now
        self._write_inode(dir_inode)

    def _dir_remove(self, dir_inode, name):
        for bi, slot, entry_name, ino in self._dir_entries(dir_inode):
            if entry_name != name:
                continue
            lba = self._bmap(dir_inode, bi, allocate=False)
            block = bytearray(self.cache.read(lba))
            block[slot * DIRENT_SIZE : (slot + 1) * DIRENT_SIZE] = bytes(DIRENT_SIZE)
            self.cache.write(lba, bytes(block))
            return ino
        raise FileNotFoundFSError(name)


NS_DIRS = ["/d", "/d/e", "/f"]
NS_NAMES = ["a", "b", "c", "dd"]


def _ns_path(draw):
    parent = draw(st.sampled_from(["", *NS_DIRS]))
    return f"{parent}/{draw(st.sampled_from(NS_NAMES + ['d', 'e', 'f']))}"


@st.composite
def namespace_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 45))):
        kind = draw(st.sampled_from([
            "create", "create", "mkdir", "mkdir", "rename", "delete",
            "rmdir", "listdir", "stat", "fill", "kill_and_fsck", "crash",
        ]))
        if kind == "rename":
            ops.append((kind, _ns_path(draw), _ns_path(draw)))
        elif kind in ("listdir", "fill"):
            # fill: enough entries to spill a directory past one block.
            ops.append((kind, draw(st.sampled_from(["/", *NS_DIRS])),
                        draw(st.integers(1, DIRENTS_PER_BLOCK + 8))))
        elif kind == "crash":
            ops.append((kind, draw(st.booleans()), draw(st.booleans())))
        else:
            ops.append((kind, _ns_path(draw), None))
    return ops


class _Stack:
    """One FS over an 8-block cache (so metadata blocks keep evicting)."""

    def __init__(self, fs_cls):
        self.fs_cls = fs_cls
        self.clock = SimClock()
        self.disk = MagneticDisk(4 * MB)
        self.dram = DRAM(MB)
        self.cache = BufferCache(DiskBlockDevice(self.disk, self.clock), self.clock, 8,
                                 dram=self.dram)
        self.fs = fs_cls(self.cache, mkfs(self.cache, ninodes=256))

    def apply(self, op):
        kind, a, b = op
        fs = self.fs
        try:
            if kind == "create":
                return fs.create(a)
            if kind == "mkdir":
                return fs.mkdir(a)
            if kind == "rename":
                return fs.rename(a, b)
            if kind == "delete":
                return fs.delete(a)
            if kind == "rmdir":
                return fs.rmdir(a)
            if kind == "listdir":
                return fs.listdir(a)
            if kind == "stat":
                st_ = fs.stat(a)
                return (st_.is_dir, st_.size, st_.nblocks, st_.mtime)
            if kind == "fill":
                made = []
                for i in range(b):
                    path = f"{a.rstrip('/')}/n{i}"
                    if not fs.exists(path):
                        fs.create(path)
                        made.append(path)
                return made
            if kind == "kill_and_fsck":
                # Free an inode behind the namespace, leaving a dangling
                # entry that fsck repairs through fs.cache.write.
                parent, name = fs._resolve_parent(a)
                ino = fs._dir_lookup(parent, name)
                if ino is not None:
                    dead = fs._read_inode(ino)
                    dead.mode = MODE_FREE
                    fs._write_inode(dead)
                return fsck(fs, repair=True)
            if kind == "crash":
                sync_first, remount = a, b
                if sync_first:
                    fs.sync()
                lost = self.cache.crash()
                if remount:
                    self.fs = self.fs_cls(self.cache)
                return lost
        except (FSError, UnicodeDecodeError) as exc:
            return (type(exc).__name__, str(exc))
        raise AssertionError(kind)

    def observed(self):
        return (
            self.clock.now,
            self.cache.stats.snapshot(self.clock.now),
            self.dram.stats.snapshot(),
            self.disk.stats.snapshot(),
        )


@given(namespace_ops())
@settings(max_examples=30, deadline=None)
def test_dir_memo_matches_unmemoized_oracle(ops):
    memo, oracle = _Stack(ConventionalFileSystem), _Stack(OracleFS)
    for op in ops:
        assert memo.apply(op) == oracle.apply(op), op
        assert memo.observed() == oracle.observed(), op
    assert memo.apply(("listdir", "/", 0)) == oracle.apply(("listdir", "/", 0))
    assert memo.cache.stats.counter("misses").value > 0  # evictions happened
