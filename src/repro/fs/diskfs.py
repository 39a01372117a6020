"""The conventional Unix-like file system (the paper's baseline).

Everything the paper says a memory-resident FS can discard is present
here, on purpose:

- an **on-device layout** -- superblock, inode table, allocation bitmap,
  data region -- every piece of metadata is a block that must be read
  (and written back) through the buffer cache;
- **indirect blocks** -- inodes hold 12 direct pointers, one single- and
  one double-indirect pointer, so large-file access costs extra metadata
  block reads;
- **clustering** -- the allocator places a file's next block as close as
  possible to its previous one, because on a disk, locality is seek
  time;
- **FFS-style allocation** -- as in McKusick et al.'s Fast File System,
  the inode and block allocators read each inode-table or bitmap block
  they search once through the cache and scan it in memory; the
  on-device table and bitmap are the only allocation state, so mount,
  fsck and crash recovery have nothing in core to rebuild;
- a **write-back buffer cache** with the classic periodic sync.

The FS is written against :class:`~repro.fs.blockdev.BlockDevice`, so it
runs unchanged over the magnetic disk, over erase-in-place flash, or
over the log-structured FTL -- the comparison experiment E12 needs all
three.

On-device format (block size 4096):

====================  ===========================================
block 0               superblock
inode table           ``ninodes`` slots of 128 bytes (32 per block)
allocation bitmap     1 bit per data block
data region           everything else
====================  ===========================================
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import compress
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.fs.api import (
    FileExistsFSError,
    FileNotFoundFSError,
    FileStat,
    FileSystem,
    FSError,
    InvalidPathError,
    IsADirectoryFSError,
    NoSpaceFSError,
    NotADirectoryFSError,
    NotEmptyFSError,
    parent_and_name,
    split_path,
)
from repro.fs.blockdev import BLOCK_SIZE
from repro.fs.cache import BufferCache
from repro.sim.stats import StatHandle, StatRegistry

MAGIC = b"SSMC1993"
INODE_SIZE = 128
INODES_PER_BLOCK = BLOCK_SIZE // INODE_SIZE
NDIRECT = 12
PTRS_PER_BLOCK = BLOCK_SIZE // 4
BITS_PER_BITMAP_BLOCK = BLOCK_SIZE * 8
DIRENT_SIZE = 64
DIRENTS_PER_BLOCK = BLOCK_SIZE // DIRENT_SIZE
MAX_NAME = DIRENT_SIZE - 5

#: Largest file, in blocks: direct, single- and double-indirect pointers.
MAX_FILE_BLOCKS = NDIRECT + PTRS_PER_BLOCK + PTRS_PER_BLOCK * PTRS_PER_BLOCK

MODE_FREE = 0
MODE_FILE = 1
MODE_DIR = 2

_SUPER = struct.Struct("<8sQIIIIII")
_INODE = struct.Struct("<BBHQd12III")  # mode, pad, nlinks, size, mtime,
# direct[12], indirect, dindirect -- 76 bytes, padded to 128 on write.
_DIRENT = struct.Struct("<IB59s")
# The inode number of every dirent in a block, in slot order.
_DIRENT_INOS = struct.Struct("<" + "I60x" * DIRENTS_PER_BLOCK)

ROOT_INO = 1


@dataclass
class Layout:
    """Where each on-device structure lives."""

    nblocks: int
    ninodes: int
    inode_start: int
    inode_blocks: int
    bitmap_start: int
    bitmap_blocks: int
    data_start: int

    def pack(self) -> bytes:
        raw = _SUPER.pack(
            MAGIC,
            self.nblocks,
            self.ninodes,
            self.inode_start,
            self.inode_blocks,
            self.bitmap_start,
            self.bitmap_blocks,
            self.data_start,
        )
        return raw + bytes(BLOCK_SIZE - len(raw))

    @classmethod
    def unpack(cls, block: bytes) -> "Layout":
        magic, nblocks, ninodes, istart, iblocks, bstart, bblocks, dstart = _SUPER.unpack(
            block[: _SUPER.size]
        )
        if magic != MAGIC:
            raise FSError("bad superblock magic; device not formatted")
        return cls(nblocks, ninodes, istart, iblocks, bstart, bblocks, dstart)


@dataclass
class DiskInode:
    """Decoded inode contents."""

    ino: int
    mode: int
    nlinks: int
    size: int
    mtime: float
    direct: List[int]
    indirect: int
    dindirect: int

    @property
    def is_dir(self) -> bool:
        return self.mode == MODE_DIR

    def pack(self) -> bytes:
        raw = _INODE.pack(
            self.mode,
            0,
            self.nlinks,
            self.size,
            self.mtime,
            *self.direct,
            self.indirect,
            self.dindirect,
        )
        return raw + bytes(INODE_SIZE - len(raw))

    @classmethod
    def from_fields(cls, ino: int, fields: tuple) -> "DiskInode":
        """Build a fresh inode from an ``_INODE.unpack`` tuple."""
        mode, _pad, nlinks, size, mtime = fields[:5]
        return cls(ino, mode, nlinks, size, mtime, list(fields[5:17]), fields[17], fields[18])


class _DirBlock(NamedTuple):
    """One parsed directory block, memoized on the identity of ``block``.

    ``entries`` lists ``(slot, name, ino)`` for live entries in slot
    order, ``first`` maps each name to its first live entry's inode and
    ``first_free`` is the lowest dead slot (-1 if none).  A name that
    does not decode stops ``entries`` at its slot, exactly where an
    unmemoized scan raised; ``error`` holds the exception to raise there.
    """

    block: bytes
    entries: List[Tuple[int, str, int]]
    first: Dict[str, int]
    first_free: int
    error: Optional[UnicodeDecodeError]


def _parse_dir_block(block: bytes) -> _DirBlock:
    # One unpack gives every slot's inode number; only the live slots
    # (a handful in a typical block of 64) are then decoded.
    inos = _DIRENT_INOS.unpack(block)
    entries: List[Tuple[int, str, int]] = []
    first: Dict[str, int] = {}
    error = None
    for slot in compress(range(DIRENTS_PER_BLOCK), inos):
        ino, namelen, namebuf = _DIRENT.unpack_from(block, slot * DIRENT_SIZE)
        try:
            name = namebuf[:namelen].decode("utf-8")
        except UnicodeDecodeError as exc:
            error = exc
            break
        entries.append((slot, name, ino))
        first.setdefault(name, ino)
    try:
        first_free = inos.index(0)
    except ValueError:
        first_free = -1
    return _DirBlock(block, entries, first, first_free, error)


def _first_clear_bit(block: bytes, lo: int, hi: int) -> int:
    """First clear bit in ``[lo, hi)`` of an LSB-first bitmap, or -1.

    Whole ``0xFF`` bytes are skipped at C speed; only the first byte
    (masked below ``lo``) and the byte holding the answer are examined
    bit-wise.
    """
    i = lo >> 3
    value = block[i] | ((1 << (lo & 7)) - 1)
    if value == 0xFF:
        i += 1
        rest = block[i : (hi + 7) >> 3]
        unset = rest.lstrip(b"\xff")
        if not unset:
            return -1
        i += len(rest) - len(unset)
        value = unset[0]
    bit = i * 8 + (~value & (value + 1)).bit_length() - 1
    return bit if bit < hi else -1


def mkfs(cache: BufferCache, ninodes: int = 512) -> Layout:
    """Format the device: superblock, empty inode table, bitmap, root dir."""
    nblocks = cache.device.nblocks
    inode_blocks = (ninodes + INODES_PER_BLOCK - 1) // INODES_PER_BLOCK
    inode_start = 1
    bitmap_start = inode_start + inode_blocks
    # One bit per block in the whole device keeps the math simple; bits
    # for metadata blocks are pre-marked used.
    bitmap_blocks = (nblocks + BLOCK_SIZE * 8 - 1) // (BLOCK_SIZE * 8)
    data_start = bitmap_start + bitmap_blocks
    if data_start + 8 > nblocks:
        raise ValueError("device too small for this inode count")
    layout = Layout(
        nblocks=nblocks,
        ninodes=ninodes,
        inode_start=inode_start,
        inode_blocks=inode_blocks,
        bitmap_start=bitmap_start,
        bitmap_blocks=bitmap_blocks,
        data_start=data_start,
    )
    cache.write(0, layout.pack())
    zero = bytes(BLOCK_SIZE)
    for b in range(inode_start, data_start):
        cache.write(b, zero)
    fs = ConventionalFileSystem(cache, layout)
    for lba in range(data_start):
        fs._bitmap_set(lba, True)
    root = DiskInode(ROOT_INO, MODE_DIR, 1, 0, 0.0, [0] * NDIRECT, 0, 0)
    fs._write_inode(root)
    cache.flush()
    return layout


class ConventionalFileSystem(FileSystem):
    """Unix-like FS over a buffer cache over a block device."""

    _bytes_written = StatHandle(StatRegistry.counter, "bytes_written")
    _bytes_read = StatHandle(StatRegistry.counter, "bytes_read")

    def __init__(self, cache: BufferCache, layout: Optional[Layout] = None) -> None:
        self.cache = cache
        self.clock = cache.clock
        self.stats = StatRegistry("diskfs")
        if layout is None:
            layout = Layout.unpack(cache.read(0))
        self.layout = layout
        self._alloc_hint = layout.data_start
        # Host-side memos of parsed metadata blocks, keyed by LBA: a
        # directory block's _DirBlock, and an inode-table block's
        # unpacked fields per slot.  An entry is valid only while
        # cache.read(lba) returns the very object it was parsed from: the
        # cache holds immutable bytes, and a rewrite, an eviction plus
        # re-read, an fsck repair or a crash all yield a new object.
        # Every probe (_inode_fields, _dir_block, and their inline copies
        # in _walk) reads the block through the cache first, so the
        # simulated cost is unchanged.
        self._dir_memo: Dict[int, _DirBlock] = {}
        self._inode_memo: Dict[int, Tuple[bytes, Dict[int, tuple]]] = {}

    # ------------------------------------------------------------------
    # Inode table access.
    # ------------------------------------------------------------------

    def _inode_block(self, ino: int) -> Tuple[int, int]:
        if not 1 <= ino <= self.layout.ninodes:
            raise FSError(f"inode number {ino} out of range")
        slot = ino - 1
        return self.layout.inode_start + slot // INODES_PER_BLOCK, slot % INODES_PER_BLOCK

    def _inode_fields(self, ino: int) -> tuple:
        """Read inode ``ino`` through the cache; its unpacked fields."""
        lba, slot = self._inode_block(ino)
        block = self.cache.read(lba)
        memo = self._inode_memo.get(lba)
        if memo is None or memo[0] is not block:
            memo = self._inode_memo[lba] = (block, {})
        fields = memo[1].get(slot)
        if fields is None:
            fields = memo[1][slot] = _INODE.unpack_from(block, slot * INODE_SIZE)
        return fields

    def _read_inode(self, ino: int) -> DiskInode:
        return DiskInode.from_fields(ino, self._inode_fields(ino))

    def _write_inode(self, inode: DiskInode) -> None:
        lba, slot = self._inode_block(inode.ino)
        block = self.cache.read(lba)
        start = slot * INODE_SIZE
        self.cache.write(lba, block[:start] + inode.pack() + block[start + INODE_SIZE :])

    def _alloc_inode(self, mode: int) -> DiskInode:
        """The lowest-numbered free inode, claimed for ``mode``.

        Like FFS searching a cylinder group's inode map, the scan reads
        each inode-table block once through the cache and finds its first
        ``MODE_FREE`` slot in memory (the mode is each slot's first
        byte), then writes the claimed inode into the block it holds.
        """
        layout = self.layout
        ninodes = layout.ninodes
        for first in range(0, ninodes, INODES_PER_BLOCK):
            lba = layout.inode_start + first // INODES_PER_BLOCK
            block = self.cache.read(lba)
            slot = block[: (ninodes - first) * INODE_SIZE : INODE_SIZE].find(MODE_FREE)
            if slot >= 0:
                ino = first + slot + 1
                fresh = DiskInode(ino, mode, 1, 0, self.clock.now, [0] * NDIRECT, 0, 0)
                start = slot * INODE_SIZE
                self.cache.write(lba, block[:start] + fresh.pack() + block[start + INODE_SIZE :])
                return fresh
        raise NoSpaceFSError("out of inodes")

    # ------------------------------------------------------------------
    # Block bitmap.
    # ------------------------------------------------------------------

    def _bitmap_locate(self, lba: int) -> Tuple[int, int, int]:
        bit = lba
        block = self.layout.bitmap_start + bit // BITS_PER_BITMAP_BLOCK
        byte = (bit % BITS_PER_BITMAP_BLOCK) // 8
        return block, byte, bit % 8

    def _bitmap_get(self, lba: int) -> bool:
        block, byte, bit = self._bitmap_locate(lba)
        return bool(self.cache.read(block)[byte] & (1 << bit))

    def _bitmap_set(self, lba: int, used: bool) -> None:
        block, byte, bit = self._bitmap_locate(lba)
        raw = bytearray(self.cache.read(block))
        if used:
            raw[byte] |= 1 << bit
        else:
            raw[byte] &= ~(1 << bit)
        self.cache.write(block, raw)

    def _alloc_block(self, near: Optional[int] = None) -> int:
        """First-fit data-block allocation, clustered near ``near``.

        Clustering matters on the disk (seek locality) and is harmless
        on the other block devices, matching how a 1993 FFS would have
        been dropped onto a flash card unchanged.

        The search runs from the start point to the end of the data
        region, then wraps around to ``data_start``.  As in FFS, it reads
        each bitmap block it enters once through the cache, searches the
        bits in memory, and sets the claimed bit in the block it holds.
        """
        layout = self.layout
        data_start = layout.data_start
        start = near if near and near >= data_start else self._alloc_hint
        first = data_start + (start - data_start) % (layout.nblocks - data_start)
        for lo, hi in ((first, layout.nblocks), (data_start, first)):
            while lo < hi:
                index, bit = divmod(lo, BITS_PER_BITMAP_BLOCK)
                base = lo - bit
                end = min(hi, base + BITS_PER_BITMAP_BLOCK)
                map_lba = layout.bitmap_start + index
                block = self.cache.read(map_lba)
                found = _first_clear_bit(block, bit, end - base)
                if found >= 0:
                    raw = bytearray(block)
                    raw[found >> 3] |= 1 << (found & 7)
                    self.cache.write(map_lba, raw)
                    lba = base + found
                    self._alloc_hint = lba + 1
                    # Fresh blocks must read as zeros regardless of what
                    # the raw device holds (flash reads 0xFF when erased).
                    self.cache.write(lba, bytes(BLOCK_SIZE))
                    return lba
                lo = end
        raise NoSpaceFSError("out of data blocks")

    def _free_block(self, lba: int) -> None:
        if lba < self.layout.data_start:
            raise FSError(f"freeing metadata block {lba}")
        self._bitmap_set(lba, False)
        # Memory only (validity is object identity): a freed directory
        # block's memo would otherwise pin its last contents.
        self._dir_memo.pop(lba, None)
        # Dead data need not be written back, and an FTL can reclaim the
        # block immediately (the TRIM command, avant la lettre).
        self.cache.discard(lba)
        trim = getattr(self.cache.device, "trim", None)
        if trim is not None:
            trim(lba)
            self.stats.counter("blocks_trimmed").add(1)

    # ------------------------------------------------------------------
    # File block mapping (direct / indirect / double indirect).
    # ------------------------------------------------------------------

    @staticmethod
    def _ptr_get(block: bytes, index: int) -> int:
        return struct.unpack_from("<I", block, index * 4)[0]

    def _ptr_set(self, lba: int, index: int, value: int) -> None:
        raw = bytearray(self.cache.read(lba))
        struct.pack_into("<I", raw, index * 4, value)
        self.cache.write(lba, raw)

    def _bmap(self, inode: DiskInode, index: int, allocate: bool) -> int:
        """Logical block index -> LBA (0 when absent and not allocating)."""
        if index < 0 or index >= MAX_FILE_BLOCKS:
            raise FSError(f"file block index {index} beyond maximum file size")
        if index < NDIRECT:
            lba = inode.direct[index]
            if lba == 0 and allocate:
                near = inode.direct[index - 1] if index else None
                lba = self._alloc_block(near)
                inode.direct[index] = lba
                self._write_inode(inode)
            return lba

        index -= NDIRECT
        if index < PTRS_PER_BLOCK:
            if inode.indirect == 0:
                if not allocate:
                    return 0
                inode.indirect = self._alloc_block(inode.direct[-1] or None)
                self.cache.write(inode.indirect, bytes(BLOCK_SIZE))
                self._write_inode(inode)
                self.stats.counter("indirect_blocks_allocated").add(1)
            table = self.cache.read(inode.indirect)
            self.stats.counter("indirect_block_reads").add(1)
            lba = self._ptr_get(table, index)
            if lba == 0 and allocate:
                lba = self._alloc_block(inode.indirect)
                self._ptr_set(inode.indirect, index, lba)
            return lba

        index -= PTRS_PER_BLOCK
        outer_idx, inner_idx = divmod(index, PTRS_PER_BLOCK)
        if inode.dindirect == 0:
            if not allocate:
                return 0
            inode.dindirect = self._alloc_block(None)
            self.cache.write(inode.dindirect, bytes(BLOCK_SIZE))
            self._write_inode(inode)
            self.stats.counter("indirect_blocks_allocated").add(1)
        outer = self.cache.read(inode.dindirect)
        self.stats.counter("indirect_block_reads").add(1)
        inner_lba = self._ptr_get(outer, outer_idx)
        if inner_lba == 0:
            if not allocate:
                return 0
            inner_lba = self._alloc_block(inode.dindirect)
            self.cache.write(inner_lba, bytes(BLOCK_SIZE))
            self._ptr_set(inode.dindirect, outer_idx, inner_lba)
            self.stats.counter("indirect_blocks_allocated").add(1)
        inner = self.cache.read(inner_lba)
        self.stats.counter("indirect_block_reads").add(1)
        lba = self._ptr_get(inner, inner_idx)
        if lba == 0 and allocate:
            lba = self._alloc_block(inner_lba)
            self._ptr_set(inner_lba, inner_idx, lba)
        return lba

    def _file_lbas(self, inode: DiskInode) -> Iterator[Tuple[str, int]]:
        """Yield ('data'|'meta', lba) for every allocated block."""
        for lba in inode.direct:
            if lba:
                yield "data", lba
        if inode.indirect:
            table = self.cache.read(inode.indirect)
            for i in range(PTRS_PER_BLOCK):
                lba = self._ptr_get(table, i)
                if lba:
                    yield "data", lba
            yield "meta", inode.indirect
        if inode.dindirect:
            outer = self.cache.read(inode.dindirect)
            for i in range(PTRS_PER_BLOCK):
                inner_lba = self._ptr_get(outer, i)
                if not inner_lba:
                    continue
                inner = self.cache.read(inner_lba)
                for j in range(PTRS_PER_BLOCK):
                    lba = self._ptr_get(inner, j)
                    if lba:
                        yield "data", lba
                yield "meta", inner_lba
            yield "meta", inode.dindirect

    # ------------------------------------------------------------------
    # Directories.
    # ------------------------------------------------------------------

    def _dir_block(self, lba: int) -> _DirBlock:
        """Read directory block ``lba`` through the cache, parsed."""
        block = self.cache.read(lba)
        parsed = self._dir_memo.get(lba)
        if parsed is None or parsed.block is not block:
            parsed = self._dir_memo[lba] = _parse_dir_block(block)
        return parsed

    def _dir_entries(self, inode: DiskInode) -> Iterator[Tuple[int, int, str, int]]:
        """Yield (block_index, slot, name, ino) for live entries."""
        nblocks = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        for bi in range(nblocks):
            lba = self._bmap(inode, bi, allocate=False)
            if lba == 0:
                continue
            parsed = self._dir_block(lba)
            for slot, name, ino in parsed.entries:
                yield bi, slot, name, ino
            if parsed.error is not None:
                raise parsed.error.with_traceback(None)

    def _dir_lookup(self, inode: DiskInode, name: str) -> Optional[int]:
        """First live entry named ``name``, scanning blocks in order.

        Reads the same blocks as iterating :meth:`_dir_entries` and stops
        at the same one, but probes each block's name index instead of
        comparing entry by entry.
        """
        nblocks = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        if nblocks <= NDIRECT:
            return self._lookup_in(inode.direct[:nblocks], name)
        return self._lookup_in(
            (self._bmap(inode, bi, allocate=False) for bi in range(nblocks)), name
        )

    def _lookup_in(self, lbas: Iterable[int], name: str) -> Optional[int]:
        """:meth:`_dir_lookup` over a directory's block LBAs, in order.

        The LBAs may be produced lazily, so any indirect-block read that
        maps one happens just before that block is probed.
        """
        for lba in lbas:
            if lba == 0:
                continue
            parsed = self._dir_block(lba)
            ino = parsed.first.get(name)
            if ino is not None:
                return ino
            if parsed.error is not None:
                raise parsed.error.with_traceback(None)
        return None

    def _dir_add(self, dir_inode: DiskInode, name: str, ino: int) -> None:
        encoded = name.encode("utf-8")
        if len(encoded) > MAX_NAME:
            raise InvalidPathError(f"name too long: {name!r}")
        entry = _DIRENT.pack(ino, len(encoded), encoded.ljust(59, b"\x00"))
        nblocks = (dir_inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
        # Reuse a dead slot if one exists.
        for bi in range(nblocks):
            lba = self._bmap(dir_inode, bi, allocate=False)
            if lba == 0:
                continue
            parsed = self._dir_block(lba)
            slot = parsed.first_free
            # A dead slot beyond the current size is left to the append.
            if slot >= 0 and bi * BLOCK_SIZE + (slot + 1) * DIRENT_SIZE <= dir_inode.size:
                off = slot * DIRENT_SIZE
                block = parsed.block
                self.cache.write(lba, block[:off] + entry + block[off + DIRENT_SIZE :])
                return
        # Append at the end.
        index, within = divmod(dir_inode.size, BLOCK_SIZE)
        lba = self._bmap(dir_inode, index, allocate=True)
        block = self.cache.read(lba)
        self.cache.write(lba, block[:within] + entry + block[within + DIRENT_SIZE :])
        dir_inode.size += DIRENT_SIZE
        dir_inode.mtime = self.clock.now
        self._write_inode(dir_inode)

    def _dir_remove(self, dir_inode: DiskInode, name: str) -> int:
        for bi, slot, entry_name, ino in self._dir_entries(dir_inode):
            if entry_name != name:
                continue
            lba = self._bmap(dir_inode, bi, allocate=False)
            block = self.cache.read(lba)
            off = slot * DIRENT_SIZE
            self.cache.write(lba, block[:off] + bytes(DIRENT_SIZE) + block[off + DIRENT_SIZE :])
            return ino
        raise FileNotFoundFSError(name)

    def _dir_is_empty(self, inode: DiskInode) -> bool:
        return next(iter(self._dir_entries(inode)), None) is None

    # ------------------------------------------------------------------
    # Path resolution.
    # ------------------------------------------------------------------

    def _walk(self, parts: List[str]) -> Tuple[int, tuple]:
        """``(ino, fields)`` of the inode at ``parts``, walked from the root.

        One loop does the whole walk on :meth:`_inode_fields` tuples: the
        inode-table probe and the probe of each direct directory block
        are inline copies of :meth:`_inode_fields` and :meth:`_dir_block`
        (same cache reads, same memos), and a directory with more than
        ``NDIRECT`` blocks is searched through :meth:`_dir_lookup`.
        Either way the same blocks are read in the same order as
        building a :class:`DiskInode` per component.
        """
        cache_read = self.cache.read
        inode_memo = self._inode_memo
        dir_memo = self._dir_memo
        ninodes = self.layout.ninodes
        inode_start = self.layout.inode_start
        ino = ROOT_INO
        depth = 0
        while True:
            if not 1 <= ino <= ninodes:
                raise FSError(f"inode number {ino} out of range")
            slot = ino - 1
            lba = inode_start + slot // INODES_PER_BLOCK
            slot %= INODES_PER_BLOCK
            block = cache_read(lba)
            memo = inode_memo.get(lba)
            if memo is None or memo[0] is not block:
                memo = inode_memo[lba] = (block, {})
            fields = memo[1].get(slot)
            if fields is None:
                fields = memo[1][slot] = _INODE.unpack_from(block, slot * INODE_SIZE)
            if depth == len(parts):
                return ino, fields
            if fields[0] != MODE_DIR:
                raise NotADirectoryFSError("/" + "/".join(parts))
            part = parts[depth]
            depth += 1
            nblocks = (fields[3] + BLOCK_SIZE - 1) // BLOCK_SIZE
            child = None
            if nblocks > NDIRECT:
                child = self._dir_lookup(DiskInode.from_fields(ino, fields), part)
            else:
                for lba in fields[5 : 5 + nblocks]:
                    if lba == 0:
                        continue
                    block = cache_read(lba)
                    parsed = dir_memo.get(lba)
                    if parsed is None or parsed.block is not block:
                        parsed = dir_memo[lba] = _parse_dir_block(block)
                    child = parsed.first.get(part)
                    if child is not None:
                        break
                    if parsed.error is not None:
                        raise parsed.error.with_traceback(None)
            if child is None:
                raise FileNotFoundFSError("/" + "/".join(parts))
            ino = child

    def _resolve(self, parts: List[str]) -> DiskInode:
        """The inode at ``parts`` (see :meth:`_walk`)."""
        ino, fields = self._walk(parts)
        return DiskInode.from_fields(ino, fields)

    def _resolve_parent(self, path: str) -> Tuple[DiskInode, str]:
        parent_parts, name = parent_and_name(path)
        parent = self._resolve(parent_parts)
        if not parent.is_dir:
            raise NotADirectoryFSError(path)
        return parent, name

    # ------------------------------------------------------------------
    # FileSystem interface.
    # ------------------------------------------------------------------

    def create(self, path: str) -> None:
        with self._timed["create"]:
            parent, name = self._resolve_parent(path)
            if self._dir_lookup(parent, name) is not None:
                raise FileExistsFSError(path)
            inode = self._alloc_inode(MODE_FILE)
            self._dir_add(parent, name, inode.ino)

    def mkdir(self, path: str) -> None:
        with self._timed["mkdir"]:
            parent, name = self._resolve_parent(path)
            if self._dir_lookup(parent, name) is not None:
                raise FileExistsFSError(path)
            inode = self._alloc_inode(MODE_DIR)
            self._dir_add(parent, name, inode.ino)

    def rmdir(self, path: str) -> None:
        with self._timed["rmdir"]:
            parent, name = self._resolve_parent(path)
            ino = self._dir_lookup(parent, name)
            if ino is None:
                raise FileNotFoundFSError(path)
            inode = self._read_inode(ino)
            if not inode.is_dir:
                raise NotADirectoryFSError(path)
            if not self._dir_is_empty(inode):
                raise NotEmptyFSError(path)
            self._free_file_blocks(inode)
            inode.mode = MODE_FREE
            self._write_inode(inode)
            self._dir_remove(parent, name)

    def _free_file_blocks(self, inode: DiskInode) -> None:
        for _kind, lba in list(self._file_lbas(inode)):
            self._free_block(lba)
        inode.direct = [0] * NDIRECT
        inode.indirect = 0
        inode.dindirect = 0
        inode.size = 0

    def delete(self, path: str) -> None:
        with self._timed["delete"]:
            parent, name = self._resolve_parent(path)
            ino = self._dir_lookup(parent, name)
            if ino is None:
                raise FileNotFoundFSError(path)
            inode = self._read_inode(ino)
            if inode.is_dir:
                raise IsADirectoryFSError(path)
            self._free_file_blocks(inode)
            inode.mode = MODE_FREE
            self._write_inode(inode)
            self._dir_remove(parent, name)

    def rename(self, old: str, new: str) -> None:
        with self._timed["rename"]:
            old_parent, old_name = self._resolve_parent(old)
            ino = self._dir_lookup(old_parent, old_name)
            if ino is None:
                raise FileNotFoundFSError(old)
            new_parent, new_name = self._resolve_parent(new)
            if new_parent.ino == old_parent.ino and new_name == old_name:
                return  # onto itself: POSIX makes this a no-op
            existing = self._dir_lookup(new_parent, new_name)
            if existing is not None:
                target = self._read_inode(existing)
                if target.is_dir:
                    raise IsADirectoryFSError(new)
                self._free_file_blocks(target)
                target.mode = MODE_FREE
                self._write_inode(target)
                self._dir_remove(new_parent, new_name)
                # Re-read the parent inode in case both parents share
                # blocks updated by the removal above.
                new_parent = self._read_inode(new_parent.ino)
            self._dir_remove(old_parent, old_name)
            if new_parent.ino == old_parent.ino:
                new_parent = self._read_inode(new_parent.ino)
            self._dir_add(new_parent, new_name, ino)

    def listdir(self, path: str) -> List[str]:
        with self._timed["listdir"]:
            inode = self._resolve(split_path(path))
            if not inode.is_dir:
                raise NotADirectoryFSError(path)
            return sorted(name for _b, _s, name, _i in self._dir_entries(inode))

    def stat(self, path: str) -> FileStat:
        with self._timed["stat"]:
            inode = self._resolve(split_path(path))
            nblocks = sum(1 for kind, _ in self._file_lbas(inode) if kind == "data")
            return FileStat(
                path=path,
                is_dir=inode.is_dir,
                size=inode.size,
                nblocks=nblocks,
                mtime=inode.mtime,
            )

    def exists(self, path: str) -> bool:
        try:
            self._walk(split_path(path))
            return True
        except (FileNotFoundFSError, NotADirectoryFSError):
            return False

    def write(self, path: str, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidPathError("negative offset")
        if not data:
            return 0
        with self._timed["write"]:
            inode = self._resolve(split_path(path))
            if inode.mode == MODE_DIR:
                raise IsADirectoryFSError(path)
            cache = self.cache
            direct = inode.direct  # _bmap fills holes in this very list
            pos = offset
            view = memoryview(data)
            while view.nbytes > 0:
                index, within = divmod(pos, BLOCK_SIZE)
                take = min(view.nbytes, BLOCK_SIZE - within)
                lba = direct[index] if index < NDIRECT else 0
                if lba == 0:
                    lba = self._bmap(inode, index, allocate=True)
                if within == 0 and take == BLOCK_SIZE:
                    cache.write(lba, bytes(view[:take]))
                else:
                    block = bytearray(cache.read(lba))
                    block[within : within + take] = view[:take]
                    cache.write(lba, block)
                pos += take
                view = view[take:]
            inode.size = max(inode.size, offset + len(data))
            inode.mtime = self.clock.now
            self._write_inode(inode)
            self._bytes_written.value += len(data)
            return len(data)

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise InvalidPathError("negative read range")
        with self._timed["read"]:
            ino, fields = self._walk(split_path(path))
            if fields[0] == MODE_DIR:
                raise IsADirectoryFSError(path)
            size = fields[3]
            if offset >= size:
                return b""
            nbytes = min(nbytes, size - offset)
            cache_read = self.cache.read
            inode = None  # built only to map a block past the direct ones
            out = bytearray()
            pos = offset
            remaining = nbytes
            while remaining > 0:
                index, within = divmod(pos, BLOCK_SIZE)
                take = min(remaining, BLOCK_SIZE - within)
                if index < NDIRECT:
                    lba = fields[5 + index]
                else:
                    if inode is None:
                        inode = DiskInode.from_fields(ino, fields)
                    lba = self._bmap(inode, index, allocate=False)
                if lba == 0:
                    out += bytes(take)  # hole
                else:
                    out += cache_read(lba)[within : within + take]
                pos += take
                remaining -= take
            self._bytes_read.value += len(out)
            return bytes(out)

    def truncate(self, path: str, size: int) -> None:
        if size < 0:
            raise InvalidPathError("negative truncate size")
        with self._timed["truncate"]:
            inode = self._resolve(split_path(path))
            if inode.is_dir:
                raise IsADirectoryFSError(path)
            if size < inode.size:
                keep = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
                # Free whole blocks past the new end (direct only pass +
                # indirect walk).
                nblocks = (inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE
                for index in range(keep, nblocks):
                    lba = self._bmap(inode, index, allocate=False)
                    if lba:
                        self._free_block(lba)
                        self._clear_mapping(inode, index)
                if size % BLOCK_SIZE:
                    index = size // BLOCK_SIZE
                    lba = self._bmap(inode, index, allocate=False)
                    if lba:
                        block = bytearray(self.cache.read(lba))
                        block[size % BLOCK_SIZE :] = bytes(BLOCK_SIZE - size % BLOCK_SIZE)
                        self.cache.write(lba, block)
            inode.size = size
            inode.mtime = self.clock.now
            self._write_inode(inode)

    def _clear_mapping(self, inode: DiskInode, index: int) -> None:
        if index < NDIRECT:
            inode.direct[index] = 0
            self._write_inode(inode)
            return
        index -= NDIRECT
        if index < PTRS_PER_BLOCK:
            if inode.indirect:
                self._ptr_set(inode.indirect, index, 0)
            return
        index -= PTRS_PER_BLOCK
        outer_idx, inner_idx = divmod(index, PTRS_PER_BLOCK)
        if inode.dindirect:
            outer = self.cache.read(inode.dindirect)
            inner_lba = self._ptr_get(outer, outer_idx)
            if inner_lba:
                self._ptr_set(inner_lba, inner_idx, 0)

    def sync(self) -> None:
        with self._timed["sync"]:
            self.cache.flush()
