"""File-system consistency checker for the conventional FS.

The paper's baseline organization keeps its metadata in device blocks
behind a volatile write-back cache, so a crash can leave the on-device
image inconsistent -- the classic reason every 1993 Unix shipped an
``fsck``.  This checker performs the canonical passes:

1. **Namespace walk** from the root: collects reachable inodes and every
   block (data + indirect) they reference; flags directory entries that
   point at free or out-of-range inodes.
2. **Inode scan**: allocated inodes that the walk never reached are
   orphans.
3. **Bitmap audit**: blocks marked used that nothing references are
   leaks; referenced blocks marked free are corruption; a block
   referenced twice is cross-linked.

With ``repair=True`` the safe fixes are applied: dangling directory
entries are removed, orphaned inodes and leaked blocks are freed, and
referenced-but-free blocks are re-marked used.  Cross-links are
reported but not rewritten (that requires picking a loser, which 1993
fsck punted to the operator too).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from repro.fs.diskfs import (
    BLOCK_SIZE,
    ConventionalFileSystem,
    DIRENT_SIZE,
    MODE_DIR,
    MODE_FILE,
    MODE_FREE,
    ROOT_INO,
)


@dataclass
class FsckReport:
    """Findings (and fixes) from one consistency pass."""

    clean: bool = True
    reachable_inodes: int = 0
    orphaned_inodes: List[int] = field(default_factory=list)
    dangling_dirents: List[Tuple[int, str]] = field(default_factory=list)
    leaked_blocks: List[int] = field(default_factory=list)
    missing_used_bits: List[int] = field(default_factory=list)
    cross_linked_blocks: List[int] = field(default_factory=list)
    out_of_range_pointers: List[Tuple[int, int]] = field(default_factory=list)
    repaired: bool = False

    def problem_count(self) -> int:
        return (
            len(self.orphaned_inodes)
            + len(self.dangling_dirents)
            + len(self.leaked_blocks)
            + len(self.missing_used_bits)
            + len(self.cross_linked_blocks)
            + len(self.out_of_range_pointers)
        )


def fsck(fs: ConventionalFileSystem, repair: bool = False) -> FsckReport:
    """Check (and optionally repair) the on-device image through the cache."""
    report = FsckReport()
    layout = fs.layout

    # --- Pass 1: namespace walk. ----------------------------------------
    reachable: Set[int] = set()
    block_refs: Dict[int, int] = {}  # lba -> reference count
    dangling: List[Tuple[int, int, str]] = []  # (dir ino, child ino, name)

    def note_block(ino: int, lba: int) -> None:
        if lba < layout.data_start or lba >= layout.nblocks:
            report.out_of_range_pointers.append((ino, lba))
            return
        block_refs[lba] = block_refs.get(lba, 0) + 1

    def walk(ino: int) -> None:
        if ino in reachable:
            return
        reachable.add(ino)
        inode = fs._read_inode(ino)
        for kind, lba in fs._file_lbas(inode):
            del kind
            note_block(ino, lba)
        if inode.mode == MODE_DIR:
            for _bi, _slot, name, child in list(fs._dir_entries(inode)):
                if not 1 <= child <= layout.ninodes:
                    dangling.append((ino, child, name))
                    continue
                child_inode = fs._read_inode(child)
                if child_inode.mode == MODE_FREE:
                    dangling.append((ino, child, name))
                    continue
                walk(child)

    walk(ROOT_INO)
    report.reachable_inodes = len(reachable)
    report.dangling_dirents = [(d, name) for d, _c, name in dangling]

    # --- Pass 2: inode scan for orphans. ---------------------------------
    for ino in range(1, layout.ninodes + 1):
        inode = fs._read_inode(ino)
        if inode.mode in (MODE_FILE, MODE_DIR) and ino not in reachable:
            report.orphaned_inodes.append(ino)

    # --- Pass 3: bitmap audit. -------------------------------------------
    for lba, count in block_refs.items():
        if count > 1:
            report.cross_linked_blocks.append(lba)
        if not fs._bitmap_get(lba):
            report.missing_used_bits.append(lba)
    for lba in range(layout.data_start, layout.nblocks):
        if fs._bitmap_get(lba) and lba not in block_refs:
            report.leaked_blocks.append(lba)

    report.clean = report.problem_count() == 0

    # --- Repairs. ----------------------------------------------------------
    if repair and not report.clean:
        for dir_ino, _child, name in dangling:
            dir_inode = fs._read_inode(dir_ino)
            _remove_dirent(fs, dir_inode, name)
        for ino in report.orphaned_inodes:
            inode = fs._read_inode(ino)
            for _kind, lba in list(fs._file_lbas(inode)):
                # Never free a block a *reachable* file also references
                # (a crash-induced cross-link); the live file keeps it.
                if (
                    layout.data_start <= lba < layout.nblocks
                    and lba not in block_refs
                    and fs._bitmap_get(lba)
                ):
                    fs._bitmap_set(lba, False)
            inode.mode = MODE_FREE
            fs._write_inode(inode)
        for lba in report.leaked_blocks:
            # Orphan repair may already have freed some of these.
            if fs._bitmap_get(lba):
                fs._bitmap_set(lba, False)
        for lba in report.missing_used_bits:
            fs._bitmap_set(lba, True)
        fs.cache.flush()
        report.repaired = True
    return report


def _remove_dirent(fs: ConventionalFileSystem, dir_inode, name: str) -> None:
    """Remove one entry without touching the (possibly bad) child inode."""
    for bi, slot, entry_name, _ino in list(fs._dir_entries(dir_inode)):
        if entry_name != name:
            continue
        lba = fs._bmap(dir_inode, bi, allocate=False)
        block = bytearray(fs.cache.read(lba))
        block[slot * DIRENT_SIZE : (slot + 1) * DIRENT_SIZE] = bytes(DIRENT_SIZE)
        fs.cache.write(lba, block)
        return
