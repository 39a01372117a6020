"""The memory-resident file system (paper Section 3.1).

"An important result of having all storage directly accessible to the
processor will be a memory-resident file system.  In such a system, many
traditional policies and mechanisms do not apply.  For example, there is
no need to cluster related data, since the latency of seek operations is
not a consideration.  The complexity of multiple levels of indirect
blocks may also be eliminated.  Finally, traditional file system caches
are unnecessary because all data and metadata always reside in fast
storage."

Concretely:

- **Metadata** (inodes, directories) are plain DRAM structures.  A path
  lookup costs a few DRAM touches, not block reads; there is no inode
  table on "disk" and no indirect-block chains -- a file's block list is
  a flat map regardless of size.
- **Data blocks** flow through the storage manager: writes land in the
  battery-backed DRAM write buffer, reads come from the buffer or
  straight out of flash (uniform random access, no buffer cache in
  between, no read-ahead, no clustering).
- **Deletes** drop still-buffered blocks before they ever reach flash --
  the short-file-lifetime effect that makes the write buffer so
  effective.

File handles double as mmap backing objects (see :mod:`repro.mem.mmap`):
they expose block keys and current flash locations so file pages can be
mapped into address spaces with zero copies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.devices.dram import DRAM
from repro.fs.api import (
    FileExistsFSError,
    FileNotFoundFSError,
    FileStat,
    FileSystem,
    InvalidPathError,
    IsADirectoryFSError,
    NotADirectoryFSError,
    NotEmptyFSError,
    parent_and_name,
    split_path,
)
from repro.sim.stats import StatHandle, StatRegistry
from repro.storage.allocator import Location
from repro.storage.manager import StorageManager

BLOCK_SIZE = 4096
#: Bytes of DRAM touched per metadata step (inode/dirent access).
META_TOUCH_BYTES = 64

#: Flash keys used by metadata checkpoints.
CHECKPOINT_ROOT_KEY = ("meta-root",)
#: Checkpoint chunk payload size (fits any erase sector we support).
CHECKPOINT_CHUNK_BYTES = 3584


@dataclass
class RecoveryReport:
    """What :meth:`MemoryFileSystem.recover` found after a power loss."""

    checkpoint_found: bool
    generation: int
    files: int
    directories: int
    lost_blocks: int  # referenced by the checkpoint but absent from flash
    pruned_blocks: int  # in flash but unreferenced (deleted/stale data)
    recovery_time_s: float


@dataclass
class MemInode:
    """An in-DRAM inode.  Directories hold their children inline."""

    ino: int
    is_dir: bool
    size: int = 0
    mtime: float = 0.0
    children: Dict[str, int] = field(default_factory=dict)  # dirs only
    blocks: Set[int] = field(default_factory=set)  # populated block indices

    def nblocks(self) -> int:
        return len(self.blocks)


class MemoryFileSystem(FileSystem):
    """Paper-organization FS over a :class:`StorageManager`.

    Metadata steps charge ``META_TOUCH_BYTES`` of DRAM per inode or
    dirent touched (accounting only -- the inodes are host-side Python
    objects, not DRAM-array bytes); each step is charged inline where it
    happens by one ``dram.charge_read(nbytes, clock)``, which also
    advances the clock.
    """

    _bytes_written = StatHandle(StatRegistry.counter, "bytes_written")
    _bytes_read = StatHandle(StatRegistry.counter, "bytes_read")

    def __init__(self, manager: StorageManager, dram: DRAM) -> None:
        self.manager = manager
        self.clock = manager.clock
        self.dram = dram
        self.stats = StatRegistry("memfs")
        self._inodes: Dict[int, MemInode] = {}
        self._next_ino = 2
        self._root = MemInode(ino=1, is_dir=True)
        self._inodes[1] = self._root
        self._generation = 0
        self._prev_checkpoint_chunks = 0

    # ------------------------------------------------------------------
    # Internals: lookup.
    # ------------------------------------------------------------------

    def _lookup(self, parts: List[str]) -> MemInode:
        dram = self.dram
        clock = self.clock
        node = self._root
        dram.charge_read(META_TOUCH_BYTES, clock)
        for part in parts:
            if not node.is_dir:
                raise NotADirectoryFSError("/" + "/".join(parts))
            child = node.children.get(part)
            dram.charge_read(META_TOUCH_BYTES, clock)
            if child is None:
                raise FileNotFoundFSError("/" + "/".join(parts))
            node = self._inodes[child]
        return node

    def _lookup_parent(self, path: str) -> Tuple[MemInode, str]:
        parent_parts, name = parent_and_name(path)
        parent = self._lookup(parent_parts)
        if not parent.is_dir:
            raise NotADirectoryFSError(path)
        return parent, name

    # ------------------------------------------------------------------
    # Namespace operations.
    # ------------------------------------------------------------------

    def create(self, path: str) -> None:
        with self._timed["create"]:
            parent, name = self._lookup_parent(path)
            if name in parent.children:
                raise FileExistsFSError(path)
            inode = MemInode(ino=self._next_ino, is_dir=False, mtime=self.clock.now)
            self._next_ino += 1
            self._inodes[inode.ino] = inode
            parent.children[name] = inode.ino
            self.dram.charge_read(META_TOUCH_BYTES * 2, self.clock)

    def mkdir(self, path: str) -> None:
        with self._timed["mkdir"]:
            parent, name = self._lookup_parent(path)
            if name in parent.children:
                raise FileExistsFSError(path)
            inode = MemInode(ino=self._next_ino, is_dir=True, mtime=self.clock.now)
            self._next_ino += 1
            self._inodes[inode.ino] = inode
            parent.children[name] = inode.ino
            self.dram.charge_read(META_TOUCH_BYTES * 2, self.clock)

    def rmdir(self, path: str) -> None:
        with self._timed["rmdir"]:
            parent, name = self._lookup_parent(path)
            ino = parent.children.get(name)
            if ino is None:
                raise FileNotFoundFSError(path)
            node = self._inodes[ino]
            if not node.is_dir:
                raise NotADirectoryFSError(path)
            if node.children:
                raise NotEmptyFSError(path)
            del parent.children[name]
            del self._inodes[ino]
            self.dram.charge_read(META_TOUCH_BYTES * 2, self.clock)

    def delete(self, path: str) -> None:
        with self._timed["delete"]:
            parent, name = self._lookup_parent(path)
            ino = parent.children.get(name)
            if ino is None:
                raise FileNotFoundFSError(path)
            node = self._inodes[ino]
            if node.is_dir:
                raise IsADirectoryFSError(path)
            for index in list(node.blocks):
                self.manager.delete_block(("data", ino, index))
            del parent.children[name]
            del self._inodes[ino]
            self.dram.charge_read(META_TOUCH_BYTES * 2, self.clock)

    def rename(self, old: str, new: str) -> None:
        with self._timed["rename"]:
            old_parent, old_name = self._lookup_parent(old)
            if old_name not in old_parent.children:
                raise FileNotFoundFSError(old)
            new_parent, new_name = self._lookup_parent(new)
            if new_parent is old_parent and new_name == old_name:
                return  # onto itself: POSIX makes this a no-op
            moving_ino = old_parent.children[old_name]
            existing = new_parent.children.get(new_name)
            if existing is not None:
                target = self._inodes[existing]
                if target.is_dir:
                    raise IsADirectoryFSError(new)
                # POSIX rename-over: the target file is replaced.
                for index in list(target.blocks):
                    self.manager.delete_block(("data", existing, index))
                del self._inodes[existing]
            del old_parent.children[old_name]
            new_parent.children[new_name] = moving_ino
            self._inodes[moving_ino].mtime = self.clock.now
            self.dram.charge_read(META_TOUCH_BYTES * 3, self.clock)

    def listdir(self, path: str) -> List[str]:
        with self._timed["listdir"]:
            node = self._lookup(split_path(path))
            if not node.is_dir:
                raise NotADirectoryFSError(path)
            nbytes = META_TOUCH_BYTES * max(1, len(node.children) // 8)
            self.dram.charge_read(nbytes, self.clock)
            return sorted(node.children)

    def stat(self, path: str) -> FileStat:
        with self._timed["stat"]:
            node = self._lookup(split_path(path))
            return FileStat(
                path=path,
                is_dir=node.is_dir,
                size=node.size,
                nblocks=node.nblocks(),
                mtime=node.mtime,
            )

    def exists(self, path: str) -> bool:
        try:
            self._lookup(split_path(path))
            return True
        except (FileNotFoundFSError, NotADirectoryFSError):
            return False

    # ------------------------------------------------------------------
    # Data operations.
    # ------------------------------------------------------------------

    def _file_inode(self, path: str) -> MemInode:
        node = self._lookup(split_path(path))
        if node.is_dir:
            raise IsADirectoryFSError(path)
        return node

    def _read_block_or_zeros(self, ino: int, index: int, node: MemInode) -> bytes:
        if index in node.blocks:
            data = self.manager.read_block(("data", ino, index))
            if len(data) < BLOCK_SIZE:
                data = data + bytes(BLOCK_SIZE - len(data))
            return data
        return bytes(BLOCK_SIZE)

    def write(self, path: str, offset: int, data: bytes) -> int:
        if offset < 0:
            raise InvalidPathError("negative offset")
        if not data:
            return 0
        with self._timed["write"]:
            node = self._file_inode(path)
            pos = offset
            remaining = memoryview(data)
            while remaining.nbytes > 0:
                index, within = divmod(pos, BLOCK_SIZE)
                take = min(remaining.nbytes, BLOCK_SIZE - within)
                if within == 0 and take == BLOCK_SIZE:
                    block = bytes(remaining[:take])
                else:
                    # Partial block: read-modify-write.
                    existing = bytearray(self._read_block_or_zeros(node.ino, index, node))
                    existing[within : within + take] = remaining[:take]
                    block = bytes(existing)
                # Trim trailing block to the file's logical extent so a
                # short final block stores short (matters for flash space).
                logical_end = max(node.size, pos + take)
                block_end = (index + 1) * BLOCK_SIZE
                if block_end > logical_end:
                    block = block[: logical_end - index * BLOCK_SIZE]
                self.manager.write_block(("data", node.ino, index), block)
                node.blocks.add(index)
                pos += take
                remaining = remaining[take:]
            node.size = max(node.size, offset + len(data))
            node.mtime = self.clock.now
            self.dram.charge_read(META_TOUCH_BYTES, self.clock)
            self._bytes_written.value += len(data)
            return len(data)

    def read(self, path: str, offset: int, nbytes: int) -> bytes:
        if offset < 0 or nbytes < 0:
            raise InvalidPathError("negative read range")
        with self._timed["read"]:
            node = self._file_inode(path)
            if offset >= node.size:
                return b""
            nbytes = min(nbytes, node.size - offset)
            out = bytearray()
            pos = offset
            remaining = nbytes
            while remaining > 0:
                index, within = divmod(pos, BLOCK_SIZE)
                take = min(remaining, BLOCK_SIZE - within)
                block = self._read_block_or_zeros(node.ino, index, node)
                out += block[within : within + take]
                pos += take
                remaining -= take
            self._bytes_read.value += len(out)
            return bytes(out)

    def truncate(self, path: str, size: int) -> None:
        if size < 0:
            raise InvalidPathError("negative truncate size")
        with self._timed["truncate"]:
            node = self._file_inode(path)
            if size < node.size:
                keep_blocks = (size + BLOCK_SIZE - 1) // BLOCK_SIZE
                for index in [i for i in node.blocks if i >= keep_blocks]:
                    self.manager.delete_block(("data", node.ino, index))
                    node.blocks.discard(index)
                # Trim the now-final block if it straddles the new end.
                if size % BLOCK_SIZE and (size // BLOCK_SIZE) in node.blocks:
                    index = size // BLOCK_SIZE
                    block = self._read_block_or_zeros(node.ino, index, node)
                    self.manager.write_block(
                        ("data", node.ino, index), block[: size % BLOCK_SIZE]
                    )
            node.size = size
            node.mtime = self.clock.now
            self.dram.charge_read(META_TOUCH_BYTES, self.clock)

    def sync(self) -> None:
        with self._timed["sync"]:
            self.manager.sync()

    # ------------------------------------------------------------------
    # Metadata checkpointing and crash recovery (paper Sections 3.1/3.3:
    # "With appropriate care to ensure that an untimely crash is
    # unlikely to corrupt data, DRAM can safely hold file system data";
    # flash "must ultimately be the repository for long-lived data").
    # ------------------------------------------------------------------

    def checkpoint(self) -> int:
        """Flush dirty data and write the metadata checkpoint to flash.

        The checkpoint is a JSON image of the namespace and every
        inode's block list, chunked into flash blocks under
        ``("meta", generation, n)`` keys, with ``("meta-root",)``
        committing the generation last.  Together with the flash log's
        self-describing block summaries, this makes the whole file
        system reconstructible after total power loss.  Returns the new
        generation number.
        """
        with self._timed["checkpoint"]:
            self.manager.sync()
            self._generation += 1
            gen = self._generation
            doc = {
                "generation": gen,
                "next_ino": self._next_ino,
                "inodes": [
                    {
                        "ino": node.ino,
                        "dir": node.is_dir,
                        "size": node.size,
                        "mtime": node.mtime,
                        "children": node.children if node.is_dir else None,
                        "blocks": sorted(node.blocks) if not node.is_dir else None,
                    }
                    for node in self._inodes.values()
                ],
            }
            blob = json.dumps(doc, separators=(",", ":")).encode("utf-8")
            chunks = [
                blob[i : i + CHECKPOINT_CHUNK_BYTES]
                for i in range(0, len(blob), CHECKPOINT_CHUNK_BYTES)
            ] or [b"{}"]
            for i, chunk in enumerate(chunks):
                self.manager.store.write_block(("meta", gen, i), chunk)
            root = json.dumps({"generation": gen, "chunks": len(chunks)}).encode()
            self.manager.store.write_block(CHECKPOINT_ROOT_KEY, root)
            # The previous generation's chunks are now garbage.
            for i in range(self._prev_checkpoint_chunks):
                old = ("meta", gen - 1, i)
                if self.manager.store.contains(old):
                    self.manager.store.delete_block(old)
            self._prev_checkpoint_chunks = len(chunks)
            self.stats.counter("checkpoints").add(1)
            self.stats.counter("checkpoint_bytes").add(len(blob))
            return gen

    @classmethod
    def recover(
        cls, manager: StorageManager, dram: DRAM
    ) -> Tuple["MemoryFileSystem", RecoveryReport]:
        """Rebuild a file system from a recovered flash store.

        ``manager.store`` must already hold the post-scan index (see
        :meth:`repro.storage.flashstore.FlashStore.recover`).  Recovery
        semantics: the last committed checkpoint is authoritative for
        the namespace; data blocks take their *newest* flash version
        (writes that raced past the checkpoint survive); blocks that
        existed only in battery-backed DRAM are lost and read as zeros;
        unreferenced blocks (deleted files, stale checkpoints) are
        pruned so the cleaner can reclaim them.
        """
        start = manager.clock.now
        fs = cls(manager, dram=dram)
        store = manager.store
        if not store.contains(CHECKPOINT_ROOT_KEY):
            report = RecoveryReport(
                checkpoint_found=False,
                generation=0,
                files=0,
                directories=1,
                lost_blocks=0,
                pruned_blocks=fs._prune_unreferenced(),
                recovery_time_s=manager.clock.now - start,
            )
            return fs, report
        root = json.loads(store.read_block(CHECKPOINT_ROOT_KEY).decode("utf-8"))
        gen = root["generation"]
        blob = b"".join(
            store.read_block(("meta", gen, i)) for i in range(root["chunks"])
        )
        doc = json.loads(blob.decode("utf-8"))

        fs._generation = gen
        fs._prev_checkpoint_chunks = root["chunks"]
        fs._next_ino = doc["next_ino"]
        fs._inodes = {}
        lost = 0
        for entry in doc["inodes"]:
            node = MemInode(
                ino=entry["ino"],
                is_dir=entry["dir"],
                size=entry["size"],
                mtime=entry["mtime"],
                children=dict(entry["children"]) if entry["dir"] else {},
            )
            if not entry["dir"]:
                for index in entry["blocks"]:
                    if store.contains(("data", node.ino, index)):
                        node.blocks.add(index)
                    else:
                        lost += 1  # died in the DRAM buffer with the power
            fs._inodes[node.ino] = node
        fs._root = fs._inodes[1]
        pruned = fs._prune_unreferenced()
        report = RecoveryReport(
            checkpoint_found=True,
            generation=gen,
            files=sum(1 for n in fs._inodes.values() if not n.is_dir),
            directories=sum(1 for n in fs._inodes.values() if n.is_dir),
            lost_blocks=lost,
            pruned_blocks=pruned,
            recovery_time_s=manager.clock.now - start,
        )
        return fs, report

    def _prune_unreferenced(self) -> int:
        """Delete flash blocks no live inode or checkpoint references."""
        store = self.manager.store
        pruned = 0
        for key in store.keys():
            if key == CHECKPOINT_ROOT_KEY:
                continue
            if isinstance(key, tuple) and key and key[0] == "meta":
                if len(key) == 3 and key[1] == self._generation:
                    continue
                store.delete_block(key)
                pruned += 1
                continue
            if isinstance(key, tuple) and len(key) == 3 and key[0] == "data":
                _tag, ino, index = key
                node = self._inodes.get(ino)
                if node is not None and not node.is_dir and index in node.blocks:
                    continue
            store.delete_block(key)
            pruned += 1
        return pruned

    # ------------------------------------------------------------------
    # Handles (mmap backing protocol).
    # ------------------------------------------------------------------

    def open(self, path: str) -> "MemFile":
        node = self._file_inode(path)
        return MemFile(self, node)

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def file_count(self) -> int:
        return sum(1 for n in self._inodes.values() if not n.is_dir)


class MemFile:
    """An open file handle; implements the mmap backing protocol."""

    def __init__(self, fs: MemoryFileSystem, inode: MemInode) -> None:
        self.fs = fs
        self.inode = inode

    @property
    def nblocks(self) -> int:
        if self.inode.size == 0:
            return 0
        return (self.inode.size + BLOCK_SIZE - 1) // BLOCK_SIZE

    def block_key(self, index: int) -> Tuple[str, int, int]:
        return ("data", self.inode.ino, index)

    def read_block(self, index: int) -> bytes:
        return self.fs._read_block_or_zeros(self.inode.ino, index, self.inode)

    def write_block(self, index: int, data: bytes) -> None:
        if len(data) > BLOCK_SIZE:
            raise ValueError("block write larger than block size")
        # Clamp to the file's logical extent, like the write path does.
        logical_end = self.inode.size - index * BLOCK_SIZE
        if 0 < logical_end < len(data):
            data = data[:logical_end]
        self.fs.manager.write_block(self.block_key(index), data)
        self.inode.blocks.add(index)
        self.inode.mtime = self.fs.clock.now

    def flash_location(self, index: int) -> Optional[Location]:
        """Where the block sits in flash, or None if only in DRAM.

        Compressed stores never map directly: the flash bytes are not
        the file bytes, so pages must fault in through the decoder.
        """
        if self.fs.manager.compressor is not None:
            return None
        key = self.block_key(index)
        if index not in self.inode.blocks:
            return None
        if self.fs.manager.buffer.is_dirty(key):
            return None  # newest version is buffered in DRAM
        if not self.fs.manager.store.contains(key):
            return None
        return self.fs.manager.store.location_of(key)
