"""Page tables, permissions, and the DRAM page-frame allocator.

Pages are 4 KB.  A :class:`PageTableEntry` either points at a physical
address in the single-level store (DRAM frame *or* flash page -- XIP and
mmapped flash files map flash directly) or records where the page went
(swapped out / not yet materialized).

The :class:`PageFrameAllocator` manages DRAM frames -- the "list of free
DRAM pages" from paper Section 3.3 -- shared by process memory, the COW
machinery, and program loading.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

PAGE_SIZE = 4096


class Permissions(enum.Flag):
    NONE = 0
    READ = enum.auto()
    WRITE = enum.auto()
    EXECUTE = enum.auto()
    RW = READ | WRITE
    RX = READ | EXECUTE
    RWX = READ | WRITE | EXECUTE


@dataclass
class PageTableEntry:
    """One virtual page's mapping state."""

    vpn: int
    perms: Permissions
    present: bool = False
    phys_addr: Optional[int] = None  # physical address of the backing page
    cow: bool = False  # write triggers copy-on-write
    dirty: bool = False
    referenced: bool = False
    swap_handle: Optional[object] = None  # set while paged out
    backing: Optional[object] = None  # backing object for file mappings
    backing_index: Optional[int] = None  # block index within the backing


class PageTable:
    """Sparse vpn -> PTE map for one address space."""

    def __init__(self) -> None:
        self._entries: Dict[int, PageTableEntry] = {}

    def lookup(self, vpn: int) -> Optional[PageTableEntry]:
        return self._entries.get(vpn)

    def insert(self, entry: PageTableEntry) -> None:
        if entry.vpn in self._entries:
            raise ValueError(f"vpn {entry.vpn} already mapped")
        self._entries[entry.vpn] = entry

    def remove(self, vpn: int) -> PageTableEntry:
        entry = self._entries.pop(vpn, None)
        if entry is None:
            raise KeyError(f"vpn {vpn} not mapped")
        return entry

    def entries(self) -> List[PageTableEntry]:
        return list(self._entries.values())

    def __len__(self) -> int:
        return len(self._entries)


class OutOfFramesError(Exception):
    """No free DRAM frames and no replacement possible."""


@dataclass
class PageFrameAllocator:
    """Free-list allocator over a DRAM region of the physical space.

    Frames are identified by their physical address.  The allocator is
    deliberately simple (LIFO free list): frame placement in DRAM has no
    performance consequence in this model, only *counts* matter.
    """

    region_base: int
    region_size: int
    _free: List[int] = field(default_factory=list)
    _initialized: bool = False

    def __post_init__(self) -> None:
        if self.region_size % PAGE_SIZE:
            raise ValueError("DRAM region must be page aligned")
        self.total_frames = self.region_size // PAGE_SIZE
        self._free = [
            self.region_base + i * PAGE_SIZE for i in range(self.total_frames - 1, -1, -1)
        ]
        self._initialized = True

    @property
    def free_frames(self) -> int:
        return len(self._free)

    @property
    def used_frames(self) -> int:
        return self.total_frames - len(self._free)

    def allocate(self) -> int:
        """Return the physical address of a free frame."""
        if not self._free:
            raise OutOfFramesError("DRAM frame pool exhausted")
        return self._free.pop()

    def free(self, phys_addr: int) -> None:
        offset = phys_addr - self.region_base
        if offset < 0 or offset >= self.region_size or offset % PAGE_SIZE:
            raise ValueError(f"address {phys_addr:#x} is not a frame of this pool")
        if phys_addr in self._free:
            raise ValueError(f"double free of frame {phys_addr:#x}")
        self._free.append(phys_addr)

    def contains(self, phys_addr: int) -> bool:
        return self.region_base <= phys_addr < self.region_base + self.region_size
