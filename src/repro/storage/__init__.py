"""The physical storage manager (paper Section 3.3).

This package implements the layer the paper sketches between the file
system / VM and the raw devices:

- :mod:`repro.storage.allocator` -- flash sector accounting and one
  device-wide free set ("a list of free flash memory sectors").
- :mod:`repro.storage.wear` -- wear-leveling policies (none / dynamic /
  static) that "evenly balance the write load throughout flash memory".
- :mod:`repro.storage.gc` -- garbage-collection policies "like those used
  in log-structured file systems" (greedy and LFS cost-benefit).
- :mod:`repro.storage.flashstore` -- the log-structured block store that
  ties allocation, cleaning and wear together over one pool of all the
  device's banks and hides erase-before-write behind out-of-place
  updates, and the naive in-place store (fixed slots, an erase per
  overwrite) it is measured against.
- :mod:`repro.storage.writebuffer` -- the battery-backed DRAM write
  buffer that absorbs overwrites and short-lived data (claim E3); it
  evicts the least-recently-written block first, so frequently written
  data stays in DRAM.
- :mod:`repro.storage.manager` -- the :class:`StorageManager` facade the
  file system talks to.
"""

from repro.storage.allocator import Location, OutOfFlashSpace, SectorAllocator, SectorState
from repro.storage.compression import BlockCompressor
from repro.storage.flashstore import CorruptBlockError, FlashStore, InPlaceFlashStore
from repro.storage.gc import CleaningPolicy
from repro.storage.manager import StorageManager, StorageReadOnlyError
from repro.storage.wear import WearPolicy
from repro.storage.writebuffer import FlushReason, WriteBuffer

__all__ = [
    "Location",
    "SectorAllocator",
    "SectorState",
    "OutOfFlashSpace",
    "BlockCompressor",
    "FlashStore",
    "InPlaceFlashStore",
    "CorruptBlockError",
    "StorageReadOnlyError",
    "CleaningPolicy",
    "WearPolicy",
    "WriteBuffer",
    "FlushReason",
    "StorageManager",
]
