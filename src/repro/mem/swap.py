"""Swap backends for demand paging.

Paper Section 3.2 argues that with DRAM a large fraction of total
storage, "virtual memory will be used primarily to provide protection
across multiple address spaces, rather than to expand capacity" -- i.e.
swap traffic goes to zero.  Experiment E7 sweeps DRAM size and needs the
conventional alternative to exist: these backends are where evicted
pages go when DRAM is scarce.

- :class:`RawDiskSwap` -- a classic swap partition on the magnetic disk.
- :class:`FlashSwap` -- paging to flash through the log-structured store
  (the only sane way to swap to flash: in-place swap slots would wear a
  hole in the device).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

from repro.devices.disk import MagneticDisk
from repro.mem.paging import PAGE_SIZE
from repro.sim.clock import SimClock
from repro.sim.stats import StatRegistry
from repro.storage.flashstore import FlashStore


class SwapExhaustedError(Exception):
    """The swap area is full."""


class SwapBackend(ABC):
    """Destination for evicted page frames."""

    def __init__(self, name: str) -> None:
        self.stats = StatRegistry(name)

    @abstractmethod
    def page_out(self, data: bytes) -> object:
        """Store a page; returns an opaque handle."""

    @abstractmethod
    def page_in(self, handle: object) -> bytes:
        """Load a page back and release the handle."""

    @abstractmethod
    def discard(self, handle: object) -> None:
        """Release a handle without reading (page's owner died)."""


class RawDiskSwap(SwapBackend):
    """A contiguous swap partition on a magnetic disk."""

    def __init__(
        self,
        disk: MagneticDisk,
        clock: SimClock,
        partition_offset: int,
        partition_bytes: int,
    ) -> None:
        super().__init__("disk-swap")
        if partition_bytes % PAGE_SIZE:
            raise ValueError("swap partition must be page aligned")
        if partition_offset + partition_bytes > disk.capacity_bytes:
            raise ValueError("swap partition exceeds disk capacity")
        self.disk = disk
        self.clock = clock
        self.partition_offset = partition_offset
        self.slots = partition_bytes // PAGE_SIZE
        self._free: List[int] = list(range(self.slots - 1, -1, -1))
        self._held: Dict[int, bool] = {}

    def page_out(self, data: bytes) -> object:
        if len(data) != PAGE_SIZE:
            raise ValueError("swap operates on whole pages")
        if not self._free:
            raise SwapExhaustedError("disk swap partition full")
        slot = self._free.pop()
        offset = self.partition_offset + slot * PAGE_SIZE
        latency, _ = self.disk.write(offset, data, self.clock)
        self.stats.counter("pages_out").add(1)
        self.stats.histogram("page_out_latency").record(latency)
        self._held[slot] = True
        return slot

    def page_in(self, handle: object) -> bytes:
        slot = self._require_held(handle)
        offset = self.partition_offset + slot * PAGE_SIZE
        data, latency, _ = self.disk.read(offset, PAGE_SIZE, self.clock)
        self.stats.counter("pages_in").add(1)
        self.stats.histogram("page_in_latency").record(latency)
        self._release(slot)
        return data

    def discard(self, handle: object) -> None:
        self._release(self._require_held(handle))

    def _require_held(self, handle: object) -> int:
        if not isinstance(handle, int) or not self._held.get(handle):
            raise KeyError(f"invalid swap handle {handle!r}")
        return handle

    def _release(self, slot: int) -> None:
        del self._held[slot]
        self._free.append(slot)


class FlashSwap(SwapBackend):
    """Paging into the log-structured flash store."""

    def __init__(self, store: FlashStore) -> None:
        super().__init__("flash-swap")
        self.store = store
        self._next = 0
        self._held: Dict[int, bool] = {}

    def page_out(self, data: bytes) -> object:
        if len(data) != PAGE_SIZE:
            raise ValueError("swap operates on whole pages")
        handle = self._next
        self._next += 1
        self.store.write_block(("swap", handle), data)
        self._held[handle] = True
        self.stats.counter("pages_out").add(1)
        return handle

    def page_in(self, handle: object) -> bytes:
        if not isinstance(handle, int) or not self._held.get(handle):
            raise KeyError(f"invalid swap handle {handle!r}")
        data = self.store.read_block(("swap", handle))
        self.store.delete_block(("swap", handle))
        del self._held[handle]
        self.stats.counter("pages_in").add(1)
        return data

    def discard(self, handle: object) -> None:
        if not isinstance(handle, int) or not self._held.get(handle):
            raise KeyError(f"invalid swap handle {handle!r}")
        self.store.delete_block(("swap", handle))
        del self._held[handle]
