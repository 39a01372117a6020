"""The single-level 64-bit physical address space.

Regions of the flat physical space map onto concrete devices: DRAM at a
low base, each flash device (or bank group) higher up.  The processor --
and therefore the VM system, XIP, and the memory-resident file system --
addresses everything uniformly; only *timing* differs, because each
access is serviced by the underlying device model.

This is the paper's organizing idea made concrete: there is no "I/O
path" to secondary storage, just loads and stores with different
latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.devices.base import StorageDevice
from repro.sim.clock import SimClock

#: Canonical region bases in the 64-bit space.  Generous gaps keep the
#: layout stable as capacities vary between experiments.
DRAM_BASE = 0x0000_0000_0000
FLASH_BASE = 0x1000_0000_0000
REGION_ALIGNMENT = 1 << 24  # 16 MB


@dataclass(frozen=True)
class Region:
    """A contiguous window of the physical space backed by one device."""

    name: str
    base: int
    size: int
    device: StorageDevice

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int, nbytes: int = 1) -> bool:
        return self.base <= addr and addr + nbytes <= self.end

    def to_device_offset(self, addr: int) -> int:
        return addr - self.base


class PhysicalAddressSpace:
    """Routes flat physical addresses to device operations.

    Every operation hands its region's device the shared clock, which the
    device advances by its latency, so "a load from flash" is naturally
    slower than "a load from DRAM" without callers knowing which is which.
    """

    def __init__(self, clock: SimClock) -> None:
        self.clock = clock
        self._regions: List[Region] = []

    def add_region(
        self, name: str, device: StorageDevice, base: Optional[int] = None
    ) -> Region:
        if base is None:
            base = self._next_free_base()
        region = Region(name=name, base=base, size=device.capacity_bytes, device=device)
        for existing in self._regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(f"region {name!r} overlaps {existing.name!r}")
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        return region

    def _next_free_base(self) -> int:
        if not self._regions:
            return DRAM_BASE
        last_end = max(r.end for r in self._regions)
        return (last_end + REGION_ALIGNMENT - 1) // REGION_ALIGNMENT * REGION_ALIGNMENT

    def region_of(self, addr: int, nbytes: int = 1) -> Region:
        for region in self._regions:
            if region.contains(addr, nbytes):
                return region
        raise ValueError(f"address {addr:#x}+{nbytes} maps to no region")

    # ------------------------------------------------------------------
    # Uniform access.
    # ------------------------------------------------------------------

    def read(self, addr: int, nbytes: int) -> bytes:
        """Load ``nbytes`` from anywhere in the single-level store."""
        region = self.region_of(addr, nbytes)
        return region.device.read(region.to_device_offset(addr), nbytes, self.clock)[0]

    def write(self, addr: int, data: bytes) -> None:
        """Store bytes.  Flash regions require the range to be erased."""
        region = self.region_of(addr, len(data))
        region.device.write(region.to_device_offset(addr), data, self.clock)
