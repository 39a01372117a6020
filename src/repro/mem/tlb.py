"""A translation lookaside buffer.

The single-level store makes *every* data access a translated memory
access, so translation cost is part of the organization's performance
story.  The model is a classic fully-associative LRU TLB: hits are free
(folded into the device access), misses charge a page-table walk --
which in this machine is a couple of DRAM touches.

The TLB must be kept coherent by the VM: entries are flushed when a
page is unmapped, evicted, or remapped by copy-on-write.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional, Tuple

from repro.sim.stats import StatRegistry


class TLB:
    """Fully associative, LRU, tagged by (asid, vpn)."""

    entries = 32
    #: Cost of a page-table walk on a miss (two DRAM-speed levels).
    walk_s = 400e-9

    def __init__(self) -> None:
        self.stats = StatRegistry("tlb")
        self._map: "OrderedDict[Tuple[int, int], int]" = OrderedDict()

    def lookup(self, asid: int, vpn: int) -> Tuple[Optional[int], float]:
        """Return (cached physical address or None, latency to charge)."""
        key = (asid, vpn)
        phys = self._map.get(key)
        if phys is not None:
            self._map.move_to_end(key)
            self.stats.counter("hits").add(1)
            return phys, 0.0
        self.stats.counter("misses").add(1)
        return None, self.walk_s

    def insert(self, asid: int, vpn: int, phys_addr: int) -> None:
        key = (asid, vpn)
        self._map[key] = phys_addr
        self._map.move_to_end(key)
        while len(self._map) > self.entries:
            self._map.popitem(last=False)
            self.stats.counter("evictions").add(1)

    def invalidate(self, asid: int, vpn: int) -> None:
        self._map.pop((asid, vpn), None)

    def flush_asid(self, asid: int) -> None:
        """Drop every entry of one address space (context destroy)."""
        stale = [k for k in self._map if k[0] == asid]
        for key in stale:
            del self._map[key]

    def flush(self) -> None:
        self._map.clear()

    def __len__(self) -> int:
        return len(self._map)
