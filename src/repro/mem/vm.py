"""The virtual memory system.

Per paper Section 3.2, VM here serves two distinct roles whose balance
the experiments probe:

- **Protection** (always): every process gets its own address space; an
  access outside it, or against its permissions, is an error regardless
  of how much DRAM exists.
- **Capacity** (only when DRAM is scarce): demand paging with a
  second-chance (clock) replacement policy and a pluggable swap backend.
  When DRAM covers the workload -- the solid-state organization's normal
  state -- the swap path simply never runs, which is exactly the paper's
  prediction, and experiment E7 measures the cliff when it does.

Mappings may point anywhere in the single-level store: anonymous pages
get DRAM frames, but file mappings and XIP code map *flash* physical
pages directly, with copy-on-write promoting them to DRAM on first store
(Section 3.1).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterator, Optional, Tuple

from repro.mem.address import PhysicalAddressSpace
from repro.mem.paging import (
    PAGE_SIZE,
    OutOfFramesError,
    PageFrameAllocator,
    PageTable,
    PageTableEntry,
    Permissions,
)
from repro.mem.swap import SwapBackend
from repro.mem.tlb import TLB
from repro.obs import runtime as obs_runtime
from repro.sim.stats import StatRegistry


class PageFaultError(Exception):
    """An access touched an unmapped virtual address."""


class ProtectionError(Exception):
    """An access violated a mapping's permissions."""


class AddressSpace:
    """One process's protection domain."""

    _MMAP_BASE = 0x0000_7000_0000

    def __init__(self, asid: int, name: str) -> None:
        self.asid = asid
        self.name = name
        self.page_table = PageTable()
        self._next_vaddr = self._MMAP_BASE

    def reserve_range(self, npages: int) -> int:
        """Pick an unused virtual range (trivial bump allocator)."""
        vaddr = self._next_vaddr
        self._next_vaddr += npages * PAGE_SIZE
        return vaddr

    def __repr__(self) -> str:  # pragma: no cover
        return f"AddressSpace({self.name!r}, pages={len(self.page_table)})"


class VirtualMemory:
    """Fault handling, replacement, and timed memory access."""

    #: Kernel compute charged per page fault.
    fault_overhead_s = 50e-6

    def __init__(
        self,
        phys: PhysicalAddressSpace,
        frames: PageFrameAllocator,
        swap: Optional[SwapBackend] = None,
        tlb: Optional[TLB] = None,
        cpu=None,
    ) -> None:
        """``tlb`` adds translation timing (misses charge a page-table
        walk); ``cpu`` (a :class:`repro.devices.cpu.CPU`) is charged for
        fault-handling compute so its energy shows up in the power
        model."""
        self.phys = phys
        self.clock = phys.clock
        self.frames = frames
        self.swap = swap
        self.tlb = tlb
        self.cpu = cpu
        self.stats = StatRegistry("vm")
        # Optional repro.obs.Tracer (the one active at construction);
        # page faults emit trace records.
        self.tracer = obs_runtime.get_tracer()
        self._spaces: Dict[int, AddressSpace] = {}
        self._next_asid = 1
        # Clock-algorithm queue of resident, evictable pages:
        # (asid, vpn) -> PTE.  XIP/flash-mapped pages never enter (they
        # consume no DRAM frame).
        self._resident: "OrderedDict[Tuple[int, int], PageTableEntry]" = OrderedDict()

    # ------------------------------------------------------------------
    # Address-space lifecycle.
    # ------------------------------------------------------------------

    def create_space(self, name: str) -> AddressSpace:
        space = AddressSpace(self._next_asid, name)
        self._next_asid += 1
        self._spaces[space.asid] = space
        return space

    def destroy_space(self, space: AddressSpace) -> None:
        for entry in space.page_table.entries():
            self._release_entry(space, entry)
        self._spaces.pop(space.asid, None)
        if self.tlb is not None:
            self.tlb.flush_asid(space.asid)

    def _release_entry(self, space: AddressSpace, entry: PageTableEntry) -> None:
        self._resident.pop((space.asid, entry.vpn), None)
        if self.tlb is not None:
            self.tlb.invalidate(space.asid, entry.vpn)
        if entry.present and entry.phys_addr is not None:
            if self.frames.contains(entry.phys_addr):
                self.frames.free(entry.phys_addr)
        if entry.swap_handle is not None and self.swap is not None:
            self.swap.discard(entry.swap_handle)

    # ------------------------------------------------------------------
    # Mapping.
    # ------------------------------------------------------------------

    def map_anonymous(self, space: AddressSpace, npages: int) -> int:
        """Map demand-zero read-write pages; frames materialize on first
        touch."""
        vaddr = space.reserve_range(npages)
        base_vpn = vaddr // PAGE_SIZE
        for i in range(npages):
            space.page_table.insert(
                PageTableEntry(vpn=base_vpn + i, perms=Permissions.RW, present=False)
            )
        return vaddr

    def map_physical(
        self, space: AddressSpace, phys_addr: int, npages: int, perms: Permissions
    ) -> int:
        """Map existing physical pages in place (XIP code): no frame, no
        copy."""
        if phys_addr % PAGE_SIZE:
            raise ValueError(f"address {phys_addr:#x} is not page aligned")
        vaddr = space.reserve_range(npages)
        base_vpn = vaddr // PAGE_SIZE
        for i in range(npages):
            space.page_table.insert(
                PageTableEntry(
                    vpn=base_vpn + i,
                    perms=perms,
                    present=True,
                    phys_addr=phys_addr + i * PAGE_SIZE,
                )
            )
        return vaddr

    # ------------------------------------------------------------------
    # Access.
    # ------------------------------------------------------------------

    def read(self, space: AddressSpace, vaddr: int, nbytes: int) -> bytes:
        out = bytearray()
        for page_addr, start, end in self._page_spans(vaddr, nbytes):
            entry = self._translate(space, page_addr, write=False)
            out += self.phys.read(entry.phys_addr + start, end - start)
            entry.referenced = True
        return bytes(out)

    def write(self, space: AddressSpace, vaddr: int, data: bytes) -> None:
        pos = 0
        for page_addr, start, end in self._page_spans(vaddr, len(data)):
            entry = self._translate(space, page_addr, write=True)
            self.phys.write(entry.phys_addr + start, data[pos : pos + (end - start)])
            entry.referenced = True
            entry.dirty = True
            pos += end - start

    def execute(self, space: AddressSpace, vaddr: int, nbytes: int) -> bytes:
        """Instruction fetch: like read but checks EXECUTE permission."""
        out = bytearray()
        for page_addr, start, end in self._page_spans(vaddr, nbytes):
            entry = self._translate(space, page_addr, write=False, execute=True)
            out += self.phys.read(entry.phys_addr + start, end - start)
            entry.referenced = True
        return bytes(out)

    @staticmethod
    def _page_spans(vaddr: int, nbytes: int) -> Iterator[Tuple[int, int, int]]:
        """Yield (page_base_vaddr, start_in_page, end_in_page)."""
        if nbytes <= 0:
            raise ValueError("access size must be positive")
        pos = vaddr
        remaining = nbytes
        while remaining > 0:
            page_addr = pos - (pos % PAGE_SIZE)
            start = pos - page_addr
            take = min(remaining, PAGE_SIZE - start)
            yield page_addr, start, start + take
            pos += take
            remaining -= take

    # ------------------------------------------------------------------
    # Translation and faults.
    # ------------------------------------------------------------------

    def _translate(
        self,
        space: AddressSpace,
        page_vaddr: int,
        write: bool,
        execute: bool = False,
    ) -> PageTableEntry:
        entry = space.page_table.lookup(page_vaddr // PAGE_SIZE)
        if entry is None:
            self.stats.counter("segfaults").add(1)
            raise PageFaultError(
                f"{space.name}: unmapped access at {page_vaddr:#x}"
            )
        needed = Permissions.WRITE if write else Permissions.READ
        if execute:
            needed = Permissions.EXECUTE
        if not entry.perms & needed:
            self.stats.counter("protection_faults").add(1)
            raise ProtectionError(
                f"{space.name}: {needed} access to page {entry.vpn:#x} "
                f"with perms {entry.perms}"
            )
        if not entry.present:
            self._fault_in(space, entry)
        if write and entry.cow:
            self._copy_on_write(space, entry)
        if self.tlb is not None:
            cached, walk = self.tlb.lookup(space.asid, entry.vpn)
            if cached is None or cached != entry.phys_addr:
                self._charge_cpu(walk)
                self.clock.advance(walk)
                self.tlb.insert(space.asid, entry.vpn, entry.phys_addr)
        return entry

    def _charge_cpu(self, seconds: float) -> None:
        if self.cpu is not None and seconds > 0:
            self.cpu.busy(seconds)

    def _fault_in(self, space: AddressSpace, entry: PageTableEntry) -> None:
        start = self.clock.now
        self.clock.advance(self.fault_overhead_s)
        self._charge_cpu(self.fault_overhead_s)
        frame = self._allocate_frame()
        if entry.swap_handle is not None:
            if self.swap is None:
                raise RuntimeError("page swapped out but no swap backend")
            data = self.swap.page_in(entry.swap_handle)
            entry.swap_handle = None
            self.phys.write(frame, data)
            self.stats.counter("swap_in_faults").add(1)
            kind = "swap_in"
        elif entry.backing is not None:
            # Previously-promoted file page that was dropped: refill it
            # from the file (a timed read through the storage stack).
            data = entry.backing.read_block(entry.backing_index)
            if len(data) < PAGE_SIZE:
                data = data + bytes(PAGE_SIZE - len(data))
            self.phys.write(frame, data[:PAGE_SIZE])
            self.stats.counter("file_refill_faults").add(1)
            kind = "file_refill"
        else:
            # Demand-zero anonymous page.
            self.phys.write(frame, bytes(PAGE_SIZE))
            self.stats.counter("zero_fill_faults").add(1)
            kind = "zero_fill"
        if self.tracer is not None:
            self.tracer.emit(
                "vm", "page_fault", start, PAGE_SIZE,
                self.clock.now - start, outcome=kind,
            )
        entry.phys_addr = frame
        entry.present = True
        entry.dirty = False
        self._resident[(space.asid, entry.vpn)] = entry

    def _copy_on_write(self, space: AddressSpace, entry: PageTableEntry) -> None:
        """Promote a flash-mapped (or shared) page into a private frame."""
        start = self.clock.now
        self.clock.advance(self.fault_overhead_s)
        self._charge_cpu(self.fault_overhead_s)
        data = self.phys.read(entry.phys_addr, PAGE_SIZE)  # timed flash read
        frame = self._allocate_frame()
        self.phys.write(frame, data)  # timed DRAM write
        entry.phys_addr = frame
        entry.cow = False
        entry.dirty = True
        self._resident[(space.asid, entry.vpn)] = entry
        self.stats.counter("cow_faults").add(1)
        if self.tracer is not None:
            self.tracer.emit(
                "vm", "page_fault", start, PAGE_SIZE,
                self.clock.now - start, outcome="cow",
            )

    def _allocate_frame(self) -> int:
        while True:
            try:
                return self.frames.allocate()
            except OutOfFramesError:
                if not self._evict_one():
                    raise

    # ------------------------------------------------------------------
    # Replacement (second-chance clock).
    # ------------------------------------------------------------------

    def _evict_one(self) -> bool:
        """Evict one resident page; False when nothing is evictable."""
        for _ in range(2 * len(self._resident) + 1):
            if not self._resident:
                return False
            (asid, vpn), entry = next(iter(self._resident.items()))
            self._resident.pop((asid, vpn))
            if entry.referenced:
                entry.referenced = False
                self._resident[(asid, vpn)] = entry  # second chance
                continue
            self._page_out(entry)
            return True
        return False

    def _page_out(self, entry: PageTableEntry) -> None:
        frame = entry.phys_addr
        if frame is None:
            raise RuntimeError("evicting a non-resident page")
        data = self.phys.read(frame, PAGE_SIZE)
        if entry.backing is not None:
            # File-backed dirty page: write back through the file, then
            # the frame can be dropped (re-fault re-maps from the file).
            if entry.dirty:
                entry.backing.write_block(entry.backing_index, data)
                self.stats.counter("writeback_evictions").add(1)
        else:
            if self.swap is None:
                raise OutOfFramesError(
                    "DRAM exhausted and no swap backend configured"
                )
            entry.swap_handle = self.swap.page_out(data)
            self.stats.counter("swap_out_evictions").add(1)
        entry.present = False
        entry.phys_addr = None
        entry.dirty = False
        self.frames.free(frame)
        # The stale translation must not survive the eviction.
        for asid, space in self._spaces.items():
            if space.page_table.lookup(entry.vpn) is entry and self.tlb is not None:
                self.tlb.invalidate(asid, entry.vpn)
