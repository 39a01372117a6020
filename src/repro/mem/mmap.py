"""Memory-mapped flash files with copy-on-write.

Paper Section 3.1: "files in flash memory can be mapped directly into
the address spaces of interested processes without having to make a copy
in primary storage.  These techniques save both the storage needed for
duplicate copies and the time needed to perform the copies.
Copy-on-write techniques can be used to postpone the complications
brought on by the erase/write behavior of flash memory until
application-level writes actually take place."

The mechanism:

- File blocks that are **stable in flash** and exactly page sized are
  mapped *directly* -- the PTE points at the flash physical page.  A
  read through the mapping is a flash load: no DRAM copy exists.
- Blocks still sitting in the DRAM write buffer (or partial tail
  blocks) are mapped *by reference*: the PTE starts non-present with the
  file as backing, and the first touch faults the data into a DRAM frame
  through the normal storage stack.
- A **store** to a directly mapped page triggers the VM's copy-on-write:
  the page is promoted into a DRAM frame and only :meth:`MmapManager.msync`
  (or page eviction) pushes it back through the file -- i.e. into the
  write buffer, deferring the flash erase/program exactly as the paper
  prescribes.
- The flash store's cleaner may relocate mapped blocks; the manager
  subscribes to relocation events and retargets live PTEs.

The ``backing`` object must provide ``read_block(index)``,
``write_block(index, data)``, ``block_key(index)`` and
``flash_location(index)`` -- the memory-resident file system's file
handles implement this protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.mem.address import Region
from repro.mem.paging import PAGE_SIZE, PageTableEntry, Permissions
from repro.mem.vm import AddressSpace, VirtualMemory
from repro.storage.allocator import Location
from repro.storage.flashstore import FlashStore


@dataclass
class CopyOnWriteMapping:
    """One live mmap of a file into an address space."""

    space: AddressSpace
    vaddr: int
    npages: int
    backing: object
    writable: bool
    direct_pages: int = 0  # pages mapped straight at flash
    # key -> vpn, for relocation retargeting.
    key_to_vpn: Dict[object, int] = field(default_factory=dict)
    closed: bool = False

    def page_entry(self, index: int) -> Optional[PageTableEntry]:
        return self.space.page_table.lookup(self.vaddr // PAGE_SIZE + index)


class MmapManager:
    """Creates and maintains flash-file mappings."""

    def __init__(self, vm: VirtualMemory, flash_region: Region, store: FlashStore) -> None:
        self.vm = vm
        self.flash_region = flash_region
        self.store = store
        self._mappings: List[CopyOnWriteMapping] = []
        store.relocation_listeners.append(self._on_relocate)

    # ------------------------------------------------------------------
    # Mapping.
    # ------------------------------------------------------------------

    def map_file(
        self,
        space: AddressSpace,
        backing: object,
        nblocks: int,
        writable: bool = True,
    ) -> CopyOnWriteMapping:
        """Map ``nblocks`` file blocks starting at block 0."""
        if nblocks <= 0:
            raise ValueError("mapping needs at least one block")
        vaddr = space.reserve_range(nblocks)
        mapping = CopyOnWriteMapping(
            space=space, vaddr=vaddr, npages=nblocks, backing=backing, writable=writable
        )
        perms = Permissions.RW if writable else Permissions.READ
        base_vpn = vaddr // PAGE_SIZE
        for i in range(nblocks):
            loc = backing.flash_location(i)
            if loc is not None and loc.length == PAGE_SIZE:
                # Zero-copy direct mapping at the flash physical page.
                phys = self.flash_region.base + loc.absolute(self.store.allocator.sector_bytes)
                entry = PageTableEntry(
                    vpn=base_vpn + i,
                    perms=perms,
                    present=True,
                    phys_addr=phys,
                    cow=writable,
                    backing=backing,
                    backing_index=i,
                )
                mapping.direct_pages += 1
                mapping.key_to_vpn[backing.block_key(i)] = entry.vpn
            else:
                # Buffered / partial block: fault it in on first touch.
                entry = PageTableEntry(
                    vpn=base_vpn + i,
                    perms=perms,
                    present=False,
                    backing=backing,
                    backing_index=i,
                )
            space.page_table.insert(entry)
        self._mappings.append(mapping)
        return mapping

    def unmap(self, mapping: CopyOnWriteMapping, sync: bool = True) -> None:
        if mapping.closed:
            return
        if sync and mapping.writable:
            self.msync(mapping)
        self.vm.unmap(mapping.space, mapping.vaddr, mapping.npages)
        mapping.closed = True
        self._mappings.remove(mapping)

    # ------------------------------------------------------------------
    # Synchronization.
    # ------------------------------------------------------------------

    def msync(self, mapping: CopyOnWriteMapping) -> int:
        """Write promoted dirty pages back through the file.

        Returns the number of pages written.  The write lands in the
        storage manager's DRAM buffer -- flash traffic still only happens
        when the buffer flushes.
        """
        if mapping.closed:
            raise ValueError("msync on closed mapping")
        written = 0
        for i in range(mapping.npages):
            entry = mapping.page_entry(i)
            if entry is None or not entry.present or not entry.dirty:
                continue
            if entry.phys_addr is None or not self.vm.frames.contains(entry.phys_addr):
                continue  # still mapping flash directly; nothing private
            data = self.vm.phys.read(entry.phys_addr, PAGE_SIZE)
            mapping.backing.write_block(i, data)
            entry.dirty = False
            written += 1
        return written

    # ------------------------------------------------------------------
    # Relocation upkeep.
    # ------------------------------------------------------------------

    def _on_relocate(self, key: object, old_loc: Location, new_loc: Location) -> None:
        for mapping in self._mappings:
            vpn = mapping.key_to_vpn.get(key)
            if vpn is None:
                continue
            entry = mapping.space.page_table.lookup(vpn)
            if entry is None or not entry.present:
                continue
            if entry.phys_addr is not None and self.vm.frames.contains(entry.phys_addr):
                continue  # page was promoted to DRAM; flash move is moot
            entry.phys_addr = self.flash_region.base + new_loc.absolute(
                self.store.allocator.sector_bytes
            )

    # ------------------------------------------------------------------
    # Reporting.
    # ------------------------------------------------------------------

    def live_mappings(self) -> int:
        return len(self._mappings)
