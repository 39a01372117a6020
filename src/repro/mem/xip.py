"""Execute-in-place (XIP) vs load-before-execute.

Paper Section 3.2: "programs residing in flash memory can be executed in
place without loss of performance.  There is no need to load their code
segment into primary storage before execution, again saving both the
storage needed for duplicate copies and the time needed to perform the
copies.  ...  already in use in the Hewlett-Packard OmniBook, where
bundled software is shipped in removable memory cards and executed in
place."

:class:`ProgramStore` keeps program images in a dedicated *direct-mapped*
flash area on its own chip, apart from the data flash the storage
manager churns: images are written once at install time and never
moved, so their physical addresses are stable enough to map into
address spaces.

:func:`launch_xip` maps code pages straight from flash (cost: page-table
setup only).  :func:`launch_load` is the conventional path: copy every
code page from secondary storage into a DRAM frame first.  Experiment E6
compares launch latency and DRAM footprint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.mem.address import PhysicalAddressSpace, Region
from repro.mem.paging import PAGE_SIZE, Permissions
from repro.mem.vm import AddressSpace, VirtualMemory

#: Kernel cost to install one PTE (build mapping, no data movement).
PTE_SETUP_S = 2e-6

#: Anonymous data/stack pages every launched program maps.
DATA_PAGES = 4


@dataclass(frozen=True)
class ProgramImage:
    """An installed program: contiguous, page-aligned, in flash."""

    name: str
    phys_addr: int  # address in the single-level store
    code_bytes: int

    @property
    def npages(self) -> int:
        return (self.code_bytes + PAGE_SIZE - 1) // PAGE_SIZE


@dataclass
class LaunchResult:
    """What one program launch cost."""

    code_vaddr: int
    data_vaddr: int
    launch_latency_s: float
    dram_pages_used: int
    mode: str


class ProgramStore:
    """Write-once program image area in direct-mapped flash."""

    def __init__(self, phys: PhysicalAddressSpace, flash_region: Region) -> None:
        self.phys = phys
        self.region = flash_region
        self.clock = phys.clock
        self._bump = 0
        self._images: Dict[str, ProgramImage] = {}

    def install(self, name: str, code: bytes) -> ProgramImage:
        """Program an image into flash (timed; happens once per program)."""
        if name in self._images:
            raise ValueError(f"program {name!r} already installed")
        if not code:
            raise ValueError("empty program image")
        npages = (len(code) + PAGE_SIZE - 1) // PAGE_SIZE
        size = npages * PAGE_SIZE
        if self._bump + size > self.region.size:
            raise MemoryError(f"program store full installing {name!r}")
        phys_addr = self.region.base + self._bump
        self._bump += size
        padded = code + bytes(size - len(code))
        self.phys.write(phys_addr, padded)  # flash program, timed
        image = ProgramImage(name=name, phys_addr=phys_addr, code_bytes=len(code))
        self._images[name] = image
        return image

    def get(self, name: str) -> ProgramImage:
        return self._images[name]

    def installed(self) -> Dict[str, ProgramImage]:
        return dict(self._images)


def launch_xip(vm: VirtualMemory, space: AddressSpace, image: ProgramImage) -> LaunchResult:
    """Launch by mapping code pages directly from flash.

    No code bytes move; the only work is page-table setup plus the
    anonymous data/stack mapping.  Code pages consume zero DRAM frames.
    """
    start = vm.clock.now
    frames_before = vm.frames.used_frames
    vm.clock.advance(PTE_SETUP_S * image.npages)
    if vm.cpu is not None:
        vm.cpu.busy(PTE_SETUP_S * image.npages)
    code_vaddr = vm.map_physical(
        space,
        image.phys_addr,
        image.npages,
        perms=Permissions.RX,
    )
    data_vaddr = vm.map_anonymous(space, DATA_PAGES)
    return LaunchResult(
        code_vaddr=code_vaddr,
        data_vaddr=data_vaddr,
        launch_latency_s=vm.clock.now - start,
        dram_pages_used=vm.frames.used_frames - frames_before,
        mode="xip",
    )


def launch_load(
    vm: VirtualMemory,
    space: AddressSpace,
    image: ProgramImage,
    source: Optional[PhysicalAddressSpace] = None,
) -> LaunchResult:
    """Conventional launch: copy the code segment into DRAM, then map it.

    ``source`` defaults to the VM's own physical space (loading from the
    flash region); disk-based organizations pass a space whose program
    area lives on the disk device instead.
    """
    from repro.mem.paging import PageTableEntry

    phys = source or vm.phys
    start = vm.clock.now
    frames_before = vm.frames.used_frames
    frames = []
    for i in range(image.npages):
        data = phys.read(image.phys_addr + i * PAGE_SIZE, PAGE_SIZE)  # timed read
        frame = vm._allocate_frame()
        vm.phys.write(frame, data)  # timed DRAM copy
        frames.append(frame)
    vm.clock.advance(PTE_SETUP_S * image.npages)
    if vm.cpu is not None:
        vm.cpu.busy(PTE_SETUP_S * image.npages)
    code_vaddr = space.reserve_range(image.npages)
    base_vpn = code_vaddr // PAGE_SIZE
    for i, frame in enumerate(frames):
        space.page_table.insert(
            PageTableEntry(
                vpn=base_vpn + i,
                perms=Permissions.RX,
                present=True,
                phys_addr=frame,
            )
        )
    data_vaddr = vm.map_anonymous(space, DATA_PAGES)
    return LaunchResult(
        code_vaddr=code_vaddr,
        data_vaddr=data_vaddr,
        launch_latency_s=vm.clock.now - start,
        dram_pages_used=vm.frames.used_frames - frames_before,
        mode="load",
    )
