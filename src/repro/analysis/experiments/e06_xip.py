"""E6 -- execute-in-place (Section 3.2).

Claims regenerated:

- "programs residing in flash memory can be executed in place without
  loss of performance.  There is no need to load their code segment into
  primary storage before execution, again saving both the storage needed
  for duplicate copies and the time needed to perform the copies."

Part 1 sweeps program size and compares launch latency and DRAM
footprint for XIP vs load-from-flash vs load-from-disk.  Part 2 runs the
exec-heavy workload on the solid-state (XIP) and disk organizations and
reports aggregate launch behaviour.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.disk import MagneticDisk
from repro.mem.address import PhysicalAddressSpace
from repro.mem.paging import PAGE_SIZE, PageFrameAllocator
from repro.mem.vm import VirtualMemory
from repro.mem.xip import ProgramImage, launch_load, launch_xip

KB = 1024
MB = 1024 * 1024

SIZES = [16 * KB, 64 * KB, 256 * KB, 1 * MB]


def _solid_machine() -> MobileComputer:
    return MobileComputer(
        SystemConfig(
            organization=Organization.SOLID_STATE,
            dram_bytes=8 * MB,
            flash_bytes=16 * MB,
            program_flash_bytes=4 * MB,
        )
    )


def _size_sweep(rows) -> None:
    for size in SIZES:
        machine = _solid_machine()
        code = bytes((i * 7) & 0xFF for i in range(size))
        image = machine.programs.install(f"prog{size}", code)

        space = machine.vm.create_space("xip")
        xip = launch_xip(machine.vm, space, image)
        machine.vm.execute(space, xip.code_vaddr, PAGE_SIZE)

        space2 = machine.vm.create_space("load-flash")
        load = launch_load(machine.vm, space2, image)
        machine.vm.execute(space2, load.code_vaddr, PAGE_SIZE)

        # Load from disk: the same image stored on a KittyHawk.
        disk_load = _disk_load(image, code)

        rows.append(
            [
                size // KB,
                xip.launch_latency_s * 1e3,
                load.launch_latency_s * 1e3,
                disk_load * 1e3,
                xip.dram_pages_used,
                load.dram_pages_used,
            ]
        )


def _disk_load(image: ProgramImage, code: bytes) -> float:
    """Launch latency when the program binary lives on a disk."""
    from repro.sim.clock import SimClock
    from repro.devices.dram import DRAM

    clock = SimClock()
    phys = PhysicalAddressSpace(clock)
    dram = DRAM(8 * MB)
    dram_region = phys.add_region("dram", dram)
    disk = MagneticDisk(20 * MB)
    disk_region = phys.add_region("disk", disk)
    # Pre-place the binary on disk without charging the clock.
    disk._store(0, code)
    frames = PageFrameAllocator(dram_region.base, dram_region.size)
    vm = VirtualMemory(phys, frames)
    space = vm.create_space("disk-load")
    disk_image = ProgramImage(image.name, disk_region.base, image.code_bytes)
    result = launch_load(vm, space, disk_image, source=phys)
    return result.launch_latency_s


def _workload_row(org: Organization, quick: bool) -> list:
    machine = MobileComputer(
        SystemConfig(
            organization=org,
            dram_bytes=8 * MB,
            flash_bytes=16 * MB,
            disk_bytes=48 * MB,
            program_flash_bytes=4 * MB,
        )
    )
    _report, m = machine.run_workload("exec_heavy", duration_s=90.0 if quick else 300.0)
    return [org.value, m.launches, m.mean_launch_latency * 1e3, m.launch_dram_pages]


def run(quick: bool = False) -> ExperimentResult:
    rows = []
    _size_sweep(rows)
    result = ExperimentResult(
        experiment_id="E6",
        title="Program launch: XIP vs load-to-DRAM (by code size)",
        headers=[
            "code_KB",
            "xip_ms",
            "load_flash_ms",
            "load_disk_ms",
            "xip_dram_pages",
            "load_dram_pages",
        ],
        rows=rows,
    )
    # Rows: organization, launches, mean_launch_ms, dram_pages_per_launch.
    solid = _workload_row(Organization.SOLID_STATE, quick)
    disk = _workload_row(Organization.DISK, quick)
    result.tables.append(
        (["organization", "launches", "mean_launch_ms", "dram_pages_per_launch"], [solid, disk])
    )
    if solid[2] > 0:
        result.notes.append(
            f"exec-heavy workload: XIP launches average {solid[2]:.3f} ms using "
            f"{solid[3]} DRAM pages; the disk organization averages "
            f"{disk[2]:.1f} ms and {disk[3]} pages"
        )
    biggest = rows[-1]
    result.notes.append(
        f"{biggest[0]} KB program: XIP {biggest[1]:.3f} ms vs "
        f"{biggest[2]:.1f} ms from flash and {biggest[3]:.1f} ms from disk; "
        "XIP uses zero DRAM for code"
    )
    return result
