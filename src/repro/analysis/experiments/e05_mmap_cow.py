"""E5 -- memory-mapped flash files and copy-on-write (Section 3.1).

Claims regenerated:

- "files in flash memory can be mapped directly into the address spaces
  of interested processes without having to make a copy in primary
  storage" -- mapping a flash-resident file costs no DRAM frames and no
  copy time; reads are served straight from flash.
- "Copy-on-write techniques can be used to postpone the complications
  brought on by the erase/write behavior of flash memory until
  application-level writes actually take place" -- with a sparse write
  pattern only the touched pages are promoted to DRAM, and flash sees
  no traffic until the buffer flushes.

The contrast case is the conventional approach: copy the whole file into
DRAM at open time, paying both the copy latency and a frame per page.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.mem.paging import PAGE_SIZE

MB = 1024 * 1024


def _machine(seed: int = 0) -> MobileComputer:
    return MobileComputer(
        SystemConfig(
            organization=Organization.SOLID_STATE,
            dram_bytes=8 * MB,
            flash_bytes=32 * MB,
            seed=seed,
        )
    )


def run(quick: bool = False, file_pages: int = 64, touched_pages: int = 8) -> ExperimentResult:
    if quick:
        file_pages = min(file_pages, 32)
    rows = []

    # --- Path A: mmap the flash-resident file. -------------------------
    machine = _machine()
    data = bytes(range(256)) * (file_pages * PAGE_SIZE // 256)
    machine.fs.write_file("/doc", data)
    machine.fs.sync()  # push it to flash: the stable, read-mostly state
    handle = machine.fs.open("/doc")
    space = machine.vm.create_space("reader")
    frames_before = machine.frames.used_frames
    t0 = machine.clock.now
    mapping = machine.mmap.map_file(space, handle, handle.nblocks, writable=True)
    map_latency = machine.clock.now - t0
    t0 = machine.clock.now
    readback = machine.vm.read(space, mapping.vaddr, file_pages * PAGE_SIZE)
    read_latency = machine.clock.now - t0
    assert readback == data, "mmap readback mismatch"
    mmap_frames = machine.frames.used_frames - frames_before
    rows.append(
        ["mmap read", map_latency * 1e3, read_latency * 1e3, mmap_frames, 0.0]
    )

    # --- Path A': sparse writes through the mapping (COW). -------------
    flash_writes_before = machine.flash.stats.bytes_written
    t0 = machine.clock.now
    for i in range(touched_pages):
        page = (i * file_pages) // touched_pages
        machine.vm.write(space, mapping.vaddr + page * PAGE_SIZE, b"EDIT")
    cow_latency = machine.clock.now - t0
    cow_frames = machine.frames.used_frames - frames_before
    deferred = machine.flash.stats.bytes_written - flash_writes_before
    cow_faults = machine.vm.stats.counter("cow_faults").value
    rows.append(
        [
            f"cow writes ({touched_pages} of {file_pages} pages)",
            cow_latency * 1e3,
            0.0,
            cow_frames,
            deferred / 1024.0,
        ]
    )
    machine.mmap.msync(mapping)

    # --- Path B: conventional eager copy at open. -----------------------
    machine_b = _machine(seed=1)
    machine_b.fs.write_file("/doc", data)
    machine_b.fs.sync()
    space_b = machine_b.vm.create_space("copier")
    frames_before = machine_b.frames.used_frames
    t0 = machine_b.clock.now
    vaddr = machine_b.vm.map_anonymous(space_b, file_pages)
    blob = machine_b.fs.read("/doc", 0, file_pages * PAGE_SIZE)  # flash read
    machine_b.vm.write(space_b, vaddr, blob)  # copy into DRAM
    copy_latency = machine_b.clock.now - t0
    copy_frames = machine_b.frames.used_frames - frames_before
    rows.append(["eager copy-in", copy_latency * 1e3, 0.0, copy_frames, 0.0])

    result = ExperimentResult(
        experiment_id="E5",
        title=f"Mapping a {file_pages}-page flash file: zero-copy + COW vs eager copy",
        headers=["approach", "setup_ms", "read_ms", "dram_pages", "flash_KB_written"],
        rows=rows,
    )
    result.notes.append(
        f"mmap consumed {mmap_frames} DRAM pages vs {copy_frames} for the "
        "eager copy (paper: 'without having to make a copy in primary storage')"
    )
    result.notes.append(
        f"COW promoted only {int(cow_faults)} pages and wrote {deferred:.0f} "
        "bytes to flash at write time (erase/write deferred to the buffer flush)"
    )
    return result
