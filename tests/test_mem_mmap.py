"""Unit tests for memory-mapped flash files with copy-on-write."""

import pytest

from repro.core import MobileComputer, Organization, SystemConfig
from repro.mem.paging import PAGE_SIZE

MB = 1024 * 1024


@pytest.fixture
def machine():
    return MobileComputer(
        SystemConfig(
            organization=Organization.SOLID_STATE,
            dram_bytes=4 * MB,
            flash_bytes=16 * MB,
            program_flash_bytes=1 * MB,
        )
    )


def make_mapped_file(machine, pages=4, sync=True, name="/data.bin"):
    data = bytes((i % 251) for i in range(pages * PAGE_SIZE))
    machine.fs.write_file(name, data)
    if sync:
        machine.fs.sync()
    handle = machine.fs.open(name)
    space = machine.vm.create_space("mapper")
    mapping = machine.mmap.map_file(space, handle, handle.nblocks)
    return data, handle, space, mapping


class TestZeroCopyMapping:
    def test_read_through_mapping(self, machine):
        data, _h, space, mapping = make_mapped_file(machine)
        assert machine.vm.read(space, mapping.vaddr, len(data)) == data

    def test_synced_file_maps_direct_no_dram(self, machine):
        _d, _h, _s, mapping = make_mapped_file(machine, sync=True)
        assert mapping.direct_pages == mapping.npages

    def test_buffered_file_maps_by_reference(self, machine):
        data, _h, space, mapping = make_mapped_file(machine, sync=False)
        assert mapping.direct_pages == 0  # still in the write buffer
        # Reads still work: pages fault in through the storage stack.
        assert machine.vm.read(space, mapping.vaddr, 64) == data[:64]

    def test_partial_tail_block_faults_in(self, machine):
        data = b"Z" * (PAGE_SIZE + 100)  # second block is partial
        machine.fs.write_file("/tail", data)
        machine.fs.sync()
        handle = machine.fs.open("/tail")
        space = machine.vm.create_space("p")
        mapping = machine.mmap.map_file(space, handle, handle.nblocks)
        assert mapping.direct_pages == 1  # only the full block maps direct
        got = machine.vm.read(space, mapping.vaddr + PAGE_SIZE, 100)
        assert got == b"Z" * 100


class TestCopyOnWrite:
    def test_write_promotes_single_page(self, machine):
        data, _h, space, mapping = make_mapped_file(machine, pages=8)
        frames_before = machine.frames.used_frames
        machine.vm.write(space, mapping.vaddr + 2 * PAGE_SIZE, b"EDIT")
        assert machine.frames.used_frames == frames_before + 1
        assert machine.vm.stats.counter("cow_faults").value == 1
        # The mapped view shows the edit; other pages unchanged.
        page2 = machine.vm.read(space, mapping.vaddr + 2 * PAGE_SIZE, 8)
        assert page2[:4] == b"EDIT"
        page0 = machine.vm.read(space, mapping.vaddr, 8)
        assert page0 == data[:8]

    def test_file_unchanged_until_msync(self, machine):
        data, _h, space, mapping = make_mapped_file(machine)
        machine.vm.write(space, mapping.vaddr, b"EDIT")
        assert machine.fs.read("/data.bin", 0, 4) == data[:4]
        written = machine.mmap.msync(mapping)
        assert written == 1
        assert machine.fs.read("/data.bin", 0, 4) == b"EDIT"

    def test_msync_lands_in_buffer_not_flash(self, machine):
        _d, _h, space, mapping = make_mapped_file(machine)
        flash_before = machine.flash.stats.bytes_written
        machine.vm.write(space, mapping.vaddr, b"EDIT")
        machine.mmap.msync(mapping)
        # The write-back went to the DRAM write buffer; flash untouched.
        assert machine.flash.stats.bytes_written == flash_before

    def test_unmap_syncs_dirty_pages(self, machine):
        _d, _h, space, mapping = make_mapped_file(machine)
        machine.vm.write(space, mapping.vaddr, b"LAST")
        machine.mmap.unmap(mapping)
        assert machine.fs.read("/data.bin", 0, 4) == b"LAST"
        assert machine.mmap.live_mappings() == 0


class TestRelocationUpkeep:
    def test_gc_relocation_retargets_mapping(self, machine):
        data, handle, space, mapping = make_mapped_file(machine, pages=2)
        key = handle.block_key(0)
        old_loc = machine.store.location_of(key)
        # Force a relocation of this exact block by cleaning its sector.
        pool = "write"
        machine.store._relocate_and_erase(old_loc.sector, pool)
        new_loc = machine.store.location_of(key)
        assert (new_loc.sector, new_loc.offset) != (old_loc.sector, old_loc.offset)
        # The mapping must still read correct data at the new location.
        assert machine.vm.read(space, mapping.vaddr, 16) == data[:16]
        entry = mapping.page_entry(0)
        expected = machine.flash_region.base + new_loc.absolute(
            machine.store.allocator.sector_bytes
        )
        assert entry.phys_addr == expected

    def test_promoted_page_ignores_relocation(self, machine):
        _d, handle, space, mapping = make_mapped_file(machine, pages=2)
        machine.vm.write(space, mapping.vaddr, b"MINE")  # promote page 0
        key = handle.block_key(0)
        old_loc = machine.store.location_of(key)
        machine.store._relocate_and_erase(old_loc.sector, "write")
        # Private DRAM copy is untouched by the flash move.
        assert machine.vm.read(space, mapping.vaddr, 4) == b"MINE"


class TestValidation:
    def test_empty_mapping_rejected(self, machine):
        machine.fs.create("/empty")
        handle = machine.fs.open("/empty")
        space = machine.vm.create_space("p")
        with pytest.raises(ValueError):
            machine.mmap.map_file(space, handle, 0)

    def test_msync_on_closed_mapping_rejected(self, machine):
        _d, _h, _space, mapping = make_mapped_file(machine)
        machine.mmap.unmap(mapping)
        with pytest.raises(ValueError):
            machine.mmap.msync(mapping)
