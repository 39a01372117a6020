"""Flash translation layers: flash pretending to be a disk.

Two ways to run the conventional block-based file system over flash:

- :class:`EraseInPlaceFlashBlockDevice` -- the naive mapping the paper
  warns about: every logical block lives at a fixed flash address, so
  each block write is an erase (of the covering sector, with
  read-modify-write of innocent bystanders when the erase sector is
  larger than the block) followed by a program.  Slow, and it drills
  wear hot-spots wherever the FS keeps its metadata.
- :class:`LogStructuredFTL` -- the remapping layer the paper's Section
  3.3 gestures at ("garbage collection techniques like those used in
  log-structured file systems"): logical blocks are appended to the
  flash log through :class:`~repro.storage.flashstore.FlashStore`, which
  supplies cleaning and wear leveling.  This is the ancestor of every
  real FTL.
"""

from __future__ import annotations

from repro.devices.flash import FlashMemory
from repro.fs.blockdev import BLOCK_SIZE, BlockDevice
from repro.sim.clock import SimClock
from repro.storage.flashstore import FlashStore


class EraseInPlaceFlashBlockDevice(BlockDevice):
    """Fixed logical-to-physical mapping; erase on every overwrite."""

    def __init__(self, flash: FlashMemory, clock: SimClock) -> None:
        super().__init__(f"eip-{flash.name}", flash.capacity_bytes // BLOCK_SIZE)
        if BLOCK_SIZE % flash.sector_bytes and flash.sector_bytes % BLOCK_SIZE:
            raise ValueError(
                "block size and erase sector must divide one another "
                f"(block={BLOCK_SIZE}, sector={flash.sector_bytes})"
            )
        self.flash = flash
        self.clock = clock

    def read_block(self, lba: int) -> bytes:
        if not 0 <= lba < self.nblocks:
            self.check_lba(lba)
        return self.flash.read(lba * self.block_size, self.block_size, self.clock)[0]

    def write_block(self, lba: int, data: bytes) -> None:
        if not 0 <= lba < self.nblocks:
            self.check_lba(lba)
        if len(data) != self.block_size:
            raise ValueError(f"block write must be exactly {self.block_size} bytes")
        offset = lba * self.block_size
        sector_bytes = self.flash.sector_bytes
        first_sector = offset // sector_bytes
        last_sector = (offset + self.block_size - 1) // sector_bytes

        if sector_bytes >= self.block_size:
            # One (or the) covering sector holds other blocks too:
            # read-modify-erase-program the whole sector.
            for sector in range(first_sector, last_sector + 1):
                base = sector * sector_bytes
                if self.flash.sector_programmed_bytes(sector):
                    old = self.flash.read(base, sector_bytes, self.clock)[0]
                else:
                    old = b"\xff" * sector_bytes
                merged = bytearray(old)
                lo = max(base, offset)
                hi = min(base + sector_bytes, offset + self.block_size)
                merged[lo - base : hi - base] = data[lo - offset : hi - offset]
                self.flash.erase_sector(sector, self.clock)
                self.flash.program(base, bytes(merged), self.clock)
        else:
            # Block spans whole sectors: erase them, program the block.
            for sector in range(first_sector, last_sector + 1):
                self.flash.erase_sector(sector, self.clock)
            self.flash.program(offset, data, self.clock)


class LogStructuredFTL(BlockDevice):
    """Remapping FTL over the log-structured flash store; logical block
    ``lba`` is stored under the key ``("lba", lba)``."""

    #: Share of the flash exported as blocks: the rest is cleaning
    #: headroom (real FTLs over-provision the same way).
    exported_fraction = 0.875

    def __init__(self, store: FlashStore) -> None:
        flash = store.flash
        usable = int(flash.capacity_bytes * self.exported_fraction)
        super().__init__(f"ftl-{flash.name}", usable // BLOCK_SIZE)
        if BLOCK_SIZE > flash.sector_bytes:
            raise ValueError("FTL block size cannot exceed the erase sector")
        self.store = store
        self.clock = store.clock

    def read_block(self, lba: int) -> bytes:
        if not 0 <= lba < self.nblocks:
            self.check_lba(lba)
        try:
            # One index lookup: the store's own raises KeyError for a
            # block never written.
            return self.store.read_block(("lba", lba))
        except KeyError:
            return bytes(self.block_size)

    def write_block(self, lba: int, data: bytes) -> None:
        if not 0 <= lba < self.nblocks:
            self.check_lba(lba)
        if len(data) != self.block_size:
            raise ValueError(f"block write must be exactly {self.block_size} bytes")
        self.store.write_block(("lba", lba), data)

    def trim(self, lba: int) -> None:
        """Discard a block (lets the cleaner reclaim it sooner)."""
        key = ("lba", lba)
        if self.store.contains(key):
            self.store.delete_block(key)
