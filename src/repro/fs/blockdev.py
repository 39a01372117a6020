"""Block-device abstraction for the conventional file system.

The conventional FS is written against :class:`BlockDevice` so the same
code runs over a magnetic disk, over naive erase-in-place flash, or over
a log-structured FTL (see :mod:`repro.fs.flashlog`) -- the three
secondary-storage organizations experiment E12 compares.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.devices.disk import MagneticDisk
from repro.sim.clock import SimClock


#: The one block size every device exports: the conventional FS's block.
BLOCK_SIZE = 4096


class BlockDevice(ABC):
    """Fixed-size-block storage with timed access."""

    block_size = BLOCK_SIZE

    def __init__(self, name: str, nblocks: int) -> None:
        if nblocks <= 0:
            raise ValueError("block device needs positive geometry")
        self.name = name
        self.nblocks = nblocks

    def check_lba(self, lba: int) -> None:
        if not 0 <= lba < self.nblocks:
            raise ValueError(f"{self.name}: LBA {lba} outside [0, {self.nblocks})")

    @abstractmethod
    def read_block(self, lba: int) -> bytes:
        """Read one block (advances the simulated clock)."""

    @abstractmethod
    def write_block(self, lba: int, data: bytes) -> None:
        """Write one block (advances the simulated clock)."""


class DiskBlockDevice(BlockDevice):
    """A magnetic disk presented as an array of blocks."""

    def __init__(self, disk: MagneticDisk, clock: SimClock, nblocks: int = 0) -> None:
        """``nblocks`` limits the exported size (0 = whole disk), so a
        swap partition can live past the file-system area."""
        max_blocks = disk.capacity_bytes // BLOCK_SIZE
        if nblocks <= 0:
            nblocks = max_blocks
        if nblocks > max_blocks:
            raise ValueError("exported blocks exceed disk capacity")
        super().__init__(f"blk-{disk.name}", nblocks)
        self.disk = disk
        self.clock = clock

    def read_block(self, lba: int) -> bytes:
        if not 0 <= lba < self.nblocks:
            self.check_lba(lba)
        return self.disk.read(lba * self.block_size, self.block_size, self.clock)[0]

    def write_block(self, lba: int, data: bytes) -> None:
        if not 0 <= lba < self.nblocks:
            self.check_lba(lba)
        if len(data) != self.block_size:
            raise ValueError(f"block write must be exactly {self.block_size} bytes")
        self.disk.write(lba * self.block_size, data, self.clock)
