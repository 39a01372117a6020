"""A storage manager over a fresh flash store and write buffer.

The program builds its manager inside ``MobileComputer``; unit tests
that want one on their own devices build it here.
"""

from __future__ import annotations

from repro.devices import DRAM
from repro.storage import FlashStore, StorageManager, WriteBuffer


def build_manager(clock, flash, dram=None, buffer_bytes=1 << 20, compressor=None, **store_kwargs):
    """``store_kwargs`` go to the :class:`FlashStore`; the buffer charges
    ``dram`` (a fresh 4 MB DRAM by default)."""
    store = FlashStore(flash, clock, **store_kwargs)
    buffer = WriteBuffer(buffer_bytes, clock, DRAM(4 << 20) if dram is None else dram)
    return StorageManager(clock, store, buffer, compressor=compressor)
