"""A storage manager over a fresh flash store and write buffer.

The program builds its manager inside ``MobileComputer``; unit tests
that want one on their own devices build it here.
"""

from __future__ import annotations

from repro.storage import FlashStore, StorageManager, WriteBuffer


def build_manager(clock, flash, dram=None, buffer_bytes=1 << 20, compressor=None, **store_kwargs):
    """``store_kwargs`` go to the :class:`FlashStore`."""
    store = FlashStore(flash, clock, **store_kwargs)
    buffer = WriteBuffer(buffer_bytes, clock, dram=dram)
    return StorageManager(clock, store, buffer, compressor=compressor)
