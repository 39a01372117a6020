"""Near-full log behaviour: GC reserve, emergency cleaning, honest ENOSPC.

These lock in the fix for the classic LFS deadlock: the cleaner must
never be left holding live data with no erased sector to put it in, and
a genuinely full device must fail a *user write* with OutOfFlashSpace
instead of dying inside the cleaner.
"""

import pytest

from repro.devices import FlashMemory
from repro.sim import SimClock
from repro.storage import FlashStore, OutOfFlashSpace

KB = 1024
MB = 1024 * 1024


def make_store(capacity=1 * MB, banks=2, **kwargs):
    clock = SimClock()
    flash = FlashMemory(capacity, banks=banks)
    return FlashStore(flash, clock, **kwargs)


class TestHighUtilizationChurn:
    def test_churn_at_85_percent_full_survives(self):
        store = make_store()
        usable = store.flash.capacity_bytes
        # Fill ~85% with live data...
        nblocks = int(usable * 0.85) // (4 * KB)
        for i in range(nblocks):
            store.write_block(("cold", i), bytes([i & 0xFF]) * (4 * KB - 80))
        # ...then churn a handful of hot blocks hard.  Every write forces
        # cleaning at high utilization; none may fail or lose data.
        for i in range(400):
            store.write_block(("hot", i % 4), bytes([i & 0xFF]) * (4 * KB - 80))
            store.clock.advance(0.2)
        for i in range(4):
            assert store.read_block(("hot", i))
        for i in range(0, nblocks, max(1, nblocks // 20)):
            assert store.read_block(("cold", i)) == bytes([i & 0xFF]) * (4 * KB - 80)
        store.allocator.check_invariants()
        assert store.stats.value("erases") > 0

    def test_truly_full_raises_on_user_write(self):
        store = make_store(capacity=512 * KB, banks=1)
        with pytest.raises(OutOfFlashSpace):
            for i in range(100000):
                store.write_block(("live", i), b"z" * (4 * KB - 80))
        # The failure is an honest ENOSPC: existing data is all intact.
        count = 0
        for i in range(100000):
            if not store.contains(("live", i)):
                break
            assert store.read_block(("live", i)) == b"z" * (4 * KB - 80)
            count += 1
        assert count > 0
        store.allocator.check_invariants()

    def test_space_recoverable_after_enospc(self):
        store = make_store(capacity=512 * KB, banks=1)
        written = []
        try:
            for i in range(100000):
                store.write_block(("live", i), b"z" * (4 * KB - 80))
                written.append(i)
        except OutOfFlashSpace:
            pass
        # Delete half the live data; writes must work again.
        for i in written[:: 2]:
            store.delete_block(("live", i))
        for i in range(10):
            store.write_block(("fresh", i), b"f" * (4 * KB - 80))
            assert store.read_block(("fresh", i)) == b"f" * (4 * KB - 80)
        store.allocator.check_invariants()

    def test_reserve_scales_with_device(self):
        tiny = make_store(capacity=128 * KB, banks=1)  # 8 sectors
        big = make_store(capacity=2 * MB, banks=2)  # 128 sectors
        assert tiny.gc_reserve_sectors == 1
        assert big.gc_reserve_sectors == 2

    def test_recovery_of_nearly_full_device(self):
        store = make_store()
        usable = store.flash.capacity_bytes
        nblocks = int(usable * 0.8) // (4 * KB)
        for i in range(nblocks):
            store.write_block(("d", i), bytes([i & 0xFF]) * (4 * KB - 80))
        flash, clock = store.flash, store.clock
        recovered = FlashStore.recover(flash, clock)
        for i in range(nblocks):
            assert recovered.read_block(("d", i)) == bytes([i & 0xFF]) * (4 * KB - 80)
        # And the recovered store can still clean and write.
        recovered.write_block(("d", 0), b"updated!" * 8)
        assert recovered.read_block(("d", 0)) == b"updated!" * 8
