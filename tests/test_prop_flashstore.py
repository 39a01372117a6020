"""Property-based tests for the log-structured flash store.

Invariants under arbitrary write/overwrite/delete sequences:

- the store behaves exactly like a dict (latest version wins, deletes
  remove, misses raise), regardless of cleaning and wear activity;
- allocator accounting stays consistent (checked via check_invariants);
- no logical block is ever silently lost by the cleaner;
- the open sector is OPEN and every sector the cleaner empties is
  SEALED, so no selector needs to skip either one.
"""

from hypothesis import given, settings, strategies as st

from repro.devices import FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.faults.injector import FaultInjector, FaultPlan
from repro.sim import SimClock
from repro.storage import (
    CleaningPolicy, FlashStore, InPlaceFlashStore, OutOfFlashSpace, WearPolicy,
)
from repro.storage.allocator import SUMMARY_BYTES, SectorState

KB = 1024


@st.composite
def store_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 120))):
        kind = draw(st.sampled_from(["write", "write", "write", "delete", "tick"]))
        key = draw(st.integers(0, 7))
        if kind == "write":
            length = draw(st.integers(1, 3 * KB))
            fill = draw(st.integers(0, 255))
            ops.append(("write", key, bytes([fill]) * length))
        elif kind == "delete":
            ops.append(("delete", key, b""))
        else:
            ops.append(("tick", 0, b""))
    return ops


@given(
    store_ops(),
    st.sampled_from(list(WearPolicy)),
    st.sampled_from(list(CleaningPolicy)),
)
@settings(max_examples=40, deadline=None)
def test_store_behaves_like_dict(ops, wear, cleaning):
    clock = SimClock()
    flash = FlashMemory(96 * KB, spec=FLASH_PAPER_NOMINAL, banks=2)
    store = FlashStore(flash, clock, wear=wear, cleaning=cleaning, free_target_sectors=2)
    model = {}
    for kind, key, payload in ops:
        if kind == "write":
            store.write_block(key, payload)
            model[key] = payload
        elif kind == "delete":
            if key in model:
                store.delete_block(key)
                del model[key]
        else:
            clock.advance(10.0)
    for key, payload in model.items():
        assert store.read_block(key) == payload
    for key in range(8):
        assert store.contains(key) == (key in model)
    store.allocator.check_invariants()
    live = store.allocator.total_live_bytes
    summary_overhead = len(model) * SUMMARY_BYTES
    assert live == sum(len(v) for v in model.values()) + summary_overhead


@given(
    st.integers(0, 2**32),
    st.sampled_from(list(WearPolicy)),
    st.sampled_from(list(CleaningPolicy)),
    st.sampled_from([0.0, 0.02]),
)
@settings(max_examples=40, deadline=None)
def test_open_sector_is_open_and_victims_are_sealed(seed, wear, cleaning, fail_rate):
    """``_open`` is None or an OPEN sector after every op, and every
    sector that cleaning or static rotation empties is SEALED -- with
    program failures retiring sectors on the way.  So a victim is never
    the open sector, and a sector opened for relocated data (taken from
    the free set) is never the one being emptied.  The ops come from a
    seeded stream, so most examples fill the device and clean."""
    from repro.sim.rand import RandomStream

    rng = RandomStream(seed)
    clock = SimClock()
    flash = FlashMemory(96 * KB, spec=FLASH_PAPER_NOMINAL, banks=2)
    plan = FaultPlan(seed=seed, program_fail_rate=fail_rate, permanent_fraction=0.5)
    FaultInjector(plan).attach(flash)
    store = FlashStore(
        flash, clock, wear=wear, cleaning=cleaning, free_target_sectors=2,
        wear_gap_threshold=1,  # STATIC rotates as soon as wear differs
    )
    sectors = store.allocator.sectors
    emptied = []
    relocate_and_erase = store._relocate_and_erase

    def checked(victim):
        emptied.append(sectors[victim].state)
        relocate_and_erase(victim)

    store._relocate_and_erase = checked
    for _ in range(150):
        key = rng.randint(0, 7)
        kind = rng.randint(0, 4)
        try:
            if kind < 3:
                store.write_block(key, bytes([kind]) * rng.randint(1, 3 * KB))
            elif kind == 3 and store.contains(key):
                store.delete_block(key)
            else:
                clock.advance(10.0)
        except OutOfFlashSpace:
            break  # retirements used the device up
        assert store._open is None or sectors[store._open].state is SectorState.OPEN
    assert all(state is SectorState.SEALED for state in emptied)
    store.allocator.check_invariants()


@given(store_ops())
@settings(max_examples=25, deadline=None)
def test_in_place_store_behaves_like_dict(ops):
    clock = SimClock()
    flash = FlashMemory(96 * KB, spec=FLASH_PAPER_NOMINAL, banks=1)
    store = InPlaceFlashStore(flash, clock)
    model = {}
    for kind, key, payload in ops:
        if kind == "write":
            store.write_block(key, payload)
            model[key] = payload
        elif kind == "delete":
            if key in model:
                store.delete_block(key)
                del model[key]
        else:
            clock.advance(10.0)
    for key, payload in model.items():
        assert store.read_block(key) == payload
    # An overwrite's neighbours come from its sector's slot list: the
    # keys, in order, that a scan of every key's slot would find.
    scanned = {}
    for key, (sector, slot) in store._slot_of.items():
        scanned.setdefault(sector, []).append((slot, key))
    assert store._sector_slots == scanned


@given(st.integers(0, 2**32), st.integers(2, 6))
@settings(max_examples=20, deadline=None)
def test_cleaning_preserves_every_block_under_pressure(seed, hot_keys):
    from repro.sim.rand import RandomStream

    rng = RandomStream(seed)
    clock = SimClock()
    flash = FlashMemory(128 * KB, spec=FLASH_PAPER_NOMINAL, banks=2)
    store = FlashStore(flash, clock, free_target_sectors=2)
    model = {}
    for i in range(300):
        key = rng.randint(0, hot_keys)
        payload = bytes([i & 0xFF]) * rng.randint(512, 2048)
        store.write_block(key, payload)
        model[key] = payload
        clock.advance(1.0)
    assert store.stats.value("erases") > 0, "pressure should force cleaning"
    for key, payload in model.items():
        assert store.read_block(key) == payload
    store.allocator.check_invariants()
