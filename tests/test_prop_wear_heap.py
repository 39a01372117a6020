"""Property tests: heap-based erased-sector selection == the O(n) scan.

``SectorAllocator.peek_erased`` (lazily-invalidated heaps over the one
free set) must pick exactly the sector a ``min`` scan over the erased
sectors picks, for every wear policy, under arbitrary interleavings of
open/seal/erase/retire -- the operations that move sectors in and out
of the free set and change erase counts.
:func:`choose_erased_sector_scan` below is that scan, the reference
implementation; it reads sector states, not the free set it checks.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.flash import FlashMemory
from repro.sim.clock import SimClock
from repro.storage.allocator import SectorAllocator, SectorState
from repro.storage.wear import WearPolicy, choose_erased_sector

MB = 1024 * 1024


def choose_erased_sector_scan(allocator, policy):
    """Reference O(n) implementation of :func:`choose_erased_sector`."""
    candidates = [s.index for s in allocator.sectors if s.state is SectorState.ERASED]
    if not candidates:
        return None
    if policy is WearPolicy.NONE:
        return min(candidates)
    return min(candidates, key=lambda s: (allocator.flash.sector_erase_count(s), s))


def _fresh():
    flash = FlashMemory(2 * MB, banks=4)
    return flash, SectorAllocator(flash)


def _assert_agree(allocator, policy):
    assert choose_erased_sector(allocator, policy) == (
        choose_erased_sector_scan(allocator, policy)
    ), policy


# Operations: (kind, sector_choice) where sector_choice indexes into the
# currently-eligible sector list for that kind, making every drawn
# sequence applicable regardless of interleaving.
OPS = st.lists(
    st.tuples(
        st.sampled_from(["open", "seal_and_erase", "wear", "retire"]),
        st.integers(min_value=0, max_value=63),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=60, deadline=None)
@given(ops=OPS, policy=st.sampled_from(list(WearPolicy)))
def test_heap_matches_scan_under_random_operations(ops, policy):
    flash, allocator = _fresh()
    now = 0.0
    for kind, pick in ops:
        now += 1.0
        if kind == "open":
            free = sorted(allocator._free_set)
            if free:
                allocator.take_erased(free[pick % len(free)])
        elif kind == "seal_and_erase":
            opened = [s.index for s in allocator.sectors if s.state is SectorState.OPEN]
            if opened:
                sector = opened[pick % len(opened)]
                allocator.seal(sector, now)
                flash.erase_sector(sector, SimClock(now))
                allocator.mark_erased(sector)
        elif kind == "wear":
            # Age a *non-free* sector: erase counts can only move while a
            # sector is off the free list (the device only erases sectors
            # that hold data), so model exactly that.
            opened = [s.index for s in allocator.sectors if s.state is SectorState.OPEN]
            if opened:
                sector = opened[pick % len(opened)]
                for _ in range(1 + pick % 3):
                    flash.erase_sector(sector, SimClock(now))
        elif kind == "retire":
            free = sorted(allocator._free_set)
            if free:
                allocator.retire(free[pick % len(free)])
        allocator.check_invariants()
        _assert_agree(allocator, policy)


@settings(max_examples=40, deadline=None)
@given(
    retire_picks=st.lists(st.integers(min_value=0, max_value=63), min_size=1, max_size=8),
    policy=st.sampled_from(list(WearPolicy)),
)
def test_heap_matches_scan_after_bad_block_retirement(retire_picks, policy):
    """Retired sectors never surface from the heaps, matching the scan."""
    _flash, allocator = _fresh()
    for pick in retire_picks:
        free = sorted(allocator._free_set)
        if not free:
            break
        allocator.retire(free[pick % len(free)])
        allocator.check_invariants()
        _assert_agree(allocator, policy)
        chosen = choose_erased_sector(allocator, policy)
        if chosen is not None:
            assert allocator.sectors[chosen].state is SectorState.ERASED


@settings(max_examples=30, deadline=None)
@given(cycles=st.integers(min_value=1, max_value=12))
def test_stale_wear_entries_are_discarded(cycles):
    """A sector that leaves and rejoins the free list with higher wear
    must not be picked on the strength of its stale (old-count) entry."""
    flash, allocator = _fresh()
    now = 0.0
    victim = 0
    for _ in range(cycles):
        now += 1.0
        allocator.take_erased(victim)
        allocator.seal(victim, now)
        flash.erase_sector(victim, SimClock(now))
        allocator.mark_erased(victim)
    # victim now has the highest erase count; DYNAMIC must avoid it.
    assert flash.sector_erase_count(victim) == cycles
    chosen = choose_erased_sector(allocator, WearPolicy.DYNAMIC)
    assert chosen != victim
    assert chosen == choose_erased_sector_scan(allocator, WearPolicy.DYNAMIC)
