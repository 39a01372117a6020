"""Property tests: the incremental cleaning-victim index == the O(n) scan.

``choose_victim(COST_BENEFIT)`` reads ``SectorAllocator.best_victim``, a
per-``live_bytes`` heap index over the whole device, kept up to date by
the allocator's own transitions.  It must pick exactly the sector the
full scan below picked -- the highest score, the lowest index among
equal scores -- for every interleaving of
open/append/seal/invalidate/adopt/retire/erase.  The device has four
banks, and sectors of every bank share the buckets.
:func:`choose_victim_scan` is the scan ``choose_victim`` ran for every
policy before the index, kept as the reference.
"""

from __future__ import annotations

import math
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.storage.flashstore as flashstore_module
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.flash import FlashMemory
from repro.storage.allocator import SUMMARY_BYTES, Location, SectorAllocator, SectorState
from repro.storage.gc import _SCORERS, CleaningPolicy, choose_victim
from repro.trace.workloads import generate_workload

KB = 1024
MB = 1024 * KB


def choose_victim_scan(
    allocator: SectorAllocator,
    policy: CleaningPolicy,
    now: float,
) -> Optional[int]:
    scorer = _SCORERS[policy]
    best: Optional[int] = None
    best_score = 0.0
    for info in allocator.sealed_victims():
        if info.dead_bytes <= 0:
            continue
        score = scorer(info, allocator.sector_bytes, now)
        if best is None or score > best_score:
            best = info.index
            best_score = score
    return best


def _up(x: float, steps: int = 1) -> float:
    for _ in range(steps):
        x = math.nextafter(x, math.inf)
    return x


# Exact duplicates come from drawing the same index twice; adjacent
# floats make different seal times whose ages round to one score.
SEAL_TIMES = [
    0.0, 1.0, _up(1.0), 1000.0, _up(1000.0), _up(1000.0, 2),
    math.nextafter(1000.0, -math.inf), 5e5,
]
# 0.5 precedes most seal times (age clamps to 0: everything ties); at
# 1e6 and 1e9 the ages of adjacent seal times round to equal values.
NOWS = [0.5, 1000.0, _up(1000.0), 1e6, 1e9]
SIZES = [1024, 2000, 4096]
NUM_BANKS = 4


def _fresh():
    flash = FlashMemory(32 * 16 * KB, spec=FLASH_PAPER_NOMINAL, banks=NUM_BANKS)
    return SectorAllocator(flash)


def _sectors(allocator, state):
    return [s.index for s in allocator.sectors if s.state is state]


def _live_blocks(allocator):
    return [
        Location(s.index, offset, length)
        for s in allocator.sectors
        for offset, (_key, length) in sorted(s.blocks.items())
    ]


def _assert_agree(allocator, now):
    for policy in CleaningPolicy:
        assert choose_victim(allocator, policy, now) == choose_victim_scan(
            allocator, policy, now
        ), (policy, now)


OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["open", "append", "append", "append", "seal", "invalidate",
             "invalidate", "adopt", "retire", "clean", "erase"]
        ),
        st.integers(min_value=0, max_value=63),  # which sector / block
        st.integers(min_value=0, max_value=63),  # size / seal time / count
        st.integers(min_value=0, max_value=len(NOWS) - 1),
    ),
    min_size=20,
    max_size=80,
)


@settings(max_examples=80, deadline=None)
@given(ops=OPS)
def test_index_matches_scan_under_random_operations(ops):
    allocator = _fresh()
    next_key = 0
    for kind, pick, arg, now_i in ops:
        if kind == "open":
            free = sorted(allocator._free_set)
            if free:
                allocator.take_erased(free[pick % len(free)])
        elif kind == "append":
            opened = _sectors(allocator, SectorState.OPEN)
            if opened:
                sector = opened[pick % len(opened)]
                size = SIZES[arg % len(SIZES)]
                align = 4096 if size == 4096 else 1
                if allocator.fits(sector, size, align):
                    allocator.append(sector, ("k", next_key), size, align)
                    next_key += 1
        elif kind == "seal":
            opened = _sectors(allocator, SectorState.OPEN)
            if opened:
                allocator.seal(opened[pick % len(opened)], SEAL_TIMES[arg % len(SEAL_TIMES)])
        elif kind == "invalidate":
            blocks = _live_blocks(allocator)
            if blocks:
                allocator.invalidate(blocks[pick % len(blocks)])
        elif kind == "adopt":
            free = sorted(allocator._free_set)
            if free:
                count = arg % 4
                size = SIZES[pick % len(SIZES)]
                live = [(i * size, ("k", next_key + i), size) for i in range(count)]
                next_key += count
                allocator.adopt(
                    free[pick % len(free)], live, count + arg % 3,
                    SEAL_TIMES[(pick + arg) % len(SEAL_TIMES)],
                )
        elif kind == "retire":
            empty = [
                s.index for s in allocator.sectors
                if s.state is not SectorState.BAD and not s.live_bytes
            ]
            if len(empty) > 4:
                allocator.retire(empty[pick % len(empty)])
        elif kind == "clean":
            sealed = _sectors(allocator, SectorState.SEALED)
            if sealed:
                victim = sealed[pick % len(sealed)]
                for offset, (_key, length) in sorted(allocator.info(victim).blocks.items()):
                    allocator.invalidate(Location(victim, offset, length))
                allocator.mark_erased(victim)
        elif kind == "erase":
            empty = [
                s.index for s in allocator.sectors
                if s.state in (SectorState.OPEN, SectorState.SEALED) and not s.live_bytes
            ]
            if empty:
                allocator.mark_erased(empty[pick % len(empty)])
        _assert_agree(allocator, NOWS[now_i])
        allocator.check_invariants()


def _sealed_with(allocator, sector, live_blocks, seal_time):
    """Seal ``sector`` holding ``live_blocks`` blocks of 1 KB each,
    summary slot included."""
    allocator.take_erased(sector)
    for i in range(live_blocks):
        allocator.append(sector, ("s", sector, i), 1024 - SUMMARY_BYTES)
    allocator.seal(sector, seal_time)


def test_tie_across_seal_times_picks_lowest_index():
    """Sector 5 is older than sector 2, but at now=1e9 their ages round
    to the same float: the scores tie, so the lower index must win even
    though it sits behind the older sector in heap order."""
    allocator = _fresh()
    _sealed_with(allocator, 5, 3, 1000.0)
    _sealed_with(allocator, 2, 3, _up(1000.0))
    for now in (1e9, 2000.0):
        assert choose_victim(allocator, CleaningPolicy.COST_BENEFIT, now) == (
            choose_victim_scan(allocator, CleaningPolicy.COST_BENEFIT, now)
        )
    assert choose_victim(allocator, CleaningPolicy.COST_BENEFIT, 1e9) == 2
    assert choose_victim(allocator, CleaningPolicy.COST_BENEFIT, 2000.0) == 5


def test_tie_across_banks_picks_lowest_index():
    """Sectors of two banks with equal live bytes share one bucket; the
    lower index wins their tie whatever order they were sealed in."""
    allocator = _fresh()
    assert allocator.info(3).bank != allocator.info(11).bank
    _sealed_with(allocator, 11, 2, 10.0)
    _sealed_with(allocator, 3, 2, 10.0)
    assert len(allocator._victims) == 1
    assert choose_victim(allocator, CleaningPolicy.COST_BENEFIT, 50.0) == 3


def _heap_entries(allocator) -> int:
    return sum(len(b.heap) for b in allocator._victims.values())


def _bucket_count(allocator) -> int:
    return len(allocator._victims)


def test_invalidations_without_cleaning_keep_the_index_small():
    """Thousands of overwrites between cleanings push nothing until the
    next query, and queries keep every heap within its compaction bound."""
    allocator = _fresh()
    for sector in range(len(allocator.sectors)):
        allocator.take_erased(sector)
        while allocator.fits(sector, 100):
            allocator.append(sector, ("b", sector, allocator.info(sector).write_ptr), 100)
        allocator.seal(sector, float(sector))
    blocks = _live_blocks(allocator)
    assert len(blocks) > 3000
    baseline = _heap_entries(allocator)
    # Stride through the blocks so every sector loses live bytes many
    # times, each time moving to a new bucket.
    order = sorted(blocks, key=lambda loc: (loc.offset, loc.sector))
    for n, loc in enumerate(order[:-len(allocator.sectors)], start=1):
        allocator.invalidate(loc)
        if n % 500 == 0:
            assert _heap_entries(allocator) == baseline  # lazy: nothing pushed
        if n % 97 == 0:
            choose_victim(allocator, CleaningPolicy.COST_BENEFIT, 1e4)
            candidates = sum(
                1 for s in allocator.sectors
                if s.state is SectorState.SEALED and s.dead_bytes > 0
            )
            assert _heap_entries(allocator) <= 2 * candidates + _bucket_count(allocator)
            baseline = _heap_entries(allocator)
    allocator.check_invariants()


def test_flash_log_replay_picks_match_the_scan(monkeypatch):
    """Every victim the cleaner picks during a short flash-disk replay
    (8 MB, so cost-benefit cleaning copies live data) equals the scan's."""
    calls = {policy: 0 for policy in CleaningPolicy}

    def checked(allocator, policy, now):
        got = choose_victim(allocator, policy, now)
        assert got == choose_victim_scan(allocator, policy, now)
        calls[policy] += 1
        return got

    monkeypatch.setattr(flashstore_module, "choose_victim", checked)
    machine = MobileComputer(
        SystemConfig(organization=Organization.FLASH_DISK, flash_bytes=8 * MB)
    )
    machine.run_streams([generate_workload("database", seed=1, duration_s=250.0)])
    assert calls[CleaningPolicy.COST_BENEFIT] > 500
    assert machine.store.stats.value("gc_bytes_copied") > 0
    machine.store.allocator.check_invariants()
