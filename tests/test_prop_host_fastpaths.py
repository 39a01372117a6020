"""Property test for a host-side shortcut that must not move a number.

``FlashMemory``'s per-sector programmed-interval bookkeeping finds the
intervals that matter by bisection.  Its intervals must be the maximal
runs of :class:`tests._reference.FlashModel`'s per-byte programmed
flags, and the whole device must agree with that reference bit for bit,
on any program / torn-program / erase sequence: in-order appends, tail
writes growing down, gaps, programs across the sector boundary, and
overlaps that must raise ``WriteBeforeEraseError``.
"""

from __future__ import annotations

import dataclasses
from hypothesis import given, settings, strategies as st

from repro.devices import FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from tests._reference import FlashModel, compare, payload

KB = 1024
SECTOR = 4 * KB
FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=SECTOR
)


#: Abstract ops on a two-sector device, placed against a sector's head
#: and tail pointers when run: "append" programs at the head (plus a
#: small gap), "tail" programs the slot below the tail, "at" programs
#: anywhere (possibly across the sector boundary), "torn" marks a range
#: programmed without the erased check (a power cut mid-program).
offsets = st.one_of(
    st.integers(0, 2 * SECTOR - 1), st.integers(SECTOR - 16, SECTOR + 16)
)
lengths = st.one_of(st.integers(1, 1200), st.integers(1, 17))
device_ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 1),
                  st.sampled_from([0, 0, 0, 1, 7]), st.integers(1, 700)),
        st.tuples(st.just("tail"), st.integers(0, 1), st.just(0),
                  st.sampled_from([64, 64, 100])),
        st.tuples(st.just("at"), st.just(0), offsets, lengths),
        st.tuples(st.just("torn"), st.just(0), offsets, lengths),
        st.tuples(st.just("erase"), st.integers(0, 1), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=60,
)


@given(device_ops)
@settings(max_examples=300, deadline=None)
def test_interval_bookkeeping_matches_the_reference(ops):
    flash = FlashMemory(2 * SECTOR, spec=FLASH_4K, banks=1)
    reference = FlashModel(2 * SECTOR, spec=FLASH_4K, banks=1)
    flash.tracer, reference.tracer = Tracer(), Tracer()
    heads, tails = [0, 0], [SECTOR, SECTOR]
    for step, (kind, sector, a, b) in enumerate(ops, 1):
        clocks = SimClock(float(step)), SimClock(float(step))
        if kind == "erase":
            compare(flash, reference, ("erase_sector", sector, 0), clocks)
            heads[sector], tails[sector] = 0, SECTOR
            continue
        if kind == "append":
            start = sector * SECTOR + min(heads[sector] + a, SECTOR - 1)
            end = min((sector + 1) * SECTOR, start + b)
        elif kind == "tail":
            start = sector * SECTOR + max(0, tails[sector] - b)
            end = sector * SECTOR + tails[sector]
            if start == end:
                continue
        else:
            start, end = a, min(2 * SECTOR, a + b)
        op = ("torn_program" if kind == "torn" else "program", start, end - start)
        compare(flash, reference, op, clocks, payload(start, end - start))
        if kind == "append":
            heads[sector] = end - sector * SECTOR
        elif kind == "tail":
            tails[sector] = start - sector * SECTOR
    for sector, state in enumerate(flash._sectors):
        base = sector * SECTOR
        for lo in range(0, SECTOR, 256):
            for hi in (lo, lo + 1, lo + 256):
                assert state.is_erased(lo, hi) == reference.is_erased(base + lo, base + hi)
