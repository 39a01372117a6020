"""Property-based tests for the flash device model.

Invariants:

- ``FlashMemory`` on 4 KB sectors in 2 banks agrees bit for bit with
  :class:`tests._reference.FlashModel` on any program / erase / read
  sequence (see :func:`tests._reference.compare`): data programmed into
  erased bytes reads back exactly, programming non-erased bytes raises
  and changes nothing, and the erased state reads 0xFF;
- erase counts are conserved (sum of per-sector counts == total);
- a busy bank never stalls a read of another bank.
"""

from hypothesis import given, settings, strategies as st

import dataclasses

from repro.devices import FlashMemory
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from tests._reference import FlashModel, compare, payload

KB = 1024

FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=4 * KB
)
CAPACITY = 64 * KB  # 16 sectors of 4 KB
SECTORS = CAPACITY // (4 * KB)


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["program", "erase_sector", "read"]))
        if kind == "erase_sector":
            ops.append((kind, draw(st.integers(0, SECTORS - 1)), 0))
        else:
            ops.append((kind, draw(st.integers(0, CAPACITY - 1500)), draw(st.integers(1, 1500))))
    return ops


@given(op_sequences())
@settings(max_examples=60, deadline=None)
def test_flash_matches_reference_model(ops):
    flash = FlashMemory(CAPACITY, spec=FLASH_4K, banks=2)
    ref = FlashModel(CAPACITY, spec=FLASH_4K, banks=2)
    flash.tracer, ref.tracer = Tracer(), Tracer()
    for i, op in enumerate(ops):
        t = float(i + 1)
        data = payload(op[1], op[2]) if op[0] == "program" else b""
        compare(flash, ref, op, (SimClock(t), SimClock(t)), data)


@given(
    st.lists(st.integers(0, SECTORS - 1), min_size=1, max_size=100),
)
@settings(max_examples=50, deadline=None)
def test_erase_counts_conserved(sectors):
    flash = FlashMemory(CAPACITY, spec=FLASH_4K, banks=4)
    for i, sector in enumerate(sectors):
        flash.erase_sector(sector, SimClock(float(i)))
    per_sector = sum(flash.sector_erase_count(s) for s in range(flash.num_sectors))
    assert per_sector == flash.total_erases == len(sectors)
    summary = flash.wear_summary()
    assert summary["max_erases"] >= summary["min_erases"]


@given(st.integers(1, 4), st.integers(0, SECTORS - 1))
@settings(max_examples=30, deadline=None)
def test_bank_busy_never_blocks_other_banks(banks_pow, sector):
    banks = 2 ** (banks_pow - 1)
    flash = FlashMemory(CAPACITY, spec=FLASH_4K, banks=banks)
    sector = sector % flash.num_sectors
    flash.erase_sector(sector, SimClock())
    busy_bank = flash.bank_of_sector(sector)
    for other in range(flash.num_sectors):
        if flash.bank_of_sector(other) != busy_bank:
            start, _ = flash.sector_range(other)
            _, _, wait = flash.read(start, 64, SimClock())
            assert wait == 0.0
