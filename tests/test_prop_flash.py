"""Property-based tests for the flash device model.

Invariants:

- data programmed into erased bytes always reads back exactly;
- programming non-erased bytes always raises, never corrupts silently;
- erase counts are conserved (sum of per-sector counts == total);
- the erased state reads 0xFF everywhere no live data was programmed.
"""

from hypothesis import given, settings, strategies as st

import dataclasses

from repro.devices import FlashMemory, WriteBeforeEraseError
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.sim.clock import SimClock

KB = 1024

FLASH_4K = dataclasses.replace(
    FLASH_PAPER_NOMINAL, name="test 4K-sector flash", erase_sector_bytes=4 * KB
)
CAPACITY = 64 * KB  # 16 sectors of 4 KB
SECTORS = CAPACITY // (4 * KB)


def ranges(draw_len=st.integers(1, 1500)):
    return st.tuples(st.integers(0, CAPACITY - 1500), draw_len)


@st.composite
def op_sequences(draw):
    ops = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(["program", "erase", "read"]))
        if kind == "erase":
            ops.append(("erase", draw(st.integers(0, SECTORS - 1)), b""))
        else:
            offset, length = draw(ranges())
            payload = bytes([draw(st.integers(0, 254))]) * length
            ops.append((kind, offset, payload))
    return ops


class ReferenceFlash:
    """A trivially correct model: bytearray + per-byte programmed flags."""

    def __init__(self):
        self.data = bytearray(b"\xff" * CAPACITY)
        self.programmed = bytearray(CAPACITY)

    def program(self, offset, payload):
        if any(self.programmed[offset : offset + len(payload)]):
            raise WriteBeforeEraseError("ref", offset, len(payload))
        self.data[offset : offset + len(payload)] = payload
        for i in range(offset, offset + len(payload)):
            self.programmed[i] = 1

    def erase(self, sector):
        start = sector * 4 * KB
        end = start + 4 * KB
        self.data[start:end] = b"\xff" * (4 * KB)
        self.programmed[start:end] = bytes(4 * KB)

    def read(self, offset, length):
        return bytes(self.data[offset : offset + length])


@given(op_sequences())
@settings(max_examples=60, deadline=None)
def test_flash_matches_reference_model(ops):
    flash = FlashMemory(CAPACITY, spec=FLASH_4K, banks=2)
    ref = ReferenceFlash()
    t = 0.0
    for kind, arg, payload in ops:
        t += 1.0
        if kind == "program":
            try:
                ref.program(arg, payload)
                ref_ok = True
            except WriteBeforeEraseError:
                ref_ok = False
            if ref_ok:
                flash.program(arg, payload, SimClock(t))
            else:
                try:
                    flash.program(arg, payload, SimClock(t))
                    raise AssertionError("model allowed write-before-erase")
                except WriteBeforeEraseError:
                    pass
        elif kind == "erase":
            ref.erase(arg)
            flash.erase_sector(arg, SimClock(t))
        else:
            expected = ref.read(arg, len(payload))
            got, _, _ = flash.read(arg, len(payload), SimClock(t))
            assert got == expected


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
