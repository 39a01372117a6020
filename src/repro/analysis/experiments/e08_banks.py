"""E8 -- flash bank partitioning (Section 3.3).

Claims regenerated:

- "In order to maintain fast read access to programs and other data in
  secondary storage during the slow erase/write cycles of flash memory,
  it may prove necessary to partition flash memory into two or more
  banks.  One bank would hold read-mostly data, such as application
  programs, while others would be used for data that is more frequently
  written."

The driver runs an *open-loop* experiment directly against the flash
device: a write/erase stream (the churn) and an independent Poisson read
stream (a user reading programs/data), each with its own arrival
timeline, merged in timestamp order.  With one bank every read that
lands during an erase stalls for tens of milliseconds; with the churn
confined to a dedicated write bank, reads of read-mostly data never
stall.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.experiments.base import ExperimentResult
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.flash import FlashMemory
from repro.sim.clock import SimClock
from repro.sim.rand import substream
from repro.sim.stats import Histogram

MB = 1024 * 1024
READ_BYTES = 4096


def _run_case(
    label: str,
    banks: int,
    churn_banks: int,
    duration_s: float,
    write_rate: float,
    read_rate: float,
    seed: int,
) -> list:
    """One configuration's row of read-latency statistics."""
    flash = FlashMemory(8 * MB, spec=FLASH_PAPER_NOMINAL, banks=banks)
    rng = substream(seed, f"e8:{banks}:{churn_banks}")

    write_sectors = list(range(churn_banks * flash.sectors_per_bank))
    read_sector_base = churn_banks * flash.sectors_per_bank
    if read_sector_base >= flash.num_sectors:
        # Unpartitioned: reads hit the same sectors the churn uses.
        read_sectors = list(range(flash.num_sectors))
    else:
        read_sectors = list(range(read_sector_base, flash.num_sectors))

    # Build both arrival timelines, then merge by timestamp.
    events: List[Tuple[float, str]] = []
    t = 0.0
    while t < duration_s:
        t += rng.expovariate(write_rate)
        events.append((t, "write"))
    t = 0.0
    while t < duration_s:
        t += rng.expovariate(read_rate)
        events.append((t, "read"))
    events.sort()

    latency = Histogram()
    stalled = 0
    wi = 0
    for when, kind in events:
        if kind == "write":
            sector = write_sectors[wi % len(write_sectors)]
            wi += 1
            flash.erase_sector(sector, SimClock(when))
            start, _ = flash.sector_range(sector)
            flash.program(start, b"\x5a" * 512, SimClock(when + 1e-9))
        else:
            sector = read_sectors[rng.randint(0, len(read_sectors) - 1)]
            start, _ = flash.sector_range(sector)
            _, took, wait = flash.read(start, READ_BYTES, SimClock(when))
            latency.record(took)
            if wait > 1e-12:
                stalled += 1
    return [
        label,
        latency.count,
        stalled / latency.count if latency.count else 0.0,
        latency.mean * 1e3,
        latency.percentile(95) * 1e3,
        latency.percentile(99) * 1e3,
        latency.maximum * 1e3,
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 30.0 if quick else 120.0
    write_rate = 4.0  # erase+program cycles per second: a busy flush
    read_rate = 40.0
    cases = [
        ("1 bank (no partition)", 1, 1),
        ("2 banks, unpartitioned churn", 2, 2),
        ("2 banks, 1 write + 1 read-mostly", 2, 1),
        ("4 banks, 1 write + 3 read-mostly", 4, 1),
    ]
    result = ExperimentResult(
        experiment_id="E8",
        title="Read latency under write/erase churn vs bank partitioning",
        headers=["configuration", "reads", "stalled", "mean_ms", "p95_ms", "p99_ms", "max_ms"],
        rows=[
            _run_case(label, banks, churn_banks, duration, write_rate, read_rate, seed)
            for label, banks, churn_banks in cases
        ],
    )
    by_case = {row["configuration"]: row for row in result.row_dicts()}
    single = by_case["1 bank (no partition)"]
    part = by_case["2 banks, 1 write + 1 read-mostly"]
    result.notes.append(
        f"single bank: {single['stalled']:.1%} of reads stall behind "
        f"erases (p99 {single['p99_ms']:.1f} ms); with a dedicated write bank "
        f"{part['stalled']:.1%} stall (p99 {part['p99_ms']:.3f} ms)"
    )
    return result
