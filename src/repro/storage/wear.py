"""Wear-leveling policies.

Paper Section 3.3: "in order to evenly balance the write load throughout
flash memory, the storage manager can use garbage collection techniques
like those used in log-structured file systems".  Experiment E9 compares
three levels of effort:

- ``NONE`` -- pick the lowest-numbered erased sector (a naive first-fit
  allocator; hot data keeps cycling through the same few sectors).
- ``DYNAMIC`` -- pick the *least-worn* erased sector, levelling wear
  across whatever happens to be free.
- ``STATIC`` -- dynamic allocation plus periodic rotation of *cold* data
  out of low-wear sectors, so even sectors pinned under never-rewritten
  data join the rotation.  This is the policy modern flash translation
  layers (JFFS2, F2FS) converged on.
"""

from __future__ import annotations

import enum
from typing import List, Optional

from repro.storage.allocator import SectorAllocator, SectorState


class WearPolicy(enum.Enum):
    NONE = "none"
    DYNAMIC = "dynamic"
    STATIC = "static"


def choose_erased_sector(
    allocator: SectorAllocator,
    banks: List[int],
    policy: WearPolicy,
) -> Optional[int]:
    """Pick the erased sector to open next, or None if none are free.

    DYNAMIC and STATIC both allocate least-worn-first; STATIC's extra
    behaviour lives in static_rotation_victim().  Selection runs on the
    allocator's per-bank heaps (O(log n)); it picks exactly the sector a
    ``min`` scan over :func:`choose_erased_sector_scan` would.
    """
    return allocator.peek_erased(banks, least_worn=policy is not WearPolicy.NONE)


def choose_erased_sector_scan(
    allocator: SectorAllocator,
    banks: List[int],
    policy: WearPolicy,
) -> Optional[int]:
    """Reference O(n) implementation of :func:`choose_erased_sector`.

    Kept as the oracle for the heap-equivalence property tests; not used
    on the hot path.
    """
    candidates = allocator.erased_sectors(banks)
    if not candidates:
        return None
    if policy is WearPolicy.NONE:
        return min(candidates)
    return min(candidates, key=lambda s: (allocator.flash.sector_erase_count(s), s))


def _serviceable_counts(allocator: SectorAllocator) -> List[int]:
    """Erase counts of in-service sectors (retired BAD sectors are out
    of the rotation and must not pin the wear-gap minimum forever)."""
    return [
        allocator.flash.sector_erase_count(s.index)
        for s in allocator.sectors
        if s.state is not SectorState.BAD
    ]


def wear_gap(allocator: SectorAllocator) -> int:
    """Spread between the most- and least-worn in-service sectors."""
    counts = _serviceable_counts(allocator)
    return max(counts) - min(counts) if counts else 0


def static_rotation_victim(
    allocator: SectorAllocator,
    banks: Optional[List[int]],
    gap_threshold: int,
) -> Optional[int]:
    """Sector whose cold data should be rotated out, if wear is skewed.

    Returns the *least-worn sealed* sector once the wear gap exceeds the
    threshold: its (presumably cold, rarely invalidated) contents get
    relocated so the sector can absorb future erases.  Returns None while
    wear is acceptably level.
    """
    if gap_threshold <= 0:
        raise ValueError("gap threshold must be positive")
    sealed = allocator.sealed_victims(banks if banks else None)
    if not sealed:
        return None
    counts = _serviceable_counts(allocator)
    if not counts or max(counts) - min(counts) < gap_threshold:
        return None
    victim = min(
        sealed,
        key=lambda s: (allocator.flash.sector_erase_count(s.index), s.index),
    )
    # Rotating a heavily-worn sector is pointless; only act when the
    # victim really is on the cold side of the distribution.
    if allocator.flash.sector_erase_count(victim.index) > min(counts) + gap_threshold // 2:
        return None
    return victim.index
