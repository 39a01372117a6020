"""Garbage-collection (cleaning) policies.

Out-of-place updates leave dead blocks behind; cleaning relocates the
remaining live blocks out of a victim sector and erases it.  The paper
points at "garbage collection techniques like those used in
log-structured file systems [Rosenblum & Ousterhout] and some programming
language environments [Ungar]".  We implement the two classic LFS victim
selectors plus a generational variant inspired by Ungar's scavenger:

- ``GREEDY`` -- most dead bytes first; optimal when utilization is
  uniform, poor under hot/cold skew.
- ``COST_BENEFIT`` -- LFS's ``(1 - u) * age / (1 + u)`` score, which
  prefers old, stable (cold) sectors even at moderate utilization and
  avoids repeatedly copying hot data.
- ``GENERATIONAL`` -- segregates by age: young sectors (recently sealed)
  are scavenged eagerly because their data dies fast; old sectors only
  when space demands it.  Behaves like cost-benefit with a sharper age
  split.
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.storage.allocator import SectorAllocator, SectorInfo


class CleaningPolicy(enum.Enum):
    GREEDY = "greedy"
    COST_BENEFIT = "cost_benefit"
    GENERATIONAL = "generational"


def _greedy_score(info: SectorInfo, sector_bytes: int, now: float) -> float:
    return float(info.dead_bytes)


def _cost_benefit_score(info: SectorInfo, sector_bytes: int, now: float) -> float:
    u = info.live_bytes / sector_bytes
    age = max(0.0, now - info.seal_time)
    # Cleaning cost is 1 (read) + u (write-back of live data); benefit is
    # the freed space (1 - u) weighted by stability (age).
    return (1.0 - u) * (1.0 + age) / (1.0 + u)


def _generational_score(info: SectorInfo, sector_bytes: int, now: float) -> float:
    u = info.live_bytes / sector_bytes
    age = max(0.0, now - info.seal_time)
    young = age < 30.0  # the "new generation": sealed within ~30 s
    base = 1.0 - u
    # Young, mostly-dead sectors are prime scavenging targets; young
    # but still-live sectors should be left to finish dying.
    if young:
        return base * 4.0 if u < 0.25 else base * 0.25
    return base * (1.0 + age / 300.0)


_SCORERS = {
    CleaningPolicy.GREEDY: _greedy_score,
    CleaningPolicy.COST_BENEFIT: _cost_benefit_score,
    CleaningPolicy.GENERATIONAL: _generational_score,
}


def choose_victim(
    allocator: SectorAllocator,
    policy: CleaningPolicy,
    now: float,
) -> Optional[int]:
    """Pick the sealed sector to clean next, or None if nothing qualifies.

    Only sectors with at least one dead byte are candidates -- cleaning a
    fully-live sector recovers nothing and burns an erase cycle (except
    for static wear rotation, which goes through a separate path).  The
    highest score wins, the lowest sector index among equal scores.
    ``COST_BENEFIT`` reads the allocator's incremental victim index
    instead of scoring every sealed sector; the pick is the same.
    """
    if policy is CleaningPolicy.COST_BENEFIT:
        return allocator.best_victim(_cost_benefit_score, now)
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


class CleaningStats:
    """How often allocation pressure forced the cleaner onto the write
    path (the bytes it copies are the store's ``gc_bytes_copied``)."""

    def __init__(self) -> None:
        self.forced_cleanings = 0  # cleanings triggered by allocation pressure
