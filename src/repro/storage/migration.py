"""Hot/cold data classification and migration policy.

Paper Section 3.3: "The storage manager will be responsible for migrating
data between DRAM and flash memory to keep data that is frequently
written in DRAM, and data that is mostly read in flash memory."

:class:`HotColdTracker` keeps an exponentially decayed write rate per
block key.  The decay means a file that was hot during a compile but has
gone quiet cools off and becomes eligible for the read-mostly flash
banks, while a steadily rewritten mailbox stays classified hot and is
placed in the write pool (and preferentially retained in the DRAM write
buffer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable


@dataclass
class _Heat:
    rate: float  # decayed writes-per-halflife score
    last_update: float


class HotColdTracker:
    """Exponentially decayed per-key write-frequency estimator."""

    def __init__(self, half_life_s: float = 60.0, hot_threshold: float = 1.5) -> None:
        """A key is HOT while its decayed score exceeds ``hot_threshold``.

        With the default threshold a key needs roughly two writes per
        half-life to stay hot; a single write leaves it cold once decay
        sets in.
        """
        if half_life_s <= 0:
            raise ValueError("half life must be positive")
        self.half_life_s = half_life_s
        self.hot_threshold = hot_threshold
        self._heat: Dict[Hashable, _Heat] = {}
        self._ln2 = math.log(2.0)

    def _decayed(self, heat: _Heat, now: float) -> float:
        dt = max(0.0, now - heat.last_update)
        return heat.rate * math.exp(-self._ln2 * dt / self.half_life_s)

    def record_write(self, key: Hashable, now: float) -> bool:
        """Count one write of ``key`` at ``now``; returns ``is_hot(key, now)``.

        The score at ``now`` is exactly the rate just stored: with no
        time elapsed the decay factor is ``exp(-0.0) == 1.0``.
        """
        heat = self._heat.get(key)
        if heat is None:
            self._heat[key] = _Heat(rate=1.0, last_update=now)
            return 1.0 >= self.hot_threshold
        heat.rate = self._decayed(heat, now) + 1.0
        heat.last_update = now
        return heat.rate >= self.hot_threshold

    def forget(self, key: Hashable) -> None:
        self._heat.pop(key, None)

    def is_hot(self, key: Hashable, now: float) -> bool:
        """True while the key's decayed score at ``now`` is at least
        ``hot_threshold`` (an untracked key scores 0)."""
        heat = self._heat.get(key)
        if heat is None:
            return 0.0 >= self.hot_threshold
        dt = max(0.0, now - heat.last_update)
        rate = heat.rate * math.exp(-self._ln2 * dt / self.half_life_s)
        return rate >= self.hot_threshold
