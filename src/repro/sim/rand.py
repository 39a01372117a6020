"""Deterministic random streams.

Every stochastic component (trace generator, failure injector, cleaning
policy tie-breaks) draws from its own named :class:`RandomStream` derived
from a single experiment seed.  Two properties follow:

1. Re-running an experiment with the same seed reproduces it bit-for-bit.
2. Changing one component's draw pattern does not perturb another
   component's stream (no shared-generator coupling).
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import List, Sequence, TypeVar

T = TypeVar("T")


def substream(seed: int, name: str) -> "RandomStream":
    """Derive an independent stream from ``(seed, name)``.

    The derivation hashes the pair so that streams for different names are
    decorrelated even for adjacent seeds.
    """
    digest = hashlib.sha256(f"{seed}:{name}".encode("utf-8")).digest()
    return RandomStream(int.from_bytes(digest[:8], "big"))


class RandomStream:
    """A thin, explicit wrapper over :class:`random.Random`.

    Exposes only the distributions the simulator needs, with argument
    validation, plus a couple of heavy-tailed helpers (Zipf, bounded
    lognormal) that the standard library lacks.
    """

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self.seed = seed

    def random(self) -> float:
        return self._rng.random()

    def randint(self, low: int, high: int) -> int:
        """Inclusive integer range, like :func:`random.randint`."""
        if high < low:
            raise ValueError("randint() requires low <= high")
        return self._rng.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        if not items:
            raise ValueError("choice() on empty sequence")
        return self._rng.choice(items)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time with the given rate (1/s)."""
        if rate <= 0.0:
            raise ValueError("expovariate() requires a positive rate")
        return self._rng.expovariate(rate)

    def lognormal(self, median: float, sigma: float) -> float:
        """Lognormal draw parameterized by its *median* (more intuitive
        than mu when calibrating file-size distributions)."""
        if median <= 0.0:
            raise ValueError("lognormal() requires a positive median")
        return self._rng.lognormvariate(math.log(median), sigma)

    def bounded_lognormal(self, median: float, sigma: float, low: float, high: float) -> float:
        """Lognormal clamped into ``[low, high]``.

        Clamping (rather than rejection) keeps the draw count per record
        constant, which keeps substreams aligned across parameter sweeps.
        """
        if low > high:
            raise ValueError("bounded_lognormal() requires low <= high")
        return min(high, max(low, self.lognormal(median, sigma)))

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        return self._rng.random() < probability

    def zipf_index(self, n: int, skew: float) -> int:
        """Draw an index in ``[0, n)`` from a Zipf(skew) popularity law.

        Index 0 is the most popular item.  Used for hot/cold file sets: a
        small number of files receive most of the write traffic, which is
        the locality that makes small write buffers effective (claim E3).
        """
        if n <= 0:
            raise ValueError("zipf_index() requires n >= 1")
        if skew < 0.0:
            raise ValueError("zipf skew must be non-negative")
        cdf = self._zipf_cdf(n, skew)
        u = self._rng.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # Zipf CDFs are expensive to build; memoize per (n, skew).
    _zipf_cache: dict = {}

    @classmethod
    def _zipf_cdf(cls, n: int, skew: float) -> List[float]:
        key = (n, round(skew, 9))
        cached = cls._zipf_cache.get(key)
        if cached is not None:
            return cached
        weights = [1.0 / (i + 1) ** skew for i in range(n)]
        total = sum(weights)
        cdf: List[float] = []
        acc = 0.0
        for w in weights:
            acc += w / total
            cdf.append(acc)
        cdf[-1] = 1.0
        if len(cls._zipf_cache) > 64:
            cls._zipf_cache.clear()
        cls._zipf_cache[key] = cdf
        return cdf
