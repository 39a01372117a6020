"""Deterministic random streams.

Every stochastic component (trace generator, failure injector, cleaning
policy tie-breaks) draws from its own named :class:`RandomStream` derived
from a single experiment seed.  Two properties follow:

1. Re-running an experiment with the same seed reproduces it bit-for-bit.
2. Changing one component's draw pattern does not perturb another
   component's stream (no shared-generator coupling).
"""

from __future__ import annotations

import functools
import hashlib
import random
from bisect import bisect_left
from typing import List


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
    validation, plus a Zipf helper that the standard library lacks.
    ``rng`` is the underlying generator, for a hot loop that binds its
    methods once and checks its arguments up front (the trace generator
    does).
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.seed = seed

    def random(self) -> float:
        return self.rng.random()

    def randint(self, low: int, high: int) -> int:
        """Inclusive integer range, like :func:`random.randint`."""
        if high < low:
            raise ValueError("randint() requires low <= high")
        return self.rng.randint(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential inter-arrival time with the given rate (1/s)."""
        if rate <= 0.0:
            raise ValueError("expovariate() requires a positive rate")
        return self.rng.expovariate(rate)

    def bernoulli(self, probability: float) -> bool:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        return self.rng.random() < probability

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
        return bisect_left(zipf_cdf(n, skew), self.rng.random(), 0, n - 1)


@functools.lru_cache(maxsize=64)
def zipf_cdf(n: int, skew: float) -> List[float]:
    """Cumulative Zipf(skew) probabilities of ranks ``0..n-1``, memoized
    (they are expensive to build; callers must not mutate the list).

    The last entry is exactly 1.0.  A uniform ``u`` maps to rank
    ``bisect_left(cdf, u, 0, n - 1)``, the first rank whose cumulative
    probability reaches ``u``; the last entry is never probed, so rank
    ``n - 1`` takes whatever mass rounding leaves.
    """
    weights = [1.0 / (i + 1) ** skew for i in range(n)]
    total = sum(weights)
    cdf: List[float] = []
    acc = 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf
