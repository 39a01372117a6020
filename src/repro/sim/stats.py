"""Measurement toolkit.

Every experiment metric in the reproduction flows through one of three
primitives:

- :class:`Counter` -- monotonically increasing totals (bytes written,
  erase operations, page faults).
- :class:`Histogram` -- log-binned, mergeable value distributions with
  exact mean / stdev / min / max and bin-resolution percentiles
  (operation latency, read tail during erases -- claim E8).  The live
  metrics and the trace analytics (:mod:`repro.obs.analyze`) share it,
  so both report the same percentiles for the same values.
- :class:`TimeWeightedValue` -- time-integrated averages (buffer
  occupancy, DRAM in use).

A :class:`StatRegistry` groups the primitives belonging to one component
and renders them into plain dictionaries for reports, so benchmark
harnesses never reach into component internals.  A :class:`StatHandle`
gives a component's hot path a direct reference to one of its metrics,
looked up once, on first use.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Optional, Union

Number = Union[int, float]


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0.0

    def add(self, amount: Number = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (got {amount})")
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover
        return f"Counter({self.name}={self.value})"


class Histogram:
    """A log-binned, mergeable value distribution.

    Positive values fall into geometric bins, :attr:`BINS_PER_DECADE`
    per factor of 10 starting at :attr:`MIN_VALUE` (1 ns for latencies),
    so each bin spans ~15% and memory is O(bins), not O(samples).
    Values <= 0 are counted apart.  Count, total, sum of squares, min
    and max are kept exactly, so mean and stdev are exact; a percentile
    is the geometric midpoint of the bin holding the requested rank,
    clamped to [min, max].  It is a pure function of the recorded
    multiset: recording order does not matter, and :meth:`merge` of two
    histograms equals one histogram that recorded both streams.
    """

    BINS_PER_DECADE = 16
    MIN_VALUE = 1e-9
    _BASE = 10.0 ** (1.0 / BINS_PER_DECADE)
    _HALF_BIN = math.sqrt(_BASE)

    __slots__ = ("count", "zeros", "total", "_sumsq", "_min", "_max", "bins")

    def __init__(self) -> None:
        self.count = 0
        self.zeros = 0
        self.total = 0.0
        self._sumsq = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self.bins: Dict[int, int] = {}

    def record(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self._sumsq += value * value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if value <= 0.0:
            self.zeros += 1
            return
        idx = math.floor(math.log10(value / self.MIN_VALUE) * self.BINS_PER_DECADE)
        if idx < 0:
            idx = 0
        bins = self.bins
        bins[idx] = bins.get(idx, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` in, as if this histogram had recorded its values."""
        self.count += other.count
        self.zeros += other.zeros
        self.total += other.total
        self._sumsq += other._sumsq
        if other._min is not None and (self._min is None or other._min < self._min):
            self._min = other._min
        if other._max is not None and (self._max is None or other._max > self._max):
            self._max = other._max
        bins = self.bins
        for idx, n in other.bins.items():
            bins[idx] = bins.get(idx, 0) + n

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._max is not None else 0.0

    def percentile(self, p: float) -> float:
        """Value at percentile ``p`` in [0, 100], to bin resolution.

        The bin holding rank ``ceil(p% * count)`` reports its geometric
        midpoint, clamped to the exact [min, max], so a constant stream
        reports its value exactly.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p} outside [0, 100]")
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(p / 100.0 * self.count))
        if rank <= self.zeros:
            value = 0.0
        else:
            seen = self.zeros
            bins = self.bins
            for idx in sorted(bins):
                seen += bins[idx]
                if seen >= rank:
                    break
            value = self.MIN_VALUE * self._BASE ** idx * self._HALF_BIN
        if value < self._min:
            return self._min
        if value > self._max:
            return self._max
        return value

    @property
    def stdev(self) -> float:
        """Exact sample standard deviation over all recorded values,
        from the running count, total and sum of squares."""
        if self.count < 2:
            return 0.0
        mean = self.total / self.count
        # Numerical noise can push the numerator a hair below zero.
        var = max(0.0, (self._sumsq - self.count * mean * mean) / (self.count - 1))
        return math.sqrt(var)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class TimeWeightedValue:
    """Integrates a piecewise-constant value over simulated time.

    Call :meth:`set` whenever the tracked quantity changes; the average is
    the time integral divided by elapsed observation time.  Used for
    write-buffer occupancy so that a buffer that is full for one brief
    instant doesn't read as "full on average".
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._last_time = 0.0
        self._value = 0.0
        self._area = 0.0
        self.peak = 0.0

    @property
    def current(self) -> float:
        return self._value

    def set(self, value: Number, now: float) -> None:
        if now < self._last_time:
            raise ValueError(f"time went backwards in {self.name!r}: {now} < {self._last_time}")
        self._area += self._value * (now - self._last_time)
        self._last_time = now
        self._value = float(value)
        if self._value > self.peak:
            self.peak = self._value

    def average(self, now: Optional[float] = None) -> float:
        end = self._last_time if now is None else max(now, self._last_time)
        if end <= 0.0:
            return self._value
        area = self._area + self._value * (end - self._last_time)
        return area / end


class StatRegistry:
    """A named bundle of metrics owned by one component."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.gauges: Dict[str, TimeWeightedValue] = {}
        # Ratios the owning component defines over its metrics (its one
        # definition of each), rendered under "derived" in snapshots.
        self.derived: Dict[str, Callable[[], float]] = {}

    def value(self, name: str) -> float:
        """A counter's value, 0.0 if it was never touched; unlike
        :meth:`counter`, the read creates no metric."""
        counter = self.counters.get(name)
        return counter.value if counter is not None else 0.0

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        return histogram

    def gauge(self, name: str) -> TimeWeightedValue:
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = TimeWeightedValue(name)
        return gauge

    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """Render every metric into a plain, JSON-able dictionary."""
        out: Dict[str, object] = {
            "name": self.name,
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "histograms": {n: h.summary() for n, h in sorted(self.histograms.items())},
            "gauges": {
                n: {"average": g.average(now), "peak": g.peak, "current": g.current}
                for n, g in sorted(self.gauges.items())
            },
        }
        if self.derived:
            out["derived"] = {n: fn() for n, fn in sorted(self.derived.items())}
        return out


class StatHandle:
    """A component's direct reference to one of its ``self.stats`` metrics.

    Declared in a class body, for example ``_puts =
    StatHandle(StatRegistry.counter, "puts")``.  The first read of the
    attribute on an instance calls ``self.stats.counter("puts")`` and
    stores the metric in the instance ``__dict__``, which shadows this
    (non-data) descriptor from then on, so every later read is a plain
    attribute hit.  Binding on first use rather than at construction
    keeps a snapshot's keys exactly the metrics that have been touched.
    """

    __slots__ = ("lookup", "name", "attr")

    def __init__(self, lookup, name: str) -> None:
        self.lookup = lookup
        self.name = name
        self.attr = ""

    def __set_name__(self, owner: type, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj, owner: Optional[type] = None):
        if obj is None:
            return self
        metric = self.lookup(obj.stats, self.name)
        obj.__dict__[self.attr] = metric
        return metric
