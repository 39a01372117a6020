"""Unit tests for counters, histograms, and time-weighted gauges."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Counter, Histogram, StatRegistry, TimeWeightedValue
from repro.sim.stats import StatHandle


class TestCounter:
    def test_add(self):
        c = Counter("ops")
        c.add()
        c.add(4)
        assert c.value == 5

    def test_negative_rejected(self):
        c = Counter("ops")
        with pytest.raises(ValueError):
            c.add(-1)


class TestHistogram:
    def test_mean_min_max(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0):
            h.record(v)
        assert h.mean == pytest.approx(2.0)
        assert h.minimum == 1.0
        assert h.maximum == 3.0
        assert h.count == 3

    def test_percentiles(self):
        h = Histogram()
        for v in range(1, 101):
            h.record(float(v))
        # Bin resolution: a bin spans a factor of 10**(1/16), ~15%.
        for p, truth in ((0, 1.0), (50, 50.0), (95, 95.0), (100, 100.0)):
            assert h.percentile(p) == pytest.approx(truth, rel=0.15)
        # Midpoints clamp to the exact [min, max].
        assert 1.0 <= h.percentile(0) and h.percentile(100) <= 100.0

    def test_percentile_bounds_checked(self):
        h = Histogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_summary_keys(self):
        h = Histogram()
        h.record(1.0)
        summary = h.summary()
        assert set(summary) == {
            "count", "mean", "stdev", "min", "max", "p50", "p95", "p99"
        }


class TestTimeWeightedValue:
    def test_constant_value(self):
        g = TimeWeightedValue("occ")
        g.set(10.0, now=0.0)
        assert g.average(now=5.0) == pytest.approx(10.0)

    def test_step_function(self):
        g = TimeWeightedValue("occ")
        g.set(0.0, now=0.0)
        g.set(10.0, now=5.0)  # 0 for 5s, then 10 for 5s
        assert g.average(now=10.0) == pytest.approx(5.0)

    def test_peak(self):
        g = TimeWeightedValue("occ")
        g.set(3.0, now=1.0)
        g.set(7.0, now=2.0)
        g.set(2.0, now=3.0)
        assert g.peak == 7.0

    def test_time_backwards_rejected(self):
        g = TimeWeightedValue("occ")
        g.set(1.0, now=5.0)
        with pytest.raises(ValueError):
            g.set(2.0, now=4.0)


class TestStatRegistry:
    def test_idempotent_creation(self):
        reg = StatRegistry("dev")
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("b") is reg.histogram("b")

    def test_snapshot_shape(self):
        reg = StatRegistry("dev")
        reg.counter("ops").add(3)
        reg.histogram("lat").record(0.5)
        reg.gauge("occ").set(2.0, 1.0)
        snap = reg.snapshot(now=2.0)
        assert snap["name"] == "dev"
        assert snap["counters"]["ops"] == 3
        assert snap["histograms"]["lat"]["count"] == 1
        assert snap["gauges"]["occ"]["peak"] == 2.0


class _Component:
    _ops = StatHandle(StatRegistry.counter, "ops")
    _lat = StatHandle(StatRegistry.histogram, "lat")
    _occ = StatHandle(StatRegistry.gauge, "occ")

    def __init__(self):
        self.stats = StatRegistry("component")


class TestStatHandle:
    def test_binds_on_first_use_only(self):
        comp = _Component()
        assert comp.stats.snapshot()["counters"] == {}
        counter = comp._ops
        assert counter is comp.stats.counter("ops")
        assert comp._ops is counter  # a plain instance attribute from now on
        assert "_ops" in vars(comp)
        assert set(comp.stats.counters) == {"ops"}
        assert comp.stats.histograms == {} and comp.stats.gauges == {}

    def test_handles_are_per_instance(self):
        a, b = _Component(), _Component()
        a._ops.value += 2
        assert b._ops.value == 0
        assert a.stats.counter("ops").value == 2

    def test_same_metric_as_the_registry_lookup(self):
        comp = _Component()
        comp._lat.record(1e-3)
        comp._occ.set(4.0, 1.0)
        assert comp.stats.histogram("lat").count == 1
        assert comp.stats.gauge("occ").current == 4.0


# ----------------------------------------------------------------------
# Histogram properties.
# ----------------------------------------------------------------------

# Values <= 0 share one bucket; negatives exercise its clamping.
_floats = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
_values = st.lists(_floats, min_size=1, max_size=200)
_percentiles = st.floats(min_value=0.0, max_value=100.0)


def _histogram(values):
    h = Histogram()
    for v in values:
        h.record(v)
    return h


class TestHistogramProperties:
    @settings(max_examples=100)
    @given(_values, _percentiles)
    def test_percentile_within_min_max(self, values, p):
        h = _histogram(values)
        assert min(values) <= h.percentile(p) <= max(values)
        summary = h.summary()
        for key in ("p50", "p95", "p99"):
            assert summary["min"] <= summary[key] <= summary["max"]

    @settings(max_examples=60)
    @given(_floats, st.integers(min_value=1, max_value=50), _percentiles)
    def test_constant_stream_is_exact(self, value, n, p):
        h = _histogram([value] * n)
        assert h.percentile(p) == value

    @settings(max_examples=100)
    @given(_values, _values)
    def test_merge_equals_union(self, xs, ys):
        a, b = _histogram(xs), _histogram(ys)
        union = _histogram(xs + ys)
        a.merge(b)
        assert a.bins == union.bins
        assert (a.count, a.zeros) == (union.count, union.zeros)
        assert (a.minimum, a.maximum) == (union.minimum, union.maximum)
        for p in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert a.percentile(p) == union.percentile(p)
        assert a.total == pytest.approx(union.total)
        assert a.stdev == pytest.approx(union.stdev, rel=1e-6, abs=1e-4)

    def test_merge_into_empty(self):
        a, b = Histogram(), _histogram([0.0, 3e-3, 1.5])
        a.merge(b)
        assert a.summary() == b.summary()
