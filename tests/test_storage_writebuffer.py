"""Unit tests for the battery-backed DRAM write buffer."""

import pytest

from repro.devices import DRAM
from repro.obs import Tracer, runtime
from repro.sim import SimClock
from repro.storage import FlushReason, WriteBuffer

KB = 1024


@pytest.fixture
def clock():
    return SimClock()


def make_buffer(clock, capacity=8 * KB, **kwargs):
    return WriteBuffer(capacity, clock, DRAM(1 << 20), **kwargs)


class TestBuffering:
    def test_put_then_get(self, clock):
        buf = make_buffer(clock)
        assert buf.put("a", b"hello") == []
        assert buf.get("a") == b"hello"

    def test_get_miss_returns_none(self, clock):
        buf = make_buffer(clock)
        assert buf.get("missing") is None

    def test_overwrite_absorbed(self, clock):
        buf = make_buffer(clock)
        buf.put("a", b"v1" * 100)
        buf.put("a", b"v2" * 100)
        assert buf.get("a") == b"v2" * 100
        assert buf.stats.counter("overwritten_bytes").value == 200
        assert buf.buffered_bytes == 200

    def test_empty_block_rejected(self, clock):
        buf = make_buffer(clock)
        with pytest.raises(ValueError):
            buf.put("a", b"")

    def test_zero_capacity_is_write_through(self, clock):
        buf = make_buffer(clock, capacity=0)
        items = buf.put("a", b"data")
        assert len(items) == 1
        assert items[0].key == "a"
        assert buf.stats.counter("flushed_watermark").value == 1
        assert buf.get("a") is None

    def test_drop_records_died_bytes(self, clock):
        buf = make_buffer(clock)
        buf.put("a", b"x" * 500)
        assert buf.drop("a") == 500
        assert buf.stats.counter("died_bytes").value == 500
        assert buf.get("a") is None

    def test_drop_missing_is_zero(self, clock):
        buf = make_buffer(clock)
        assert buf.drop("nope") == 0


class TestWatermarkEviction:
    def test_eviction_when_over_capacity(self, clock):
        buf = make_buffer(clock, capacity=4 * KB, low_watermark=0.5)
        items = []
        for i in range(5):
            items += buf.put(f"k{i}", b"z" * KB)
        assert items  # something was evicted
        assert buf.buffered_bytes <= 2 * KB

    def test_coldest_evicted_first(self, clock):
        buf = make_buffer(clock, capacity=3 * KB, low_watermark=0.67)
        buf.put("old", b"a" * KB)
        clock.advance(1.0)
        buf.put("mid", b"b" * KB)
        clock.advance(1.0)
        buf.put("new", b"c" * KB)
        clock.advance(1.0)
        items = buf.put("newest", b"d" * KB)
        evicted = [i.key for i in items]
        assert "old" in evicted
        assert "newest" not in evicted

    def test_rewrite_refreshes_recency(self, clock):
        buf = make_buffer(clock, capacity=3 * KB - 1, low_watermark=0.67)
        buf.put("a", b"a" * KB)
        buf.put("b", b"b" * KB)
        buf.put("a", b"A" * KB)  # 'a' is now newest
        items = buf.put("c", b"c" * KB)
        assert [i.key for i in items][0] == "b"


class TestAgeFlush:
    def test_flush_aged_only_old_entries(self, clock):
        with runtime.tracing(Tracer()) as tracer:
            buf = make_buffer(clock, age_limit_s=10.0)
        buf.put("old", b"o" * 100)
        clock.advance(11.0)
        buf.put("young", b"y" * 100)
        items = buf.flush_aged()
        assert [i.key for i in items] == ["old"]
        assert buf.stats.counter("flushed_age").value == 1
        [flush] = [r for r in tracer.records if r[2] == "flush"]
        assert flush[5] == FlushReason.AGE.value
        assert flush[6]["age_s"] == pytest.approx(11.0)

    def test_age_measured_from_first_write(self, clock):
        buf = make_buffer(clock, age_limit_s=10.0)
        buf.put("k", b"1" * 100)
        clock.advance(6.0)
        buf.put("k", b"2" * 100)  # rewrite does NOT reset the deadline
        clock.advance(5.0)
        assert [i.key for i in buf.flush_aged()] == ["k"]

    def test_flush_all(self, clock):
        buf = make_buffer(clock)
        buf.put("a", b"1")
        buf.put("b", b"2")
        items = buf.flush_all()
        assert {i.key for i in items} == {"a", "b"}
        assert buf.buffered_bytes == 0

    def test_flush_key(self, clock):
        buf = make_buffer(clock)
        buf.put("a", b"1")
        item = buf.flush_key("a")
        assert item is not None and item.key == "a"
        assert buf.flush_key("a") is None


class TestAccounting:
    def test_absorption_ratio(self, clock):
        buf = make_buffer(clock, capacity=64 * KB)
        for _ in range(10):
            buf.put("hot", b"h" * KB)  # 9 overwrites absorbed
        buf.flush_all()
        # 10 KB in, 1 KB out.
        assert buf.absorption_ratio() == pytest.approx(0.9)

    def test_power_loss_counts_lost_bytes(self, clock):
        buf = make_buffer(clock)
        buf.put("a", b"x" * 300)
        buf.put("b", b"y" * 200)
        assert buf.power_loss() == 500
        assert buf.buffered_bytes == 0
        assert buf.stats.counter("lost_bytes").value == 500

    def test_invalid_construction(self, clock):
        with pytest.raises(ValueError):
            WriteBuffer(-1, clock, DRAM(1 << 20))
        with pytest.raises(ValueError):
            WriteBuffer(10, clock, DRAM(1 << 20), low_watermark=0.0)
