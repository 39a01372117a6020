"""The tracer's flat ring: it holds what a ring of record tuples would,
and an emit leaves nothing behind for the garbage collector."""

import gc

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import Tracer


class _TupleRing:
    """A ring that keeps one tuple per record, dropping the oldest half
    when full: what the flat ring must be indistinguishable from."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.records = []
        self.dropped = 0

    def emit(self, record):
        if len(self.records) >= self.capacity:
            drop = self.capacity // 2
            del self.records[:drop]
            self.dropped += drop
        self.records.append(record)


def test_emit_leaves_nothing_for_the_collector():
    tracer = Tracer()
    enabled = gc.isenabled()
    gc.disable()
    try:
        before = gc.get_count()[0]
        for i in range(10_000):
            tracer.emit("dram", "charge_read", i * 1e-6, 4096, 1e-6)
        moved = gc.get_count()[0] - before
    finally:
        if enabled:
            gc.enable()
    assert len(tracer) == 10_000
    assert moved < 10


_details = st.one_of(st.none(), st.dictionaries(st.sampled_from("abc"), st.integers(), max_size=2))


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.integers(2, 33),
    events=st.lists(st.tuples(st.sampled_from(("dram", "engine")), _details), max_size=120),
)
def test_flat_ring_holds_what_a_tuple_ring_holds(capacity, events):
    tracer, reference = Tracer(capacity), _TupleRing(capacity)
    for i, (component, detail) in enumerate(events):
        record = (i * 0.5, component, "op", i, i * 1e-6, "ok", detail)
        tracer.emit(component, "op", record[0], i, record[4], "ok", detail)
        reference.emit(record)
        assert len(tracer) == len(reference.records)
        assert tracer.dropped == reference.dropped
        assert tracer.emitted == reference.dropped + len(reference.records) == i + 1
    assert tracer.records == reference.records
