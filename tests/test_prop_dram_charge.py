"""Property test: ``DRAM`` == :class:`tests._reference.DRAMModel`.

Every DRAM access -- ``charge_read``/``charge_write`` and the data-moving
``read``/``read_view``/``write`` -- takes the caller's clock and does a
whole touch in one call: power check, range check, stats, trace record
and clock advance, from spec costs bound at construction.  The reference
reads the spec on every access.  Random sequences of charges and
data-moving accesses of many distinct sizes, out-of-range requests and
power loss/restore go through both, with and without a tracer, and
after every step both must agree bit for bit (see
:func:`tests._reference.compare`) on the raised error, the latency and
wait returned, the bytes read, the ``DeviceStats``, the clock, the
contents, the power state and the trace records.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.devices.dram import DRAM
from repro.obs import Tracer
from repro.sim.clock import SimClock
from tests._reference import DRAMModel, compare, payload

KB = 1024
CAPACITY = 64 * KB

_ACCESS = st.sampled_from(
    ["charge_read", "charge_write", "charge_read", "charge_write",
     "read", "read_view", "write"]
)


@st.composite
def _op(draw):
    kind = draw(st.one_of(
        _ACCESS, _ACCESS, _ACCESS, st.sampled_from(["power_loss", "power_restore"])
    ))
    if kind.startswith("power"):
        return (kind, 0, 0)
    nbytes = draw(st.one_of(
        st.integers(0, 4 * KB),           # in range, many distinct sizes
        st.integers(-2, CAPACITY + 2),    # up to just past either end
    ))
    offset = draw(st.one_of(
        st.just(0),
        st.integers(0, CAPACITY),
        st.integers(-3, CAPACITY + 3),
    ))
    return (kind, offset, nbytes)


@given(
    st.lists(_op(), min_size=1, max_size=80),
    st.booleans(),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
@settings(max_examples=160, deadline=None)
def test_dram_matches_the_reference(ops, traced, start):
    live, reference = DRAM(CAPACITY), DRAMModel(CAPACITY)
    for dram in (live, reference):
        dram.tracer = Tracer() if traced else None
    clocks = SimClock(start), SimClock(start)
    for op in ops:
        data = payload(op[1], op[2]) if op[0] == "write" else b""
        compare(live, reference, op, clocks, data)
