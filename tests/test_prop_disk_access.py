"""Property test: ``MagneticDisk`` == :class:`tests._reference.DiskModel`.

``MagneticDisk`` binds its spec costs at construction and does the
check, the mechanics, the ``DeviceStats`` update, the trace record and
the clock advance in one call; the reference reads the spec on every
access.  For any sequence of reads, writes and charges -- with spin-down
gaps, out-of-range requests, idle accrual and time going backwards
between accesses, as E1 issues them -- both disks must agree bit for
bit after every step (see :func:`tests._reference.compare`): latency,
wait, the clock after, raised errors, ``DeviceStats``, the head and
spindle state, idle energy, stored bytes and trace records.  An error
charges nothing and leaves the clock where it was.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices.catalog import DISK_FUJITSU_M2633, DISK_HP_KITTYHAWK
from repro.devices.disk import MagneticDisk
from repro.obs.tracer import Tracer
from repro.sim.clock import SimClock
from tests._reference import DiskModel, compare, payload

KB = 1024
MB = 1024 * KB
CAPACITY = 2 * MB


@st.composite
def _ops(draw):
    """One access (or idle accrual) and the time step before it."""
    kind = draw(st.sampled_from(
        ["read", "read", "write", "write", "charge_read", "charge_write", "accrue_idle"]
    ))
    if draw(st.integers(0, 5)) == 0:
        # Out of range: past either end, or a negative size.
        offset, nbytes = draw(st.sampled_from([
            (-1, 16), (CAPACITY - 8, 9), (CAPACITY, 1), (0, CAPACITY + 1), (64, -1),
        ]))
        if kind == "write" and nbytes < 0:
            nbytes = 1
            offset = CAPACITY
    else:
        offset = draw(st.integers(0, CAPACITY - 1))
        # Sizes straddle the 64 KB backing chunks now and then.
        nbytes = draw(st.integers(0, min(80 * KB, CAPACITY - offset)))
    # Gaps inside and past the spin-down timeout, and steps backwards.
    dt = draw(st.one_of(
        st.sampled_from([0.0, 1e-4, 0.02, 0.5, 3.0, 40.0, -0.01, -1.0]),
        st.floats(min_value=-2.0, max_value=60.0, allow_nan=False),
    ))
    return (kind, offset, nbytes), dt


@st.composite
def _workloads(draw):
    spec = draw(st.sampled_from([DISK_HP_KITTYHAWK, DISK_FUJITSU_M2633]))
    timeout = draw(st.sampled_from([0.5, 2.0, 5.0]))
    spinning = draw(st.booleans())
    start = draw(st.one_of(
        st.sampled_from([0.0, 0.25, 100.0]),
        st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    ))
    ops = draw(st.lists(_ops(), min_size=1, max_size=40))
    return spec, timeout, spinning, start, ops


@settings(max_examples=150, deadline=None)
@given(_workloads(), st.booleans())
# A spin-up where now + spin_up + service != now + (spin_up + service).
@example((DISK_FUJITSU_M2633, 0.5, False, 0.52, [(("read", 0, 0), 0.0)]), False)
def test_disk_matches_the_reference(workload, traced):
    spec, timeout, spinning, start, ops = workload
    live, reference = (cls(CAPACITY, spec=spec) for cls in (MagneticDisk, DiskModel))
    for disk in (live, reference):
        disk.spin_down_timeout_s = timeout
        disk.spinning = spinning
        disk.tracer = Tracer() if traced else None
    now = start
    for op, dt in ops:
        now = max(0.0, now + dt)
        data = payload(op[1], op[2]) if op[0] == "write" else b""
        compare(live, reference, op, (SimClock(now), SimClock(now)), data)
