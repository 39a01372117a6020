"""Property-based tests for the write buffer and VM paging.

Write-buffer invariants:

- conservation: ``bytes_in == flushed + overwritten + died + lost + buffered``;
- a flush never emits a stale version of a block;
- occupancy never exceeds capacity after a put returns.

VM invariant: page contents survive any interleaving of touches under
arbitrary memory pressure (swap round-trips are lossless).
"""

from hypothesis import given, settings, strategies as st

from repro.devices import DRAM, MagneticDisk
from repro.mem import PAGE_SIZE, PageFrameAllocator, PhysicalAddressSpace, RawDiskSwap, VirtualMemory
from repro.sim import SimClock
from repro.storage import WriteBuffer

KB = 1024
MB = 1024 * 1024


@st.composite
def buffer_ops(draw):
    ops = []
    for _ in range(draw(st.integers(1, 80))):
        kind = draw(st.sampled_from(["put", "put", "put", "drop", "aged", "tick"]))
        key = draw(st.integers(0, 9))
        if kind == "put":
            length = draw(st.integers(1, 2 * KB))
            version = draw(st.integers(0, 255))
            ops.append(("put", key, bytes([version]) * length))
        else:
            ops.append((kind, key, b""))
    return ops


@given(buffer_ops(), st.integers(0, 8 * KB))
@settings(max_examples=60, deadline=None)
def test_writebuffer_conservation_and_freshness(ops, capacity):
    clock = SimClock()
    buf = WriteBuffer(capacity, clock, DRAM(1 << 20), age_limit_s=5.0)
    latest = {}
    flushed_versions = []

    def consume(items):
        for item in items:
            flushed_versions.append((item.key, item.data))

    for kind, key, payload in ops:
        if kind == "put":
            consume(buf.put(key, payload))
            latest[key] = payload
            assert buf.buffered_bytes <= max(capacity, 0) or capacity == 0
        elif kind == "drop":
            buf.drop(key)
            latest.pop(key, None)
        elif kind == "aged":
            consume(buf.flush_aged())
        else:
            clock.advance(2.0)

    consume(buf.flush_all())
    stats = buf.stats
    conservation = (
        stats.counter("flushed_bytes").value
        + stats.counter("overwritten_bytes").value
        + stats.counter("died_bytes").value
    )
    assert conservation == stats.counter("bytes_in").value
    assert buf.buffered_bytes == 0

    # Freshness: the LAST flush of any key must carry its latest payload
    # (earlier flushes may legitimately carry older versions).
    last_flush = {}
    for key, data in flushed_versions:
        last_flush[key] = data
    for key, payload in latest.items():
        if key in last_flush:
            assert last_flush[key] == payload


@given(
    st.lists(st.tuples(st.integers(0, 15), st.integers(0, 255)), min_size=1, max_size=120),
    st.integers(4, 20),
)
@settings(max_examples=30, deadline=None)
def test_vm_paging_is_lossless(touches, frames):
    clock = SimClock()
    phys = PhysicalAddressSpace(clock)
    dram = DRAM(frames * PAGE_SIZE)
    region = phys.add_region("dram", dram)
    disk = MagneticDisk(8 * MB)
    swap = RawDiskSwap(disk, clock, 0, 4 * MB)
    vm = VirtualMemory(phys, PageFrameAllocator(region.base, region.size), swap=swap)
    space = vm.create_space("p")
    vaddr = vm.map_anonymous(space, 16)

    shadow = {}
    for page, version in touches:
        vm.write(space, vaddr + page * PAGE_SIZE + 7, bytes([version]) * 16)
        shadow[page] = version
    for page, version in shadow.items():
        got = vm.read(space, vaddr + page * PAGE_SIZE + 7, 16)
        assert got == bytes([version]) * 16, f"page {page} lost through paging"
    # Frames in use never exceed the pool.
    assert vm.frames.used_frames <= frames
