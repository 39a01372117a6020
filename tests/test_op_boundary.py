"""The file-system op boundary (``FileSystem._timed``) for both file systems.

Every timed op counts one ``<op>_ops`` and records one ``<op>_latency``
sample when it completes, including through an early ``return``; an op
that raises inside the boundary records nothing, so its counter and
histogram do not even appear in the snapshot.  No layer attributes
work to a client: that lives only in ``ReplayReport.per_client``.
"""

from __future__ import annotations

import pytest

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices import DRAM, FlashMemory, MagneticDisk
from repro.fs import BufferCache, ConventionalFileSystem, DiskBlockDevice, mkfs
from repro.fs import MemoryFileSystem
from repro.fs.api import FileNotFoundFSError
from repro.obs import runtime
from repro.obs.tracer import EVENT_FIELDS, Tracer
from repro.sim import SimClock

from tests._storage import build_manager

KB = 1024
MB = 1024 * 1024


def _memfs():
    clock = SimClock()
    dram = DRAM(4 * MB)
    manager = build_manager(
        clock, FlashMemory(8 * MB, banks=2), dram=dram, buffer_bytes=256 * KB
    )
    return MemoryFileSystem(manager, dram=dram)


def _diskfs():
    clock = SimClock()
    device = DiskBlockDevice(MagneticDisk(16 * MB), clock)
    cache = BufferCache(device, clock, capacity_blocks=64, dram=DRAM(1 * MB))
    return ConventionalFileSystem(cache, mkfs(cache, ninodes=128))


@pytest.fixture(params=["memfs", "diskfs"])
def fs(request):
    return _memfs() if request.param == "memfs" else _diskfs()


def _counters(fs):
    return dict(fs.stats.counters)


def _samples(fs, name):
    histogram = fs.stats.histograms.get(name)
    return 0 if histogram is None else histogram.count


def test_raising_op_records_nothing(fs):
    with pytest.raises(FileNotFoundFSError):
        fs.write("/missing", 0, b"x")
    assert "write_ops" not in fs.stats.counters
    assert "write_latency" not in fs.stats.histograms
    assert "write_ops" not in fs.stats.snapshot()["counters"]


def test_raising_op_after_successes_adds_nothing(fs):
    fs.create("/f")
    fs.write("/f", 0, b"abc")
    before = fs.stats.counter("write_ops").value
    with pytest.raises(FileNotFoundFSError):
        fs.write("/missing", 0, b"x")
    assert fs.stats.counter("write_ops").value == before == 1
    assert _samples(fs, "write_latency") == 1


def test_early_return_inside_the_boundary_records(fs):
    fs.create("/f")
    fs.write("/f", 0, b"abc")
    assert fs.read("/f", 3, 10) == b""  # at EOF
    assert fs.read("/f", 99, 10) == b""  # past EOF
    assert fs.stats.counter("read_ops").value == 2
    assert _samples(fs, "read_latency") == 2


def test_empty_write_records_nothing(fs):
    fs.create("/f")
    before = _counters(fs)
    assert fs.write("/f", 0, b"") == 0
    assert "write_ops" not in fs.stats.counters
    assert "write_latency" not in fs.stats.histograms
    assert _counters(fs) == before


def test_latency_is_the_ops_elapsed_sim_time(fs):
    fs.create("/f")
    start = fs.clock.now
    fs.write("/f", 0, bytes(5000))
    histogram = fs.stats.histograms["write_latency"]
    assert histogram.count == 1
    assert histogram.total == fs.clock.now - start


def _keys(tree):
    """Every dict key anywhere in a nested snapshot."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield key
            yield from _keys(value)
    elif isinstance(tree, (list, tuple)):
        for value in tree:
            yield from _keys(value)


@pytest.mark.parametrize(
    "org", [Organization.SOLID_STATE, Organization.DISK], ids=lambda o: o.value
)
def test_two_client_replay_leaves_no_client_attribution(org):
    with runtime.tracing(Tracer()) as tracer:
        machine = MobileComputer(SystemConfig(organization=org, seed=3))
        report, _metrics = machine.run_workload(
            "office", duration_s=6.0, clients=2
        )
    assert sorted(report.per_client) == [0, 1]
    snapshot = machine.hub.snapshot(machine.clock.now)
    assert not [key for key in _keys(snapshot) if "client" in str(key)]
    detail = EVENT_FIELDS.index("detail")
    details = [record[detail] for record in tracer.records if record[detail]]
    assert details  # the trace does carry details, just none per client
    assert not [d for d in details if "client" in d]
