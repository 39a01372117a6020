"""Golden digests of the single-client replay path.

The replay path (``run_workload`` into ``TraceReplayer.replay``) was
once pinned equal, per organization, to an older synchronous replay
loop.  That loop is gone; its numbers live on as stored sha256 digests
of the MetricsHub snapshot, the canonical trace bytes and
``ReplayReport.snapshot()`` for all five organizations, so any change
to a simulated number, a trace byte or a report field fails here.
The digests are independent of ``PYTHONHASHSEED``.  A hypothesis
property then pins the multi-client invariant: per-client op counts are
conserved under any interleaving.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.obs import runtime
from repro.obs.tracer import Tracer, write_trace
from repro.sim.rand import substream
from repro.trace.workloads import generate_workload

DURATION = 12.0
SEED = 42

#: sha256 of (hub snapshot JSON at the run's end, canonical trace JSONL,
#: report snapshot JSON) for the office workload, seed 42, 12 s, one
#: client.  The hub snapshot is taken at ``clock.now``, so the devices'
#: per-second rates and the average power are pinned too.
GOLDEN = {
    "solid_state": {
        "hub": "7f4b5fef9f5cd8e5a56be7282157d3f946317817e433005c5926912186ba1409",
        "trace": "5bb0a56cc4453c5e3203fbfc3bb3be53c78e516f7efba842087872711f9f2420",
        "report": "5843de5df8d8850b7645e9507e80bcffbdc74eeb42b9ab89db28fa244fc8ad68",
    },
    "disk": {
        "hub": "eb09fa534b96604db8e83b4577bd982cee30752af6dcf770e9ce031cbb6e5e92",
        "trace": "38b8dac489a368237be203235b455a04c3bcee141060a8b46fd0bdf014aa654c",
        "report": "5f0e57bbac570aaa5b6e7f895b15ce01e3dd02c411421064d1bff67d09555341",
    },
    "flash_disk": {
        "hub": "3c8e58f4ece97993cffa7d8179f717200359a460f3f74a4737430d55a84def39",
        "trace": "19f6de6758128846ddf38075ef2fe1e6494cfe2a2af16edeabd976503c3222fa",
        "report": "d0392c37ada608a542898914ce94374ee057f91c6a1aabe32ce9fa5b9baa7873",
    },
    "flash_eip": {
        "hub": "3ede118da4d61fd9851b2141fc101b2f7ad4b4c39ca7cab02ee2fff6c8d65001",
        "trace": "45f55d52047092431fb0828edf4467082849d4cb3e0b086144982f0016ce0760",
        "report": "b987b54fa65dbc9ccc107d5d5ff8d3b606525fec000addd6346c1771841f7d3c",
    },
    "naive_flash": {
        "hub": "f3c9efbd6a6a004c3fe69c955594049cf1e04a91edba38cb29ff6f645eaae1d4",
        "trace": "3e537c196ee93196b29295abaedfc7405c77014aab6d619d5981a809a1bb2c80",
        "report": "fa9a230d90c8fb7d3a94d760dd1913d4f29c521d7fd08342a23c89673123986e",
    },
}


def _machine(org: Organization) -> MobileComputer:
    return MobileComputer(SystemConfig(organization=org, seed=SEED))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=str).encode()


def _traced_run(org: Organization, clients: int = 1):
    """Traced replay; returns (hub JSON, trace bytes, report)."""
    with runtime.tracing(Tracer()) as tracer:
        machine = _machine(org)
        report, _metrics = machine.run_workload(
            "office", duration_s=DURATION, clients=clients
        )
    with tempfile.TemporaryDirectory() as tmp:
        # The CLI's trace path: one job's records through the one writer.
        path = os.path.join(tmp, "trace.jsonl")
        write_trace(path, [tracer.records])
        with open(path, "rb") as fh:
            trace = fh.read()
    return _dumps(machine.hub.snapshot(machine.clock.now)), trace, report


@functools.lru_cache(maxsize=None)
def _single_client_run(org: Organization):
    """One single-client run per organization, shared by the tests below."""
    return _traced_run(org)


@pytest.mark.parametrize("org", list(Organization), ids=lambda o: o.value)
def test_single_client_golden_equivalence(org):
    """Hub snapshot and canonical trace bytes match the stored digests."""
    hub, trace, report = _single_client_run(org)
    assert _sha256(hub) == GOLDEN[org.value]["hub"]
    assert _sha256(trace) == GOLDEN[org.value]["trace"]
    # The hub lists every device the power model meters, so their
    # energies sum to the power block's total.
    hub_snapshot = json.loads(hub)
    assert sum(
        dev["total_energy_joules"] for dev in hub_snapshot["devices"].values()
    ) == pytest.approx(hub_snapshot["power"]["energy_joules"], rel=1e-9)
    # Single-client reports carry no per-client attribution.
    assert report.per_client == {}
    snapshot = report.snapshot()
    assert "per_client" not in snapshot
    assert "scheduler" not in snapshot


def test_single_client_report_latency_identical():
    """Report snapshots (op counts, latency summaries) match the digests."""
    for org in Organization:
        _hub, _trace, report = _single_client_run(org)
        assert report.errors == 0
        assert _sha256(_dumps(report.snapshot())) == GOLDEN[org.value]["report"]


def test_multi_client_totals_and_attribution():
    _, _, report = _traced_run(Organization.SOLID_STATE, clients=3)
    assert set(report.per_client) == {0, 1, 2}
    assert sum(d["records"] for d in report.per_client.values()) == report.records
    # Every client's stream is the full workload for its derived seed.
    for idx, stats in report.per_client.items():
        expected = sum(
            1
            for _ in generate_workload(
                "office",
                seed=substream(SEED, f"client{idx}").seed,
                duration_s=DURATION,
            )
        )
        assert stats["records"] == expected
    assert report.dispatch_delay_total_s == sum(
        d["dispatch_delay_s"] for d in report.per_client.values()
    )
    _hub, _trace, single = _single_client_run(Organization.SOLID_STATE)
    assert single.dispatch_delay_total_s == 0.0


@settings(max_examples=10, deadline=None)
@given(
    nclients=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**16),
    duration=st.floats(min_value=2.0, max_value=8.0),
)
def test_property_per_client_op_counts_conserved(nclients, seed, duration):
    """Any interleaving conserves each client's op counts exactly.

    The merged report must equal the element-wise sum of the per-client
    op counts, and each client's counts must equal what its stream
    contains -- contention may reorder and delay, never drop or
    duplicate.
    """
    machine = MobileComputer(
        SystemConfig(organization=Organization.SOLID_STATE, seed=seed)
    )
    report, _metrics = machine.run_workload(
        "office", duration_s=duration, clients=nclients
    )
    merged = {}
    for idx in range(nclients):
        stream_counts = {}
        for record in generate_workload(
            "office",
            seed=substream(seed, f"client{idx}").seed,
            duration_s=duration,
        ):
            op = record.op.value
            stream_counts[op] = stream_counts.get(op, 0) + 1
        assert report.per_client[idx]["op_counts"] == stream_counts
        for op, n in stream_counts.items():
            merged[op] = merged.get(op, 0) + n
    assert report.op_counts == merged
    assert report.records == sum(merged.values())
