"""Golden digests of the single-client replay path.

The scheduler path (``run_workload``/``replay_scheduled``) was once a
refactor of a synchronous replay loop, and the two were pinned equal
per organization.  The synchronous loop is gone; its numbers live on as
stored sha256 digests of the MetricsHub snapshot, the canonical trace
bytes and ``ReplayReport.snapshot()`` for all five organizations, so any
change to a simulated number, a trace byte or a report field fails here.
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
from repro.obs.tracer import Tracer, merge_shards_to_jsonl, shard_filename
from repro.sim.rand import substream
from repro.trace.workloads import generate_workload

DURATION = 12.0
SEED = 42

#: sha256 of (hub snapshot JSON, canonical trace JSONL, report snapshot
#: JSON) for the office workload, seed 42, 12 s, one client.
GOLDEN = {
    "solid_state": {
        "hub": "329e7e623bc9fe54adac6891b2a9a128bfcfb91b9916383991fd61b9affe0345",
        "trace": "5bb0a56cc4453c5e3203fbfc3bb3be53c78e516f7efba842087872711f9f2420",
        "report": "92c892c6fbb90a900b918a0c040721f8e8bbbdc8774aff2c45e6e2da4253705b",
    },
    "disk": {
        "hub": "49f1ff7893081e108467a489c4a3238aa8bf7c3226eda8d43fe82dd862ebe972",
        "trace": "38b8dac489a368237be203235b455a04c3bcee141060a8b46fd0bdf014aa654c",
        "report": "a0b837c3fd0251559e4bc4223cd9429ce461a1fbb671b5fefd7ad0024da92490",
    },
    "flash_disk": {
        "hub": "2dc9d685435e3a5bc0059ed20292a16d51225f7e07d619dcd6eb66c04c747e4a",
        "trace": "19f6de6758128846ddf38075ef2fe1e6494cfe2a2af16edeabd976503c3222fa",
        "report": "7e7571d68cdd14601ade91f7c13cad5d912da7cd8f6bd8c0d84d8b36cbf7ce3e",
    },
    "flash_eip": {
        "hub": "3a02cbec38996fb8952f34a98915f3e7bc4c9b64e1b61d4b56dee3345712d232",
        "trace": "45f55d52047092431fb0828edf4467082849d4cb3e0b086144982f0016ce0760",
        "report": "d274437d55348968173eeca4e732a82fa5c4a10e06f199e3f51c175590d0c5b2",
    },
    "naive_flash": {
        "hub": "4ab6cb9ae02e4d57b299424a14270038752bf0a1401b0093a4b03373ec9f3120",
        "trace": "3e537c196ee93196b29295abaedfc7405c77014aab6d619d5981a809a1bb2c80",
        "report": "a8749ef93e27bca2fe6731f6df3f55fbd44e2eeee260367971c79f3bcb808251",
    },
}


def _machine(org: Organization) -> MobileComputer:
    return MobileComputer(SystemConfig(organization=org, seed=SEED))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, default=str).encode()


def _sched_run(org: Organization, clients: int = 1):
    """Traced scheduler-driven replay; returns (hub JSON, trace bytes, report)."""
    with runtime.tracing(Tracer()) as tracer:
        machine = _machine(org)
        report, _metrics = machine.run_workload(
            "office", seed=SEED, duration_s=DURATION, clients=clients
        )
    with tempfile.TemporaryDirectory() as tmp:
        # The CLI's trace path: one raw shard, then the canonical merge.
        shard = shard_filename(os.path.join(tmp, "trace"), 0)
        tracer.to_jsonl(shard)
        path = os.path.join(tmp, "trace.jsonl")
        merge_shards_to_jsonl(path, [shard])
        with open(path, "rb") as fh:
            trace = fh.read()
    return _dumps(machine.hub.snapshot()), trace, report


@functools.lru_cache(maxsize=None)
def _single_client_run(org: Organization):
    """One single-client run per organization, shared by the tests below."""
    return _sched_run(org)


@pytest.mark.parametrize("org", list(Organization), ids=lambda o: o.value)
def test_single_client_golden_equivalence(org):
    """Hub snapshot and canonical trace bytes match the stored digests."""
    hub, trace, report = _single_client_run(org)
    assert _sha256(hub) == GOLDEN[org.value]["hub"]
    assert _sha256(trace) == GOLDEN[org.value]["trace"]
    # Single-client reports carry no multi-client extras.
    assert report.per_client == {}
    assert report.scheduler is None


def test_single_client_report_latency_identical():
    """Report snapshots (op counts, latency summaries) match the digests."""
    for org in Organization:
        _hub, _trace, report = _single_client_run(org)
        assert report.errors == 0
        assert _sha256(_dumps(report.snapshot())) == GOLDEN[org.value]["report"]


def test_multi_client_totals_and_attribution():
    _, _, report = _sched_run(Organization.SOLID_STATE, clients=3)
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
    assert report.scheduler is not None
    assert report.scheduler["steps_run"] == report.records


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
        "office", seed=seed, duration_s=duration, clients=nclients
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
