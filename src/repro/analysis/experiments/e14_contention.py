"""E14 -- multi-client contention scaling on the kernel request path.

Claims exercised (extending E8's bank-partitioning argument from one
device to the whole machine):

- The paper's Section 3.3 argues that slow erase/write cycles must not
  block read access; partitioning is its per-device answer.  E14 asks
  the system-level version of the same question: when several clients
  share one machine through the kernel request path, how do throughput
  and tail latency degrade as the offered load multiplies?

Each organization replays N independent seed-derived variants of the
office workload as N concurrent clients against one shared machine,
their streams merged by record time in the one replay loop.  One
client is the calibrated baseline (numerically identical to the
synchronous seed path); adding clients multiplies the offered load
without changing any single stream, so the slowdown is pure
contention: queueing in the devices, dilution of the shared write
buffer and caches, and dispatch delay (a record run after its time
because other clients held the clock).

Reported per (organization, clients): aggregate throughput (ops per
simulated second of machine time), mean and p99 read/write latency, and
total dispatch delay.  The solid-state organizations should
degrade most gracefully -- uniform fast access means an op stalled
behind another client's op stalls for microseconds, not for a disk
spin-up.
"""

from __future__ import annotations

from repro.analysis.experiments.base import ExperimentResult
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer

MB = 1024 * 1024

ORG_ORDER = [
    Organization.SOLID_STATE,
    Organization.DISK,
    Organization.FLASH_DISK,
    Organization.FLASH_EIP,
    Organization.NAIVE_FLASH,
]


def run_one(org: Organization, clients: int, duration: float, seed: int) -> list:
    config = SystemConfig(
        organization=org,
        dram_bytes=6 * MB,
        flash_bytes=32 * MB,
        disk_bytes=48 * MB,
        seed=seed,
    )
    report, _metrics = MobileComputer(config).run_workload(
        "office", duration_s=duration, clients=clients
    )
    elapsed = report.elapsed_sim_s or 1e-12
    read = report.op_latency.get("read", {})
    write = report.op_latency.get("write", {})
    return [
        org.value,
        clients,
        report.records,
        report.records / elapsed,
        read.get("mean", 0.0) * 1e3,
        read.get("p99", 0.0) * 1e3,
        write.get("mean", 0.0) * 1e3,
        write.get("p99", 0.0) * 1e3,
        report.dispatch_delay_total_s,
    ]


def run(quick: bool = False, seed: int = 0) -> ExperimentResult:
    duration = 20.0 if quick else 60.0
    client_counts = [1, 2] if quick else [1, 2, 4]
    result = ExperimentResult(
        experiment_id="E14",
        title="Throughput and tail latency vs concurrent clients",
        headers=[
            "organization",
            "clients",
            "ops",
            "ops_per_s",
            "read_ms",
            "p99_read_ms",
            "write_ms",
            "p99_write_ms",
            "dispatch_delay_sum_s",
        ],
        rows=[
            run_one(org, clients, duration, seed)
            for org in ORG_ORDER
            for clients in client_counts
        ],
    )
    p99 = {(r["organization"], r["clients"]): r["p99_read_ms"] for r in result.row_dicts()}
    lo, hi = client_counts[0], client_counts[-1]

    def _ratio(org: Organization) -> float:
        base = p99[org.value, lo]
        return p99[org.value, hi] / base if base > 0.0 else 0.0

    result.notes.append(
        f"p99 read latency {lo}->{hi} clients: solid_state "
        f"x{_ratio(Organization.SOLID_STATE):.1f}, disk x{_ratio(Organization.DISK):.1f} "
        f"-- uniform fast access degrades gracefully where the mechanical path "
        f"amplifies contention (cf. E8)"
    )
    return result
