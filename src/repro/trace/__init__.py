"""Workloads: synthetic traces and replay.

The paper's write-buffer claim (E3) leans on trace studies of real
systems: Ousterhout et al.'s BSD analysis (SOSP '85) and Baker et al.'s
Sprite measurements (SOSP '91).  Those traces are not available, so
:mod:`repro.trace.synth` generates streams with the same published
statistical structure (lognormal file sizes, Zipf file popularity,
overwrite-dominated write traffic, most new bytes dying young), and
:mod:`repro.trace.workloads` provides named profiles used throughout the
experiments.  :mod:`repro.trace.replay` runs any trace against any file
system and reports latency/throughput.
"""

from repro.trace.model import OpType, TraceRecord
from repro.trace.replay import ReplayReport, TraceReplayer
from repro.trace.synth import SyntheticTraceGenerator, WorkloadProfile
from repro.trace.workloads import (
    WORKLOADS,
    compile_profile,
    database_profile,
    exec_heavy_profile,
    generate_workload,
    office_profile,
    pim_profile,
    sequential_media_profile,
)

__all__ = [
    "OpType",
    "TraceRecord",
    "WorkloadProfile",
    "SyntheticTraceGenerator",
    "TraceReplayer",
    "ReplayReport",
    "WORKLOADS",
    "generate_workload",
    "office_profile",
    "pim_profile",
    "exec_heavy_profile",
    "database_profile",
    "compile_profile",
    "sequential_media_profile",
]
