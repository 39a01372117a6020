"""Experiment drivers E1-E14, X1 and X2.

Each module exposes ``run(quick: bool = False, **kwargs) ->
ExperimentResult``.  ``ALL_EXPERIMENTS`` maps experiment ids to drivers;
the CLI (``python -m repro experiments``) and the golden harness
(``benchmarks/bench_experiments.py``) both look drivers up here.
"""

from repro.analysis.experiments import (
    e01_devices,
    e02_trends,
    e03_write_buffer,
    e04_fs_organizations,
    e05_mmap_cow,
    e06_xip,
    e07_vm_pressure,
    e08_banks,
    e09_wear_gc,
    e10_sizing,
    e11_battery,
    e12_full_system,
    e13_fault_tolerance,
    e14_contention,
    x01_compression,
    x02_flush_policy,
)
from repro.analysis.experiments.base import ExperimentResult

ALL_EXPERIMENTS = {
    "E1": e01_devices.run,
    "E2": e02_trends.run,
    "E3": e03_write_buffer.run,
    "E4": e04_fs_organizations.run,
    "E5": e05_mmap_cow.run,
    "E6": e06_xip.run,
    "E7": e07_vm_pressure.run,
    "E8": e08_banks.run,
    "E9": e09_wear_gc.run,
    "E10": e10_sizing.run,
    "E11": e11_battery.run,
    "E12": e12_full_system.run,
    "E13": e13_fault_tolerance.run,
    "E14": e14_contention.run,
    "X1": x01_compression.run,
    "X2": x02_flush_policy.run,
}

__all__ = ["ALL_EXPERIMENTS", "ExperimentResult"]
