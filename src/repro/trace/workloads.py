"""Canned workload profiles.

Five named workloads cover the usage classes the paper's introduction
motivates (notebook office work, palmtop PIMs, program launching,
record-oriented databases, and media streaming).  Each is a
:class:`~repro.trace.synth.WorkloadProfile` with parameters chosen to
stress a different part of the storage organization:

- ``office``    -- the workstation-like mix (Baker/Ousterhout shape):
  overwrite-heavy small writes, temp files, saves.  Drives E3/E4/E12.
- ``pim``       -- Sharp Wizard-class personal information manager:
  tiny record updates into a few hot files, low rate, battery-sensitive.
- ``exec_heavy``-- frequent program launches (the OmniBook story);
  mostly reads and EXECs.  Drives E6.
- ``database``  -- uniform random record updates over a larger file
  population: the hard case for a small write buffer (little locality).
- ``sequential_media`` -- large sequential writes then reads (voice
  notes / fax images on a PDA): high bandwidth, little reuse.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from repro.trace.model import TraceRecord
from repro.trace.synth import SyntheticTraceGenerator, WorkloadProfile

KB = 1024


def office_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="office",
        ops_per_second=12.0,
        n_dirs=8,
        initial_files=60,
        file_select_skew=1.1,
        p_write=0.32,
        p_whole_rewrite=0.06,
        p_create_temp=0.10,
        p_delete=0.01,
        p_sync=0.004,
        file_size_median=6 * KB,
        file_size_sigma=1.3,
        io_size_median=2 * KB,
        p_overwrite_start=0.55,
        temp_lifetime_s=8.0,
    )


def pim_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="pim",
        ops_per_second=2.0,
        n_dirs=3,
        initial_files=12,
        file_select_skew=1.6,  # calendar + address book dominate
        p_write=0.45,
        p_whole_rewrite=0.02,
        p_create_temp=0.02,
        p_delete=0.005,
        p_sync=0.01,
        file_size_median=2 * KB,
        file_size_sigma=0.9,
        max_file_bytes=64 * KB,
        io_size_median=256.0,
        io_size_sigma=0.7,
        max_io_bytes=4 * KB,
        p_overwrite_start=0.70,
        temp_lifetime_s=4.0,
    )


def exec_heavy_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="exec_heavy",
        ops_per_second=6.0,
        n_dirs=4,
        initial_files=30,
        p_write=0.10,
        p_whole_rewrite=0.02,
        p_create_temp=0.05,
        p_delete=0.005,
        p_exec=0.20,
        p_sync=0.003,
        file_size_median=4 * KB,
        io_size_median=1 * KB,
        p_overwrite_start=0.5,
        programs=(
            ("editor", 96 * KB),
            ("calendar", 48 * KB),
            ("mailer", 128 * KB),
            ("spreadsheet", 192 * KB),
            ("terminal", 32 * KB),
        ),
    )


def database_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="database",
        ops_per_second=15.0,
        n_dirs=2,
        initial_files=20,
        file_select_skew=0.2,  # little popularity skew: hard for buffers
        p_write=0.50,
        p_whole_rewrite=0.0,
        p_create_temp=0.0,
        p_delete=0.0,
        p_sync=0.02,  # databases sync for durability
        file_size_median=128 * KB,
        file_size_sigma=0.6,
        max_file_bytes=512 * KB,
        io_size_median=512.0,
        io_size_sigma=0.5,
        max_io_bytes=4 * KB,
        p_overwrite_start=0.05,
        p_append=0.05,  # mostly random in-place record updates
    )


def compile_profile() -> WorkloadProfile:
    """An edit-compile-link loop: the canonical Sprite/BSD trace shape.

    Compiles are the extreme case for the write buffer: bursts of
    object-file creation where nearly every byte is deleted or replaced
    by the next rebuild -- Baker '91's "most new bytes die young" came
    substantially from exactly this traffic.
    """
    return WorkloadProfile(
        name="compile",
        ops_per_second=20.0,
        n_dirs=4,
        initial_files=35,  # sources + headers
        file_select_skew=0.9,
        p_write=0.18,
        p_whole_rewrite=0.08,  # editor saves + relinked binaries
        p_create_temp=0.30,  # .o files and cpp intermediates
        p_delete=0.02,
        p_sync=0.002,
        file_size_median=10 * KB,
        file_size_sigma=1.1,
        max_file_bytes=256 * KB,
        io_size_median=6 * KB,
        io_size_sigma=0.8,
        max_io_bytes=64 * KB,
        p_overwrite_start=0.35,
        p_append=0.45,  # compilers append output streams
        temp_lifetime_s=15.0,  # objects live until the next rebuild
    )


def sequential_media_profile() -> WorkloadProfile:
    return WorkloadProfile(
        name="sequential_media",
        ops_per_second=4.0,
        n_dirs=2,
        initial_files=6,
        file_select_skew=0.8,
        p_write=0.35,
        p_whole_rewrite=0.0,
        p_create_temp=0.03,
        p_delete=0.02,
        p_sync=0.002,
        file_size_median=96 * KB,
        file_size_sigma=0.8,
        max_file_bytes=512 * KB,
        io_size_median=24 * KB,
        io_size_sigma=0.5,
        max_io_bytes=64 * KB,
        p_overwrite_start=0.05,
        p_append=0.80,  # streams append
        temp_lifetime_s=30.0,
    )


#: Registry of profile factories, keyed by workload name.
WORKLOADS: Dict[str, object] = {
    "office": office_profile,
    "pim": pim_profile,
    "exec_heavy": exec_heavy_profile,
    "database": database_profile,
    "compile": compile_profile,
    "sequential_media": sequential_media_profile,
}


def generate_workload(
    name: str, seed: int = 0, duration_s: float = 600.0
) -> List[TraceRecord]:
    """Generate a named workload's trace."""
    try:
        factory = WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}"
        ) from None
    profile = replace(factory(), duration_s=duration_s)
    return SyntheticTraceGenerator(profile, seed=seed).generate()
