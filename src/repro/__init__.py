"""repro -- a reproduction of "Operating System Implications of
Solid-State Mobile Computers" (Caceres, Douglis, Li, Marsh; HotOS 1993).

The package simulates diskless mobile computers built from
battery-backed DRAM and direct-mapped flash memory, together with the
conventional disk-based organization the paper argues against, and
regenerates every quantitative claim in the paper as an experiment
(E1-E14, plus ablations X1 and X2; see DESIGN.md and EXPERIMENTS.md).

Quickstart::

    from repro import MobileComputer, SystemConfig, Organization

    machine = MobileComputer(SystemConfig(organization=Organization.SOLID_STATE))
    report, metrics = machine.run_workload("office", duration_s=120.0)
    print(metrics.snapshot())

Subpackages:

- :mod:`repro.sim`      -- clock, event engine, statistics, RNG streams
- :mod:`repro.devices`  -- DRAM, flash, disk, battery models (1993 catalog)
- :mod:`repro.mem`      -- single-level store, VM, XIP, mmap/COW
- :mod:`repro.fs`       -- memory-resident FS, conventional FS, FTLs
- :mod:`repro.storage`  -- write buffer, flash log, GC, wear, banks
- :mod:`repro.trace`    -- synthetic workloads and replay
- :mod:`repro.power`    -- energy accounting
- :mod:`repro.trends`   -- 1993 technology-trend extrapolation
- :mod:`repro.core`     -- whole-machine assembly and metrics
- :mod:`repro.analysis` -- experiment drivers E1-E14, X1, X2 and reporting
"""

from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.core.metrics import RunMetrics

__version__ = "1.0.0"

__all__ = [
    "MobileComputer",
    "SystemConfig",
    "Organization",
    "RunMetrics",
    "__version__",
]
