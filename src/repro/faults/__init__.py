"""Fault injection and resilience (device-level robustness).

The paper's argument rests on flash being an *imperfect* medium: bounded
endurance, slow asymmetric writes, and — per the Intel Series-2 data
sheets it cites — program/erase operations that can fail outright.  This
package makes those imperfections injectable and deterministic so the
storage stack's defenses can be exercised end-to-end:

- :mod:`repro.faults.injector` — a seedable :class:`FaultPlan` /
  :class:`FaultInjector` that hooks :class:`~repro.devices.flash.FlashMemory`
  to flip stored bits on reads, fail programs/erases (transiently or
  permanently), and cut power at an exact device-operation count.
- :mod:`repro.faults.ecc` — the single-error-correcting codeword the
  flash store embeds in each block's summary entry (NAND OOB style).
- :mod:`repro.faults.torture` — the crash-consistency torture harness:
  replay a workload, cut power at every k-th device operation, recover,
  and assert that no acknowledged data was lost and no torn data
  surfaced.  Run it via ``python -m repro torture``.
"""

from repro.faults.ecc import ECC_BYTES, ecc_check, ecc_encode
from repro.faults.injector import FaultInjector, FaultPlan


__all__ = [
    "ECC_BYTES",
    "ecc_encode",
    "ecc_check",
    "FaultPlan",
    "FaultInjector",
]
