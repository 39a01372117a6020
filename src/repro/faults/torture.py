"""Crash-consistency torture harness.

The harness replays a deterministic synthetic workload against a
:class:`~repro.storage.flashstore.FlashStore` (or a full conventional
file system stacked on the flash FTL), cuts power at every *k*-th device
operation across a sweep, runs recovery, and asserts the crash-safety
contract:

- **no acknowledged block is lost** — every key whose ``write_block``
  returned before the cut is present after recovery;
- **no torn block surfaces** — every recovered value is byte-identical
  to *some* value that was acknowledged for that key (or the complete
  in-flight value for the one write the cut interrupted); a prefix, a
  scrambled sector, or a bit-soup payload is never returned;
- **the index matches a live rescan** — recovering the same medium twice
  yields the identical key set and values, and the rebuilt allocator
  passes its own invariant checks.

Deleted keys are allowed to *resurrect* with any previously-acknowledged
value (LFS semantics: summary scanning cannot distinguish "deleted" from
"index lost"), but never with a value that was never written.

Beyond power cuts, two more campaigns exercise the resilience machinery
under the same invariants: a **bit-flip campaign** (read-disturb flips
that per-block ECC must correct and scrub away) and a **program/erase
failure campaign** (transient failures retried, permanent failures
retiring the sector and relocating its contents).

Everything is seeded; a failing ``(mode, seed, cut_at)`` triple replays
bit-for-bit from the command line::

    python -m repro torture --mode flashstore --seed 7
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.devices.catalog import FLASH_PAPER_NOMINAL
from repro.devices.errors import PowerCutError
from repro.devices.flash import FlashMemory
from repro.faults.injector import FaultInjector, FaultPlan
from repro.sim.clock import SimClock
from repro.sim.rand import substream
from repro.storage.allocator import OutOfFlashSpace
from repro.storage.flashstore import CorruptBlockError, FlashStore

KB = 1024

#: The flash device every torture run builds.
FLASH_BYTES = 256 * KB
FLASH_BANKS = 2

#: Block sizes the synthetic workload draws from: a sub-page record, an
#: odd mid-size block, and one exactly page-aligned payload.
_SIZES = (300, 1200, 4096)


@dataclass(frozen=True)
class TortureConfig:
    """One torture campaign's knobs (all deterministic under ``seed``).

    Every power cut tears the in-flight operation (a partial program or
    scrambled erase, :class:`FaultPlan`'s default).
    """

    mode: str = "flashstore"  # "flashstore" | "fsck"
    #: Workload operations (writes/deletes/reads) per run.
    ops: int = 400
    #: Distinct logical keys the workload touches.
    keys: int = 24
    seed: int = 0
    #: Cut at every ``cut_every``-th device operation in the sweep.
    cut_every: int = 7
    #: Cap on the number of cut points (None = the whole run).
    max_cuts: Optional[int] = None
    ecc: bool = True
    bit_flip_per_read: float = 0.0
    program_fail_rate: float = 0.0
    erase_fail_rate: float = 0.0
    permanent_fraction: float = 0.0

    def validate(self) -> None:
        for name in ("ops", "keys", "cut_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.max_cuts is not None and self.max_cuts < 0:
            raise ValueError(f"max_cuts cannot be negative, got {self.max_cuts}")

    def plan(self, cut_at: Optional[int]) -> FaultPlan:
        return FaultPlan(
            seed=self.seed,
            bit_flip_per_read=self.bit_flip_per_read,
            program_fail_rate=self.program_fail_rate,
            erase_fail_rate=self.erase_fail_rate,
            permanent_fraction=self.permanent_fraction,
            power_cut_at_op=cut_at,
        )


@dataclass
class TortureReport:
    """Aggregate outcome of one torture sweep."""

    mode: str
    runs: int = 0
    cuts_fired: int = 0
    baseline_ops: int = 0
    violations: List[str] = field(default_factory=list)
    bit_flips: int = 0
    ecc_corrected: int = 0
    scrub_rewrites: int = 0
    program_failures: int = 0
    erase_failures: int = 0
    program_retries: int = 0
    erase_retries: int = 0
    sectors_retired: int = 0
    blocks_recovered: int = 0
    corrupt_summaries: int = 0

    def merge_run(self, injector: FaultInjector, live: FlashStore, recovered: FlashStore) -> None:
        """Fold one run's numbers in: fault/resilience counters come from
        the *live* (pre-crash) store where the faults actually hit, scan
        results from the *recovered* store."""
        self.bit_flips += injector.counters["bit_flips"]
        self.program_failures += injector.counters["program_failures"]
        self.erase_failures += injector.counters["erase_failures"]
        for store in (live, recovered):
            self.ecc_corrected += int(store.stats.counter("ecc_corrected").value)
            self.scrub_rewrites += int(store.stats.counter("scrub_rewrites").value)
        self.program_retries += int(live.stats.counter("program_retries").value)
        self.erase_retries += int(live.stats.counter("erase_retries").value)
        self.sectors_retired += len(live.allocator.retired_sectors())
        self.blocks_recovered += len(recovered.keys())
        self.corrupt_summaries += int(
            recovered.stats.counter("recovery_corrupt_summaries").value
        )

    def render(self) -> str:
        lines = [
            f"torture mode={self.mode}: {self.runs} runs, "
            f"{self.cuts_fired} power cuts, baseline {self.baseline_ops} device ops",
            f"  faults: {self.bit_flips} bit flips "
            f"({self.ecc_corrected} ECC-corrected, {self.scrub_rewrites} scrubbed), "
            f"{self.program_failures} program / {self.erase_failures} erase failures "
            f"({self.program_retries + self.erase_retries} retried), "
            f"{self.sectors_retired} sectors retired",
            f"  recovery: {self.blocks_recovered} blocks recovered, "
            f"{self.corrupt_summaries} torn/corrupt summaries rejected",
        ]
        if self.violations:
            lines.append(f"  VIOLATIONS ({len(self.violations)}):")
            lines.extend(f"    - {v}" for v in self.violations[:20])
            if len(self.violations) > 20:
                lines.append(f"    ... and {len(self.violations) - 20} more")
        else:
            lines.append("  invariants: all hold (no lost, torn, or phantom blocks)")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Workload generation.
# ----------------------------------------------------------------------


def _value_for(key: int, op_index: int, size: int) -> bytes:
    """Deterministic, self-identifying payload: any torn or misdirected
    block is byte-distinguishable from every legitimate value."""
    pattern = struct.pack("<IIQ", key, op_index, 0x70C7_0B5C)
    reps = -(-size // len(pattern))
    return (pattern * reps)[:size]


def _workload_ops(cfg: TortureConfig) -> List[Tuple[str, int, bytes]]:
    """The synthetic workload: zipf-skewed writes with occasional deletes
    and read-backs.  Purely a function of the config (not of any faults
    injected while replaying it)."""
    rng = substream(cfg.seed, "torture-workload")
    ops: List[Tuple[str, int, bytes]] = []
    for i in range(cfg.ops):
        key = rng.zipf_index(cfg.keys, 1.1)
        roll = rng.random()
        if roll < 0.08:
            ops.append(("delete", key, b""))
        elif roll < 0.25:
            ops.append(("read", key, b""))
        else:
            size = _SIZES[rng.randint(0, len(_SIZES) - 1)]
            ops.append(("write", key, _value_for(key, i, size)))
    return ops


# ----------------------------------------------------------------------
# Flash-store mode: block-level crash consistency.
# ----------------------------------------------------------------------


def _build_flash(cfg: TortureConfig, cut_at: Optional[int]) -> Tuple[FlashMemory, FaultInjector]:
    flash = FlashMemory(
        FLASH_BYTES, spec=FLASH_PAPER_NOMINAL, banks=FLASH_BANKS, name="torture-flash"
    )
    injector = FaultInjector(cfg.plan(cut_at)).attach(flash)
    return flash, injector


def _flashstore_run(
    cfg: TortureConfig, cut_at: Optional[int]
) -> Tuple[List[str], bool, FaultInjector, FlashStore, FlashStore]:
    """One workload replay with an optional scheduled power cut.

    Returns ``(violations, cut_fired, injector, live_store, recovered_store)``.
    """
    clock = SimClock()
    flash, injector = _build_flash(cfg, cut_at)
    store = FlashStore(flash, clock, ecc=cfg.ecc)
    check_reads = cfg.ecc or cfg.bit_flip_per_read == 0.0

    acked: Dict[int, bytes] = {}
    history: Dict[int, Set[bytes]] = {}
    in_flight: Optional[Tuple[int, bytes]] = None
    violations: List[str] = []
    cut = False
    where = f"cut@{cut_at}" if cut_at is not None else "no-cut"

    for kind, key, value in _workload_ops(cfg):
        blk = ("blk", key)
        try:
            if kind == "delete":
                if key in acked:
                    store.delete_block(blk)
                    del acked[key]
            elif kind == "read":
                if key in acked:
                    got = store.read_block(blk)
                    if check_reads and got != acked[key]:
                        violations.append(f"[{where}] live read of block {key} corrupted")
            else:
                in_flight = (key, value)
                store.write_block(blk, value)
                acked[key] = value
                history.setdefault(key, set()).add(value)
                in_flight = None
        except PowerCutError:
            cut = True
            break
        except OutOfFlashSpace:
            # Retirements shrank the device below the workload's working
            # set: a legitimate terminal condition, not a violation.  The
            # data persisted so far must still recover intact.
            in_flight = None
            break
        except CorruptBlockError:
            violations.append(f"[{where}] block {key} uncorrectable during workload")
            break

    # ------------------------------------------------------------------
    # "Reboot": all DRAM state is dead; rebuild purely from the medium.
    # ------------------------------------------------------------------
    injector.disarm()
    recovered = FlashStore.recover(flash, SimClock(), ecc=cfg.ecc)

    for key, value in acked.items():
        blk = ("blk", key)
        allowed = {value}
        if in_flight is not None and in_flight[0] == key:
            allowed.add(in_flight[1])
        if not recovered.contains(blk):
            violations.append(f"[{where}] acknowledged block {key} lost after recovery")
            continue
        try:
            got = recovered.read_block(blk)
        except CorruptBlockError:
            violations.append(f"[{where}] acknowledged block {key} uncorrectable after recovery")
            continue
        if got not in allowed:
            violations.append(
                f"[{where}] block {key} torn after recovery "
                f"(got {len(got)} bytes matching no acknowledged value)"
            )

    for blk in recovered.keys():
        key = blk[1]
        if key in acked:
            continue
        # A key we did not expect: either the interrupted in-flight write
        # landed completely, or a deleted block resurrected.  Both are
        # legal -- but only with a value that was actually written once.
        allowed = set(history.get(key, set()))
        if in_flight is not None and in_flight[0] == key:
            allowed.add(in_flight[1])
        try:
            got = recovered.read_block(blk)
        except CorruptBlockError:
            violations.append(f"[{where}] resurrected block {key} uncorrectable")
            continue
        if got not in allowed:
            violations.append(f"[{where}] block {key} surfaced with a never-written value")

    try:
        recovered.allocator.check_invariants()
    except AssertionError as exc:
        violations.append(f"[{where}] allocator invariants broken after recovery: {exc}")

    # The index must match a live rescan of the same medium.
    rescan = FlashStore.recover(flash, SimClock(), ecc=cfg.ecc)
    if set(rescan.keys()) != set(recovered.keys()):
        violations.append(f"[{where}] recovery is not idempotent: rescan found a different index")
    else:
        for blk in rescan.keys():
            try:
                if rescan.read_block(blk) != recovered.read_block(blk):
                    violations.append(f"[{where}] rescan disagrees on block {blk[1]}")
            except CorruptBlockError:
                violations.append(f"[{where}] rescan hit uncorrectable block {blk[1]}")

    return violations, cut, injector, store, recovered


# ----------------------------------------------------------------------
# Fsck mode: file-system-level crash consistency.
# ----------------------------------------------------------------------


def _fsck_run(
    cfg: TortureConfig, cut_at: Optional[int]
) -> Tuple[List[str], bool, FaultInjector, FlashStore, FlashStore]:
    """One conventional-FS-over-FTL replay with an optional power cut.

    After the cut the stack is rebuilt from the medium and ``fsck``
    must be able to repair the volume to a clean state.
    """
    from repro.fs.cache import BufferCache
    from repro.fs.diskfs import ConventionalFileSystem, mkfs
    from repro.fs.flashlog import LogStructuredFTL
    from repro.fs.fsck import fsck

    clock = SimClock()
    flash, injector = _build_flash(cfg, cut_at)
    where = f"cut@{cut_at}" if cut_at is not None else "no-cut"
    violations: List[str] = []
    cut = False

    store = FlashStore(flash, clock, ecc=cfg.ecc)
    ftl = LogStructuredFTL(store)
    cache = BufferCache(ftl, clock, capacity_blocks=8)
    rng = substream(cfg.seed, "torture-fsck")
    try:
        layout = mkfs(cache, ninodes=64)
        fs = ConventionalFileSystem(cache, layout)
        for i in range(cfg.ops):
            name = f"/f{rng.randint(0, 9)}"
            roll = rng.random()
            if roll < 0.55:
                if not fs.exists(name):
                    fs.create(name)
                size = rng.randint(1, 6000)
                fs.write(name, 0, _value_for(i, rng.randint(0, 1 << 30), size))
            elif roll < 0.7:
                if fs.exists(name):
                    fs.delete(name)
            else:
                fs.sync()
    except PowerCutError:
        cut = True
    except OutOfFlashSpace:
        pass

    injector.disarm()
    store2 = FlashStore.recover(flash, SimClock(), ecc=cfg.ecc)
    ftl2 = LogStructuredFTL(store2)
    cache2 = BufferCache(ftl2, SimClock(), capacity_blocks=8)
    try:
        fs2 = ConventionalFileSystem(cache2)  # re-reads the superblock
    except Exception as exc:  # noqa: BLE001 -- any remount failure is a finding
        violations.append(f"[{where}] remount failed after recovery: {exc}")
        return violations, cut, injector, store, store2

    try:
        fsck(fs2, repair=True)
        verify = fsck(fs2, repair=False)
    except Exception as exc:  # noqa: BLE001
        violations.append(f"[{where}] fsck crashed on recovered volume: {exc}")
        return violations, cut, injector, store, store2
    if not verify.clean:
        violations.append(
            f"[{where}] volume not repairable: {verify.problem_count()} problems after fsck"
        )
        return violations, cut, injector, store, store2

    # The repaired namespace must be fully walkable and readable.
    try:
        for name in fs2.listdir("/"):
            st = fs2.stat("/" + name)
            if not st.is_dir:
                fs2.read("/" + name, 0, st.size)
    except Exception as exc:  # noqa: BLE001
        violations.append(f"[{where}] repaired volume unreadable: {exc}")

    return violations, cut, injector, store, store2


# ----------------------------------------------------------------------
# Sweep drivers.
# ----------------------------------------------------------------------

_RUNNERS = {"flashstore": _flashstore_run, "fsck": _fsck_run}

#: First device-operation index eligible for a power cut, per mode.  The
#: fsck mode never cuts inside mkfs: a half-written superblock is a dead
#: volume by construction, exactly like interrupting real mkfs.
FIRST_CUT = {"flashstore": 10, "fsck": 40}


def run_torture(cfg: TortureConfig) -> TortureReport:
    """Run the power-cut sweep: a fault-free baseline to measure the
    run's device-operation count, then one full replay per cut point."""
    if cfg.mode not in _RUNNERS:
        raise ValueError(f"unknown torture mode {cfg.mode!r}; pick from {sorted(_RUNNERS)}")
    cfg.validate()
    runner = _RUNNERS[cfg.mode]
    report = TortureReport(mode=cfg.mode)

    violations, _, injector, live, recovered = runner(cfg, None)
    report.runs += 1
    report.baseline_ops = injector.op_count
    report.violations.extend(violations)
    report.merge_run(injector, live, recovered)

    cut_points = list(range(FIRST_CUT[cfg.mode], report.baseline_ops + 1, cfg.cut_every))
    if cfg.max_cuts is not None:
        cut_points = cut_points[: cfg.max_cuts]

    for cut_at in cut_points:
        violations, cut, injector, live, recovered = runner(cfg, cut_at)
        report.runs += 1
        if cut:
            report.cuts_fired += 1
        report.violations.extend(violations)
        report.merge_run(injector, live, recovered)
    return report


def run_bit_flip_campaign(cfg: TortureConfig, rounds: int = 4) -> TortureReport:
    """Read-disturb campaign: aggressive per-read flip probability (0.3),
    no power cuts, several seeds.  ECC must correct and scrub every
    flip."""
    report = TortureReport(mode=f"{cfg.mode}+bitflips")
    runner = _RUNNERS[cfg.mode]
    for round_index in range(rounds):
        round_cfg = TortureConfig(
            mode=cfg.mode,
            ops=cfg.ops,
            keys=cfg.keys,
            seed=cfg.seed + round_index,
            ecc=True,
            bit_flip_per_read=0.3,
        )
        violations, _, injector, live, recovered = runner(round_cfg, None)
        report.runs += 1
        report.violations.extend(violations)
        report.merge_run(injector, live, recovered)
    return report


def run_program_failure_campaign(cfg: TortureConfig, rounds: int = 4) -> TortureReport:
    """Program/erase failure campaign (2% of programs and 1% of erases
    fail, a quarter of them permanently): transient failures must be
    retried through, permanent ones must retire the sector without
    losing data."""
    report = TortureReport(mode=f"{cfg.mode}+pgmfail")
    runner = _RUNNERS[cfg.mode]
    for round_index in range(rounds):
        round_cfg = TortureConfig(
            mode=cfg.mode,
            ops=cfg.ops,
            keys=cfg.keys,
            seed=cfg.seed + round_index,
            ecc=cfg.ecc,
            program_fail_rate=0.02,
            erase_fail_rate=0.01,
            permanent_fraction=0.25,
        )
        violations, _, injector, live, recovered = runner(round_cfg, None)
        report.runs += 1
        report.violations.extend(violations)
        report.merge_run(injector, live, recovered)
    return report
