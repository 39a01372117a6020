"""Whole-machine assembly: the :class:`MobileComputer`.

One class builds any of the five storage organizations from a
:class:`~repro.core.config.SystemConfig` and exposes a uniform surface:

- ``fs``         -- a :class:`~repro.fs.api.FileSystem`
- ``vm``         -- the virtual memory system
- ``programs``   -- the XIP program store (a dedicated flash chip, the
  OmniBook's "software shipped in removable memory cards")
- ``run_workload`` -- trace replay with timers, program launches, power
  settlement, and metric collection wired up.

The organizations differ exactly where the paper says they should:

==============  =====================  ==========================
organization    file system            secondary storage path
==============  =====================  ==========================
SOLID_STATE     memory-resident        DRAM buffer -> flash log
NAIVE_FLASH     memory-resident        synchronous in-place flash
DISK            conventional + cache   magnetic disk
FLASH_DISK      conventional + cache   flash behind a log FTL
FLASH_EIP       conventional + cache   flash, erase-in-place
==============  =====================  ==========================
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from repro.core.config import CACHE_BYTES, FLASH_BANKS, Organization, SystemConfig
from repro.core.lifetime import lifetime_projection
from repro.core.metrics import RunMetrics
from repro.devices.battery import BatteryBank
from repro.devices.catalog import (
    DISK_HP_KITTYHAWK,
    DRAM_NEC_LOW_POWER,
    FLASH_PAPER_NOMINAL,
    MB,
)
from repro.devices.cpu import CPU
from repro.devices.dram import DRAM
from repro.devices.flash import FlashMemory
from repro.devices.disk import MagneticDisk
from repro.fs.blockdev import DiskBlockDevice
from repro.fs.cache import SYNC_INTERVAL_S, BufferCache
from repro.fs.diskfs import ConventionalFileSystem, mkfs
from repro.fs.flashlog import EraseInPlaceFlashBlockDevice, LogStructuredFTL
from repro.fs.memfs import MemoryFileSystem
from repro.mem.address import FLASH_BASE, PhysicalAddressSpace
from repro.mem.mmap import MmapManager
from repro.mem.paging import PAGE_SIZE, PageFrameAllocator
from repro.mem.swap import FlashSwap, RawDiskSwap, SwapBackend
from repro.mem.tlb import TLB
from repro.mem.vm import VirtualMemory
from repro.mem.xip import LaunchResult, ProgramStore, launch_load, launch_xip
from repro.obs import MetricsHub
from repro.obs import runtime as obs_runtime
from repro.power.energy import SETTLE_INTERVAL_S, PowerModel
from repro.sim.engine import Engine
from repro.sim.rand import substream
from repro.sim.stats import StatRegistry
from repro.storage.compression import BlockCompressor
from repro.storage.flashstore import FlashStore, InPlaceFlashStore
from repro.storage.manager import StorageManager
from repro.storage.writebuffer import WriteBuffer
from repro.trace.model import TraceRecord
from repro.trace.replay import ReplayReport, TraceReplayer
from repro.trace.workloads import WORKLOADS, generate_workload

DEFAULT_PROGRAM_BYTES = 64 * 1024
#: Disk space the disk organization sets aside as raw swap.
SWAP_BYTES = 8 * MB
MAX_RESIDENT_PROCESSES = 4


class MobileComputer:
    """A simulated mobile computer in one of the five organizations."""

    def __init__(self, config: SystemConfig) -> None:
        config.validate()
        self.config = config
        self.engine = Engine()
        self.clock = self.engine.clock
        self.phys = PhysicalAddressSpace(self.clock)
        self.stats = StatRegistry("machine")

        # --- Primary storage and power. ---------------------------------
        self.cpu = CPU()
        self.dram = DRAM(config.dram_bytes, spec=DRAM_NEC_LOW_POWER)
        self.dram_region = self.phys.add_region("dram", self.dram)
        self.battery = BatteryBank(
            config.primary_battery_joules, config.backup_battery_joules
        )
        self.battery.on_power_loss(self._on_power_loss)
        devices: List = [self.dram, self.cpu]

        # --- Organization-specific secondary storage. -------------------
        org = config.organization
        self.flash: Optional[FlashMemory] = None
        self.disk: Optional[MagneticDisk] = None
        self.store: Optional[Union[FlashStore, InPlaceFlashStore]] = None
        self.manager: Optional[StorageManager] = None
        self.cache: Optional[BufferCache] = None
        self.mmap: Optional[MmapManager] = None
        swap: Optional[SwapBackend] = None

        if org is not Organization.DISK:
            self.flash = FlashMemory(
                config.flash_bytes,
                spec=FLASH_PAPER_NOMINAL,
                banks=FLASH_BANKS,
                name="flash-data",
            )
            self.flash_region = self.phys.add_region(
                "flash", self.flash, base=FLASH_BASE
            )
            devices.append(self.flash)

        if org in (Organization.SOLID_STATE, Organization.NAIVE_FLASH):
            swap, _ = self._build_memory_fs(recover=False)
            if org is Organization.SOLID_STATE:
                # Late-bound: a reboot replaces the manager, and the one
                # timer then flushes the new one.
                self.engine.schedule_every(
                    config.flush_interval_s,
                    lambda: self.manager.flush_aged(),
                    name="writebuffer-age-flush",
                )
                if config.checkpoint_interval_s > 0:
                    self.engine.schedule_every(
                        config.checkpoint_interval_s,
                        self._periodic_checkpoint,
                        name="fs-checkpoint",
                    )
        else:
            if org is Organization.DISK:
                self.disk = MagneticDisk(config.disk_bytes, spec=DISK_HP_KITTYHAWK)
                devices.append(self.disk)
                data_bytes = config.disk_bytes - SWAP_BYTES
                blockdev = DiskBlockDevice(
                    self.disk, self.clock, nblocks=data_bytes // 4096
                )
                swap = RawDiskSwap(self.disk, self.clock, data_bytes, SWAP_BYTES)
            elif org is Organization.FLASH_DISK:
                assert self.flash is not None
                self.store = FlashStore(
                    self.flash, self.clock, wear=config.wear_policy
                )
                blockdev = LogStructuredFTL(self.store)
                swap = FlashSwap(self.store)
            else:  # FLASH_EIP
                assert self.flash is not None
                blockdev = EraseInPlaceFlashBlockDevice(self.flash, self.clock)
            self.cache = BufferCache(
                blockdev,
                self.clock,
                capacity_blocks=max(8, CACHE_BYTES // 4096),
                dram=self.dram,
            )
            self.engine.schedule_every(
                SYNC_INTERVAL_S, self.cache.flush, name="bcache-sync"
            )
            self.fs = ConventionalFileSystem(self.cache, mkfs(self.cache))

        # --- Virtual memory. ---------------------------------------------
        self.tlb = TLB()
        self._build_vm(swap)

        # --- Program store (XIP flash card). -----------------------------
        self.program_flash = FlashMemory(
            config.program_flash_bytes,
            spec=FLASH_PAPER_NOMINAL,
            banks=1,
            name="flash-programs",
        )
        self.program_region = self.phys.add_region(
            "flash-programs", self.program_flash
        )
        devices.append(self.program_flash)
        self.programs = ProgramStore(self.phys, self.program_region)
        self._program_sizes: Dict[str, int] = {}
        self._resident: List = []  # (space, LaunchResult) FIFO

        if self.store is not None and org is Organization.SOLID_STATE:
            self.mmap = MmapManager(self.vm, self.flash_region, self.store)

        # --- Power model. -------------------------------------------------
        self.power = PowerModel(devices, self.battery)
        self.engine.schedule_every(
            SETTLE_INTERVAL_S,
            lambda: self.power.settle(self.clock.now),
            name="power-settle",
        )
        self._rng = substream(config.seed, "machine")

        # --- Observability. ----------------------------------------------
        self.hub = MetricsHub()
        self._register_observability()
        # Every component built above took the tracer active now (see
        # repro.obs.runtime); the machine keeps it for its lifecycle
        # markers and to rebuild inside the same scope on reboot.
        self.tracer = obs_runtime.get_tracer()
        if self.tracer is not None:
            # Machine-lifecycle marker: monitors key per-machine state
            # (buffered-byte conservation, read-only latches) off these
            # so one trace spanning a sweep of machines checks each
            # machine independently.
            self.tracer.emit(
                "machine", "build", self.clock.now,
                detail={"organization": config.organization.value},
            )

    # ------------------------------------------------------------------
    # Assembly shared by construction and reboot.
    # ------------------------------------------------------------------

    def _build_memory_fs(self, recover: bool):
        """Assemble the memory-resident file system over ``self.flash``.

        Builds the store, write buffer, optional compressor and storage
        manager, then the file system itself.  With
        ``recover`` the store is rebuilt by scanning the flash log and
        the file system from its last checkpoint; otherwise both start
        empty.  Returns ``(swap, recovery report or None)``; only the
        solid-state organization swaps to flash.
        """
        config = self.config
        assert self.flash is not None
        solid = config.organization is Organization.SOLID_STATE
        if solid:
            self.store = (FlashStore.recover if recover else FlashStore)(
                self.flash, self.clock, wear=config.wear_policy
            )
        else:
            self.store = InPlaceFlashStore(self.flash, self.clock)
        buffer = WriteBuffer(
            config.write_buffer_bytes if solid else 0,
            self.clock,
            dram=self.dram,
            age_limit_s=config.buffer_age_limit_s,
        )
        compressor = (
            BlockCompressor(self.clock, self.cpu)
            if (solid and config.compress_flash)
            else None
        )
        self.manager = StorageManager(self.clock, self.store, buffer, compressor=compressor)
        report = None
        if recover:
            self.fs, report = MemoryFileSystem.recover(self.manager, dram=self.dram)
        else:
            self.fs = MemoryFileSystem(self.manager, dram=self.dram)
        return (FlashSwap(self.store) if solid else None), report

    def _build_vm(self, swap: Optional[SwapBackend]) -> None:
        """Fresh page frames and virtual memory over ``swap``."""
        config = self.config
        frame_bytes = (config.vm_frame_bytes() // PAGE_SIZE) * PAGE_SIZE
        self.frames = PageFrameAllocator(self.dram_region.base, frame_bytes)
        self.vm = VirtualMemory(
            self.phys, self.frames, swap=swap, tlb=self.tlb, cpu=self.cpu,
        )
        self.swap = swap

    # ------------------------------------------------------------------
    # Observability (trace stream + metrics hub).
    # ------------------------------------------------------------------

    def _register_observability(self) -> None:
        """(Re-)register every component registry and device with the hub.

        Idempotent: registration is latest-wins per name, so this runs
        again after ``reboot_after_power_loss`` rebuilds components.
        """
        hub = self.hub
        hub.register(self.stats)
        fs_stats = getattr(self.fs, "stats", None)
        if fs_stats is not None:
            hub.register(fs_stats)
        if self.manager is not None:
            hub.register(self.manager.stats)
            hub.register(self.manager.buffer.stats)
            if self.manager.compressor is not None:
                hub.register(self.manager.compressor.stats)
        if self.store is not None:
            hub.register(self.store.stats)
        if self.cache is not None:
            hub.register(self.cache.stats)
        hub.register(self.vm.stats)
        hub.register(self.tlb.stats)
        if self.swap is not None:
            hub.register(self.swap.stats)
        hub.register_device(self.dram)
        if self.flash is not None:
            hub.register_device(self.flash)
        if self.disk is not None:
            hub.register_device(self.disk)
        hub.register_device(self.program_flash)

    # ------------------------------------------------------------------
    # Programs (experiment E6).
    # ------------------------------------------------------------------

    def register_programs(self, programs: Tuple[Tuple[str, int], ...]) -> None:
        """Declare program names and code sizes before replay."""
        for name, size in programs:
            self._program_sizes[name] = size

    def _ensure_installed(self, name: str):
        if name in self.programs.installed():
            return self.programs.get(name)
        size = self._program_sizes.get(name, DEFAULT_PROGRAM_BYTES)
        code = bytes((i * 37 + len(name)) & 0xFF for i in range(256)) * (
            (size + 255) // 256
        )
        return self.programs.install(name, code[:size])

    def launch_program(self, name: str) -> LaunchResult:
        """Launch a program per the organization's policy (XIP vs load)."""
        image = self._ensure_installed(name)
        space = self.vm.create_space(f"proc-{name}-{self.stats.counter('launches').value:.0f}")
        if self.config.organization is Organization.SOLID_STATE:
            result = launch_xip(self.vm, space, image)
        else:
            result = launch_load(self.vm, space, image)
        # Touch the entry point: one page of instruction fetch.
        self.vm.execute(space, result.code_vaddr, min(PAGE_SIZE, image.code_bytes))
        self.stats.counter("launches").add(1)
        self.stats.histogram("launch_latency").record(result.launch_latency_s)
        self.stats.histogram("launch_dram_pages").record(result.dram_pages_used)
        self._resident.append((space, result))
        while len(self._resident) > MAX_RESIDENT_PROCESSES:
            old_space, _ = self._resident.pop(0)
            self.vm.destroy_space(old_space)
        return result

    def _exec_handler(self, record: TraceRecord) -> None:
        if record.program:
            self.launch_program(record.program)

    # ------------------------------------------------------------------
    # Power events (experiment E11).
    # ------------------------------------------------------------------

    def _on_power_loss(self) -> None:
        lost = 0
        if self.manager is not None:
            lost = self.manager.power_loss()
        if self.cache is not None:
            lost = self.cache.crash() * 4096
        self.dram.power_loss()
        self.stats.counter("power_failures").add(1)
        self.stats.counter("bytes_lost_to_power_failure").add(lost)

    def _periodic_checkpoint(self) -> None:
        fs = self.fs
        if isinstance(fs, MemoryFileSystem) and self.battery.powered:
            fs.checkpoint()

    def inject_battery_failure(self) -> None:
        """Abrupt total power failure right now."""
        self.power.settle(self.clock.now)
        self.battery.fail_all(self.clock.now)

    def reboot_after_power_loss(self):
        """Fresh batteries go in; rebuild the system from stable storage.

        For the solid-state organization this runs the full recovery
        stack: scan the flash log's summary areas, rebuild the store
        index and allocator, then reconstruct the file system from the
        last metadata checkpoint (see
        :meth:`repro.fs.memfs.MemoryFileSystem.recover`).  Conventional
        organizations simply remount from the on-device layout.  Returns
        the :class:`~repro.fs.memfs.RecoveryReport` (or None for
        conventional organizations).  All processes and swap contents
        are, of course, gone.
        """
        config = self.config
        self.battery = BatteryBank(
            config.primary_battery_joules, config.backup_battery_joules
        )
        self.battery.on_power_loss(self._on_power_loss)
        self.power.battery = self.battery
        self.dram.power_restore()

        org = config.organization
        if org is Organization.NAIVE_FLASH:
            raise NotImplementedError(
                "the naive in-place store has no recovery metadata -- "
                "that is part of why it is the strawman"
            )
        # Processes and their frames did not survive; rebuild the VM.
        self._resident.clear()
        self.tlb.flush()
        # Rebuild inside the machine's own tracer scope, so the new
        # components trace exactly where the ones they replace did.
        with obs_runtime.tracing(self.tracer):
            if org is Organization.SOLID_STATE:
                swap, report = self._build_memory_fs(recover=True)
                self._build_vm(swap)
                self.mmap = MmapManager(self.vm, self.flash_region, self.store)
            else:
                # Conventional organizations: remount from the device.
                assert self.cache is not None
                report = None
                self._build_vm(self.swap)
                self.fs = ConventionalFileSystem(self.cache)
        self.stats.counter("reboots").add(1)
        # Rebuilt components replaced their registries.
        self._register_observability()
        if self.tracer is not None:
            self.tracer.emit("machine", "reboot", self.clock.now)
        return report

    def orderly_shutdown(self) -> None:
        """Flush everything while power remains, then settle energy."""
        if self.manager is not None:
            self.manager.shutdown_flush()
        if self.cache is not None:
            self.cache.flush()
        self.power.settle(self.clock.now)

    # ------------------------------------------------------------------
    # Running workloads.
    # ------------------------------------------------------------------

    def run_workload(
        self,
        workload: str,
        duration_s: float = 300.0,
        sync_at_end: bool = True,
        clients: int = 1,
    ) -> Tuple[ReplayReport, RunMetrics]:
        """Generate (from the config's seed), replay, and measure a named
        workload.

        ``clients`` > 1 runs that many concurrent client streams (each a
        seed-derived variant of the workload), merged by record time in
        the one replay loop; a single client takes the same path with
        one stream (its numbers are pinned by the stored digests in the
        equivalence tests).
        """
        if clients < 1:
            raise ValueError("clients must be >= 1")
        seed = self.config.seed
        profile = WORKLOADS[workload]()  # type: ignore[operator]
        if profile.programs:
            self.register_programs(profile.programs)
        if clients == 1:
            streams = [generate_workload(workload, seed=seed, duration_s=duration_s)]
        else:
            # Each client replays its own seed-derived trace variant so
            # the streams are decorrelated but exactly reproducible.
            streams = [
                generate_workload(
                    workload,
                    seed=substream(seed, f"client{i}").seed,
                    duration_s=duration_s,
                )
                for i in range(clients)
            ]
        report = self.run_streams(streams, sync_at_end=sync_at_end)
        return report, self.collect_metrics(report, workload)

    def run_streams(self, streams, sync_at_end: bool = True) -> ReplayReport:
        """Replay one or more client streams via the kernel request path."""
        replayer = TraceReplayer(self.fs, self.engine, self._exec_handler)
        report = replayer.replay(streams)
        if sync_at_end:
            self.fs.sync()
        self.power.settle(self.clock.now)
        return report

    # ------------------------------------------------------------------
    # Metrics.
    # ------------------------------------------------------------------

    def collect_metrics(self, report: ReplayReport, workload: str) -> RunMetrics:
        now = self.clock.now
        self.power.settle(now)
        m = RunMetrics(
            organization=self.config.organization.value,
            workload=workload,
            sim_seconds=now,
            records=report.records,
            mean_read_latency=report.op_latency.get("read", {}).get("mean", 0.0),
            p95_read_latency=report.op_latency.get("read", {}).get("p95", 0.0),
            mean_write_latency=report.op_latency.get("write", {}).get("mean", 0.0),
            p95_write_latency=report.op_latency.get("write", {}).get("p95", 0.0),
            app_bytes_written=report.bytes_written,
            storage_cost_dollars=self.config.storage_budget_dollars(),
        )
        if self.flash is not None:
            m.flash_bytes_programmed = self.flash.stats.bytes_written
            m.flash_erases = self.flash.stats.erases
            wear = self.flash.wear_summary()
            m.wear_cov = wear["wear_cov"]
            if now > 0:
                m.lifetime = lifetime_projection(self.flash, now)
        if self.manager is not None:
            m.write_traffic_reduction = self.manager.write_traffic_reduction()
        if self.store is not None:
            m.write_amplification = self.store.write_amplification()
        breakdown = self.power.breakdown(now)
        m.energy_joules = breakdown.total
        m.average_power_watts = self.power.average_power_watts(now)
        m.battery_fraction_remaining = (
            self.battery.remaining_joules()
            / (self.config.primary_battery_joules + self.config.backup_battery_joules)
        )
        launches = self.stats.counter("launches").value
        if launches:
            m.launches = int(launches)
            m.mean_launch_latency = self.stats.histogram("launch_latency").mean
            m.launch_dram_pages = int(self.stats.histogram("launch_dram_pages").mean)
        return m
