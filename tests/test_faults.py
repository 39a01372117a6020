"""Unit tests for the fault-injection subsystem and resilience machinery.

Covers the ECC codec, the deterministic injector, transient-failure
retry, bad-block retirement, scrub-on-read, the storage manager's
graceful degradation to read-only mode, in-flight data accounting at
power loss, and the torture harness: its CLI smoke run and how it
reports a block that recovery cannot correct.
"""

import pytest

from repro.cli import main
from repro.devices import FlashMemory
from repro.devices.errors import PowerCutError, ProgramFailedError
from repro.faults.ecc import ECC_BYTES, ecc_check, ecc_encode
from repro.faults.injector import FaultInjector, FaultPlan
from repro.faults import torture
from repro.faults.torture import TortureConfig, run_torture
from repro.obs import Tracer, runtime
from repro.sim import SimClock
from repro.sim.engine import Engine
from repro.storage import FlashStore, StorageReadOnlyError
from repro.storage.allocator import OutOfFlashSpace, SectorState
from repro.storage.flashstore import (
    PROGRAM_RETRY_LIMIT, CorruptBlockError, pack_summary, unpack_summary,
)

from tests._storage import build_manager

KB = 1024


def make_store(flash_kb=256, banks=2, **kwargs):
    clock = SimClock()
    flash = FlashMemory(flash_kb * KB, banks=banks)
    return flash, clock, FlashStore(flash, clock, **kwargs)


class TestECC:
    def test_clean_roundtrip(self):
        data = bytes(range(256)) * 4
        code = ecc_encode(data)
        assert len(code) == ECC_BYTES
        status, payload = ecc_check(data, code)
        assert status == "ok"
        assert payload == data

    def test_every_single_bit_flip_corrected(self):
        data = b"flash is not crash-proof".ljust(64, b"\x5a")
        code = ecc_encode(data)
        for bit in range(len(data) * 8):
            corrupt = bytearray(data)
            corrupt[bit >> 3] ^= 1 << (bit & 7)
            status, payload = ecc_check(bytes(corrupt), code)
            assert status == "corrected", f"bit {bit} not corrected"
            assert payload == data

    def test_double_flip_detected_not_miscorrected(self):
        data = bytes(range(200))
        code = ecc_encode(data)
        corrupt = bytearray(data)
        corrupt[3] ^= 0x01
        corrupt[100] ^= 0x80
        status, _ = ecc_check(bytes(corrupt), code)
        assert status == "failed"

    def test_empty_payload(self):
        code = ecc_encode(b"")
        assert ecc_check(b"", code) == ("ok", b"")


class TestInjectorDeterminism:
    def _run(self, plan):
        flash = FlashMemory(128 * KB, banks=1)
        injector = FaultInjector(plan).attach(flash)
        clock = SimClock()
        events = []
        for i in range(200):
            try:
                if i % 3 == 0:
                    flash.read(0, 512, clock)
                else:
                    sector = (i % 4) + 2
                    flash.erase_sector(sector, clock)
            except Exception as exc:  # noqa: BLE001 -- recording the fault stream
                events.append((i, type(exc).__name__))
        return events, injector.op_count, sorted(injector.bad_sectors), dict(injector.counters)

    def test_same_seed_same_fault_stream(self):
        plan = FaultPlan(seed=42, bit_flip_per_read=0.2, erase_fail_rate=0.1,
                         permanent_fraction=0.3)
        assert self._run(plan) == self._run(plan)

    def test_different_seed_differs(self):
        base = FaultPlan(seed=1, bit_flip_per_read=0.2, erase_fail_rate=0.1)
        other = FaultPlan(seed=2, bit_flip_per_read=0.2, erase_fail_rate=0.1)
        assert self._run(base) != self._run(other)

    def test_power_cut_fires_at_exact_op(self):
        flash = FlashMemory(128 * KB, banks=1)
        injector = FaultInjector(FaultPlan(power_cut_at_op=3, torn_ops=False)).attach(flash)
        clock = SimClock()
        flash.read(0, 64, clock)
        flash.read(0, 64, clock)
        with pytest.raises(PowerCutError) as exc:
            flash.read(0, 64, clock)
        assert exc.value.op_index == 3
        assert injector.cut_fired
        # Disarmed injector is transparent.
        injector.disarm()
        flash.read(0, 64, clock)

    def test_plan_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(bit_flip_per_read=1.5).validate()
        with pytest.raises(ValueError):
            FaultPlan(power_cut_at_op=0).validate()


class TestRetryAndRetirement:
    def test_transient_failures_are_retried_through(self):
        flash, clock, store = make_store()
        FaultInjector(FaultPlan(seed=3, program_fail_rate=0.5)).attach(flash)
        blobs = {("k", i): bytes([i]) * 2000 for i in range(12)}
        for key, blob in blobs.items():
            store.write_block(key, blob)
        assert store.stats.counter("program_retries").value > 0
        for key, blob in blobs.items():
            assert store.read_block(key) == blob

    def test_retry_limit_exhaustion_raises(self):
        flash, clock, store = make_store()
        FaultInjector(FaultPlan(seed=0, program_fail_rate=1.0)).attach(flash)
        # Every attempt fails transiently; after the bounded retries the
        # store treats the sector as failing and retires it, and with
        # every sector failing it must eventually give up loudly.
        with pytest.raises((ProgramFailedError, OutOfFlashSpace)):
            for i in range(50):
                store.write_block(("k", i), b"x" * 1000)
        # Each failed program was retried exactly PROGRAM_RETRY_LIMIT times.
        retries = store.stats.counter("program_retries").value
        assert retries > 0 and retries % PROGRAM_RETRY_LIMIT == 0

    def test_permanent_failure_retires_sector_and_preserves_data(self):
        flash, clock, store = make_store()
        injector = FaultInjector(FaultPlan(seed=0)).attach(flash)
        store.write_block(("k", 0), b"a" * 4096)
        victim = store.location_of(("k", 0)).sector
        injector.bad_sectors.add(victim)
        # The next append lands in the same open sector, hits the bad
        # medium, and must evacuate + retire it without losing ("k", 0).
        store.write_block(("k", 1), b"b" * 4096)
        assert victim in store.allocator.retired_sectors()
        assert store.allocator.sectors[victim].state is SectorState.BAD
        assert store.read_block(("k", 0)) == b"a" * 4096
        assert store.read_block(("k", 1)) == b"b" * 4096
        store.allocator.check_invariants()

    def test_retired_sector_excluded_from_occupancy(self):
        flash, clock, store = make_store()
        injector = FaultInjector(FaultPlan(seed=0)).attach(flash)
        store.write_block("a", b"a" * 1000)
        victim = store.location_of("a").sector
        injector.bad_sectors.add(victim)
        store.write_block("b", b"b" * 1000)
        occ = store.allocator.occupancy()
        assert occ["retired_sectors"] == 1
        assert store.allocator.retired_sectors() == [victim]
        assert occ["usable_capacity_bytes"] == (
            store.allocator.sector_bytes * (flash.num_sectors - 1)
        )


class TestScrubOnRead:
    def test_flip_corrected_and_scrubbed(self):
        flash, clock, store = make_store(ecc=True)
        payload = bytes(range(256)) * 8
        store.write_block("k", payload)
        loc = store.location_of("k")
        flash.fault_flip_bit(loc.absolute(store.allocator.sector_bytes) + 37, 2)
        assert store.read_block("k") == payload
        assert store.stats.counter("ecc_corrected").value == 1
        assert store.stats.counter("scrub_rewrites").value == 1
        # The corrected copy lives somewhere fresh now.
        assert store.location_of("k") != loc
        assert store.read_block("k") == payload
        assert store.stats.counter("ecc_corrected").value == 1

    def test_two_flips_in_one_codeword_raise_uncorrectable(self):
        tracer = Tracer()
        with runtime.tracing(tracer):
            flash, clock, store = make_store(ecc=True)
        store.write_block("k", bytes(range(256)) * 8)
        base = store.location_of("k").absolute(store.allocator.sector_bytes)
        flash.fault_flip_bit(base + 37, 2)
        flash.fault_flip_bit(base + 1000, 5)
        with pytest.raises(CorruptBlockError):
            store.read_block("k")
        assert store.stats.counter("ecc_uncorrectable").value == 1
        assert store.stats.counter("scrub_rewrites").value == 0
        ecc = [record for record in tracer.records if record[2] == "ecc"]
        assert [(record[1], record[5]) for record in ecc] == [("flashstore", "uncorrectable")]

    def test_ecc_survives_recovery(self):
        flash, clock, store = make_store(ecc=True)
        payload = b"\xa5" * 3000
        store.write_block("k", payload)
        recovered = FlashStore.recover(flash, SimClock(), ecc=True)
        loc = recovered.location_of("k")
        flash.fault_flip_bit(loc.absolute(recovered.allocator.sector_bytes) + 5, 7)
        assert recovered.read_block("k") == payload
        assert recovered.stats.counter("ecc_corrected").value == 1


class TestSummaryIntegrity:
    def test_corrupt_summary_rejected(self):
        entry = pack_summary(1, 7, 256, 1000, ("blk", 3), ecc_encode(b"x"))
        assert unpack_summary(entry) is not None
        for i in (0, 10, 30, 59, 62):
            corrupt = bytearray(entry)
            corrupt[i] ^= 0x40
            assert unpack_summary(bytes(corrupt)) is None, f"byte {i} accepted"

    def test_torn_summary_rejected(self):
        entry = pack_summary(1, 7, 256, 1000, "key", None)
        for torn in range(1, len(entry)):
            partial = entry[:torn] + b"\xff" * (len(entry) - torn)
            assert unpack_summary(partial) is None


class TestManagerDegradation:
    def _small_manager(self, flash_kb=64):
        clock = SimClock()
        flash = FlashMemory(flash_kb * KB, banks=1)
        manager = build_manager(clock, flash, buffer_bytes=0, free_target_sectors=1)
        return clock, flash, manager

    def test_out_of_space_degrades_to_read_only(self):
        clock, flash, manager = self._small_manager()
        written = {}
        with pytest.raises(StorageReadOnlyError):
            for i in range(100):
                key = ("blk", i)
                manager.write_block(key, bytes([i % 256]) * 8000)
                written[key] = bytes([i % 256]) * 8000
        assert manager.read_only
        assert "erased space" in manager.read_only_reason
        # Everything acknowledged is still readable (flash or buffer).
        for key, blob in written.items():
            assert manager.read_block(key) == blob
        assert manager.sync() == 0

    def test_out_of_space_error_carries_context(self):
        clock = SimClock()
        flash = FlashMemory(64 * KB, banks=1)
        store = FlashStore(flash, clock, free_target_sectors=1)
        with pytest.raises(OutOfFlashSpace) as exc:
            for i in range(100):
                store.write_block(("blk", i), b"\xcd" * 8000)
        err = exc.value
        assert err.requested_bytes is not None and err.requested_bytes > 0
        assert err.live_bytes is not None and err.live_bytes > 0
        assert err.erased_sectors is not None
        assert "requested" in str(err)


class TestPowerLossInFlight:
    def test_in_flight_flush_items_counted_as_lost(self):
        clock = SimClock()
        flash = FlashMemory(256 * KB, banks=1)
        manager = build_manager(clock, flash, buffer_bytes=0)
        manager.write_block("warm", b"w" * 1000)
        # Cut power on the very next device operation: the flush item is
        # popped from the buffer but never reaches flash.
        FaultInjector(FaultPlan(power_cut_at_op=1, torn_ops=False)).attach(flash)
        with pytest.raises(PowerCutError):
            manager.write_block("doomed", b"d" * 2000)
        lost = manager.power_loss()
        assert lost == 2000
        assert manager.stats.counter("bytes_lost_in_flight").value == 2000
        assert not manager._in_flight
        # The flash copy of the earlier write survived.
        assert manager.store.contains("warm")

    def test_power_loss_without_in_flight_counts_buffer_only(self):
        clock = SimClock()
        flash = FlashMemory(256 * KB, banks=1)
        manager = build_manager(clock, flash, buffer_bytes=1 << 20)
        manager.write_block("a", b"a" * 300)
        assert manager.power_loss() == 300


class TestEngineTimerResilience:
    def test_periodic_timer_survives_action_exception(self):
        engine = Engine()
        fired = []

        def tick():
            fired.append(engine.clock.now)
            if len(fired) == 1:
                raise RuntimeError("injected fault in timer action")

        engine.schedule_every(1.0, tick, name="test-timer")
        with pytest.raises(RuntimeError):
            engine.run_until(1.5)
        # The series must have rescheduled itself despite the exception.
        engine.run_until(3.5)
        assert len(fired) == 3


class TestTortureSmoke:
    def test_cli_quick_run_passes(self, capsys):
        assert main(["torture", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "torture passed" in out
        assert "power cuts" in out

    def test_fsck_mode_small_sweep(self):
        report = run_torture(
            TortureConfig(mode="fsck", ops=40, cut_every=31, max_cuts=6)
        )
        assert not report.violations, report.violations
        assert report.cuts_fired > 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_torture(TortureConfig(mode="tape"))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            run_torture(TortureConfig(cut_every=0))
        with pytest.raises(ValueError):
            run_torture(TortureConfig(max_cuts=-1))

    def test_cli_rejects_bad_stride(self, capsys):
        assert main(["torture", "--every", "0"]) == 2
        assert "cut_every" in capsys.readouterr().err

    def test_uncorrectable_block_after_recovery_is_a_violation(self, monkeypatch):
        stores = []

        class TwoFlipsAfterRecovery(FlashStore):
            """Keeps every store built; the first recovery then flips two
            bits in one codeword of the lowest key the live store holds."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                stores.append(self)

            @classmethod
            def recover(cls, flash, clock, **kwargs):
                recovered = super().recover(flash, clock, **kwargs)
                if len(stores) == 2:
                    key = min(stores[0].keys())
                    loc = recovered.location_of(key)
                    base = loc.absolute(recovered.allocator.sector_bytes)
                    flash.fault_flip_bit(base + 37, 2)
                    flash.fault_flip_bit(base + loc.length - 1, 5)
                return recovered

        monkeypatch.setattr(torture, "FlashStore", TwoFlipsAfterRecovery)
        violations, cut, *_ = torture._flashstore_run(TortureConfig(ops=60, keys=6), None)
        assert not cut
        key = min(stores[0].keys())[1]
        # Every block the live store holds was acknowledged (no cut, no
        # delete left it behind), so the read raises inside the check.
        assert f"[no-cut] acknowledged block {key} uncorrectable after recovery" in violations
        assert f"[no-cut] rescan hit uncorrectable block {key}" in violations
