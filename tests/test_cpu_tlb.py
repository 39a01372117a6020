"""Unit tests for the CPU model and the TLB."""

import pytest

from repro.core import MobileComputer, Organization, SystemConfig
from repro.devices import CPU, DRAM, BatteryBank
from repro.mem import PAGE_SIZE, PageFrameAllocator, PhysicalAddressSpace, TLB, VirtualMemory
from repro.power import PowerModel
from repro.sim import SimClock

MB = 1024 * 1024


def _tlb(entries):
    tlb = TLB()
    tlb.entries = entries
    return tlb


def _hit_ratio(tlb):
    hits = tlb.stats.counter("hits").value
    return hits / (hits + tlb.stats.counter("misses").value)


class TestCPU:
    def test_busy_accumulates_energy(self):
        cpu = CPU()
        cpu.idle_power_w = 0.0
        cpu.busy(0.5)
        assert cpu.stats.energy_joules == pytest.approx(1.0)
        assert cpu.stats.busy_time == 0.5

    def test_idle_accrual(self):
        cpu = CPU()
        cpu.accrue_idle(10.0)
        assert cpu.idle_energy_joules == pytest.approx(10.0 * CPU.idle_power_w)
        cpu.accrue_idle(10.0)  # idempotent
        assert cpu.idle_energy_joules == pytest.approx(10.0 * CPU.idle_power_w)

    def test_negative_busy_rejected(self):
        with pytest.raises(ValueError):
            CPU().busy(-1.0)

    def test_invalid_spec(self):
        # Idle draw is non-negative and below active draw.
        assert CPU.active_power_w >= CPU.idle_power_w >= 0

    def test_meterable_by_power_model(self):
        cpu = CPU()
        model = PowerModel([cpu], BatteryBank(1_000_000.0, 0.0))
        cpu.busy(1.0)
        drawn = model.settle(10.0)
        assert drawn > 0
        assert cpu.stats.energy_joules > 0
        assert cpu.idle_energy_joules > 0
        assert model.snapshot(10.0)["energy_joules"] == pytest.approx(drawn)


class TestTLB:
    def test_miss_then_hit(self):
        tlb = _tlb(4)
        phys, walk = tlb.lookup(1, 100)
        assert phys is None and walk > 0
        tlb.insert(1, 100, 0x4000)
        phys, walk = tlb.lookup(1, 100)
        assert phys == 0x4000 and walk == 0.0

    def test_asids_do_not_collide(self):
        tlb = _tlb(4)
        tlb.insert(1, 100, 0x1000)
        phys, _ = tlb.lookup(2, 100)
        assert phys is None

    def test_lru_eviction(self):
        tlb = _tlb(2)
        tlb.insert(1, 1, 0x1000)
        tlb.insert(1, 2, 0x2000)
        tlb.lookup(1, 1)  # refresh 1
        tlb.insert(1, 3, 0x3000)  # evicts vpn 2
        assert tlb.lookup(1, 2)[0] is None
        assert tlb.lookup(1, 1)[0] == 0x1000

    def test_invalidate_and_flush(self):
        tlb = _tlb(8)
        tlb.insert(1, 1, 0x1000)
        tlb.insert(2, 1, 0x2000)
        tlb.invalidate(1, 1)
        assert tlb.lookup(1, 1)[0] is None
        assert tlb.lookup(2, 1)[0] == 0x2000
        tlb.flush_asid(2)
        assert len(tlb) == 0

    def test_validation(self):
        # At least one entry, and a walk never gives time back.
        assert TLB.entries >= 1
        assert TLB.walk_s >= 0

    def test_hit_ratio(self):
        tlb = _tlb(4)
        tlb.lookup(1, 1)
        tlb.insert(1, 1, 0)
        tlb.lookup(1, 1)
        tlb.lookup(1, 1)
        assert _hit_ratio(tlb) == pytest.approx(2 / 3)


class TestVMWithTLB:
    def make_vm(self, tlb_entries=8):
        clock = SimClock()
        phys = PhysicalAddressSpace(clock)
        dram = DRAM(MB)
        region = phys.add_region("dram", dram)
        frames = PageFrameAllocator(region.base, region.size)
        tlb = _tlb(tlb_entries)
        cpu = CPU()
        vm = VirtualMemory(phys, frames, tlb=tlb, cpu=cpu)
        return vm, tlb, cpu

    def test_repeated_access_hits_tlb(self):
        vm, tlb, _cpu = self.make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 2)
        for _ in range(10):
            vm.write(space, vaddr, b"x")
        assert _hit_ratio(tlb) > 0.8

    def test_walks_charge_cpu(self):
        vm, _tlb, cpu = self.make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 4)
        for i in range(4):
            vm.write(space, vaddr + i * PAGE_SIZE, b"x")
        assert cpu.stats.busy_time > 0  # faults + walks

    def test_destroy_space_invalidates_translation(self):
        vm, tlb, _cpu = self.make_vm()
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 1)
        vm.write(space, vaddr, b"x")
        vm.destroy_space(space)
        assert tlb.lookup(space.asid, vaddr // PAGE_SIZE)[0] is None

    def test_working_set_larger_than_tlb_thrashes(self):
        vm, tlb, _cpu = self.make_vm(tlb_entries=4)
        space = vm.create_space("p")
        vaddr = vm.map_anonymous(space, 16)
        for _round in range(3):
            for i in range(16):
                vm.read(space, vaddr + i * PAGE_SIZE, 8)
        assert _hit_ratio(tlb) < 0.2  # sequential sweep over 4-entry TLB


class TestMachineEnergyIncludesCPU:
    def test_cpu_in_energy_breakdown(self):
        machine = MobileComputer(
            SystemConfig(
                organization=Organization.SOLID_STATE,
                dram_bytes=4 * MB,
                flash_bytes=8 * MB,
                compress_flash=True,
            )
        )
        _report, metrics = machine.run_workload("pim", duration_s=30.0)
        # The hub lists every device the power model meters, the CPU
        # among them, so their energies sum to the run's total.
        devices = machine.hub.snapshot(machine.clock.now)["devices"]
        assert sorted(devices) == sorted(d.name for d in machine.power.devices)
        cpu = devices["cpu"]
        assert cpu["total_energy_joules"] == machine.cpu.total_energy_joules > 0
        assert cpu["busy_time_s"] > 0  # compression charged compute
        assert sum(
            dev["total_energy_joules"] for dev in devices.values()
        ) == pytest.approx(metrics.energy_joules, rel=1e-9)
