"""One tracer-wiring rule: a component traces into the tracer that was
active when it was built (:mod:`repro.obs.runtime`).

Covers the rule per traced class, a machine reboot (which rebuilds
inside the machine's own scope, whatever scope the caller is in), an
experiment that builds its VM outside any machine (E7), and a static
check that nothing in the package re-points a tracer after construction.
"""

from __future__ import annotations

import ast
import os

import pytest

import repro
from repro.analysis.experiments import e07_vm_pressure
from repro.core.config import Organization, SystemConfig
from repro.core.hierarchy import MobileComputer
from repro.devices.dram import DRAM
from repro.devices.flash import FlashMemory
from repro.faults.injector import FaultInjector, FaultPlan
from repro.mem.address import PhysicalAddressSpace
from repro.mem.paging import PAGE_SIZE, PageFrameAllocator
from repro.mem.vm import VirtualMemory
from repro.obs import Tracer, runtime
from repro.sim.clock import SimClock
from repro.sim.engine import Engine
from repro.storage.flashstore import FlashStore
from repro.storage.manager import StorageManager
from repro.storage.writebuffer import WriteBuffer

MB = 1024 * 1024


def _vm():
    phys = PhysicalAddressSpace(SimClock())
    region = phys.add_region("dram", DRAM(MB))
    return VirtualMemory(phys, PageFrameAllocator(region.base, 16 * PAGE_SIZE))


def _manager():
    clock = SimClock()
    return StorageManager(
        clock, FlashStore(FlashMemory(MB), clock), WriteBuffer(4096, clock, DRAM(MB))
    )


#: The seven traced component classes, each with a minimal builder.
BUILDERS = {
    "Engine": Engine,
    "StorageDevice": lambda: FlashMemory(MB),
    "FlashStore": lambda: FlashStore(FlashMemory(MB), SimClock()),
    "WriteBuffer": lambda: WriteBuffer(4096, SimClock(), DRAM(MB)),
    "StorageManager": _manager,
    "VirtualMemory": _vm,
    "FaultInjector": lambda: FaultInjector(FaultPlan()),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_component_takes_the_tracer_active_when_built(name):
    tracer = Tracer()
    with runtime.tracing(tracer):
        traced = BUILDERS[name]()
    with runtime.tracing(None):
        untraced = BUILDERS[name]()
    assert traced.tracer is tracer
    assert untraced.tracer is None


@pytest.mark.parametrize("own", [None, Tracer()], ids=["untraced", "traced"])
def test_reboot_rebuilds_inside_the_machines_own_scope(own):
    """Rebooting inside another tracer's scope neither leaks the
    machine's later events into that tracer nor detaches the machine
    from its own."""
    with runtime.tracing(own):
        machine = MobileComputer(SystemConfig(organization=Organization.SOLID_STATE))
    machine.inject_battery_failure()
    foreign = Tracer()
    with runtime.tracing(foreign):
        machine.reboot_after_power_loss()
    machine.run_workload("office", duration_s=10.0)
    assert foreign.records == []
    assert machine.tracer is own
    for component in (machine.store, machine.manager.buffer, machine.vm, machine.engine):
        assert component.tracer is own


def test_e7_trace_carries_its_paging():
    """E7 builds its VirtualMemory directly; every swap-in its table
    counts must appear in the trace as a ``vm page_fault``."""
    with runtime.tracing(Tracer()) as tracer:
        result = e07_vm_pressure.run(quick=True)
    assert tracer.dropped == 0
    swap_ins = sum(row[result.headers.index("swap_ins")] for row in result.rows)
    traced = [
        (component, op, outcome)
        for _t, component, op, _bytes, _latency, outcome, _detail in tracer.records
        if (component, op, outcome) == ("vm", "page_fault", "swap_in")
    ]
    assert swap_ins > 0
    assert len(traced) == swap_ins


def _package_sources():
    root = os.path.dirname(repro.__file__)
    for folder, _dirs, files in os.walk(root):
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                with open(path, encoding="utf-8") as fh:
                    yield os.path.relpath(path, root), fh.read()


class _TracerAssignments(ast.NodeVisitor):
    """Collects ``<expr>.tracer = ...`` assignments that are not a
    constructor's ``self.tracer = ...get_tracer()``."""

    def __init__(self) -> None:
        self.functions = []
        self.constructors = 0
        self.offenders = []

    def visit_FunctionDef(self, node):
        self.functions.append(node.name)
        self.generic_visit(node)
        self.functions.pop()

    def _check(self, targets, value, lineno):
        flat = []
        for target in targets:
            flat.extend(target.elts if isinstance(target, ast.Tuple) else [target])
        for target in flat:
            if not (isinstance(target, ast.Attribute) and target.attr == "tracer"):
                continue
            ok = (
                isinstance(target.value, ast.Name) and target.value.id == "self"
                and self.functions[-1:] == ["__init__"]
                and isinstance(value, ast.Call)
                and getattr(value.func, "attr", getattr(value.func, "id", None))
                == "get_tracer"
            )
            if ok:
                self.constructors += 1
            else:
                self.offenders.append(lineno)

    def visit_Assign(self, node):
        self._check(node.targets, node.value, node.lineno)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        self._check([node.target], node.value, node.lineno)
        self.generic_visit(node)


def test_tracers_are_only_taken_at_construction():
    """No ``attach_tracer`` remains, and the only assignments to a
    ``.tracer`` attribute are constructors reading the active tracer."""
    offenders = []
    constructors = 0
    for rel, source in _package_sources():
        assert "attach_tracer" not in source, rel
        visitor = _TracerAssignments()
        visitor.visit(ast.parse(source))
        offenders += [f"{rel}:{line}" for line in visitor.offenders]
        constructors += visitor.constructors
    assert offenders == []
    assert constructors == 8  # the seven component classes + MobileComputer
