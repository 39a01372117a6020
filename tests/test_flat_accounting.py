"""DRAM's checks, the clock, and the one device access form.

DRAM's entry points check power before range, and a failed check
charges nothing and leaves the clock alone.  ``SimClock.now`` is a plain
attribute that only the clock's own checked methods write.  Every DRAM,
flash and disk access takes the caller's clock and advances it itself
(the property tests check each device's numbers against its model in
``tests/_reference.py``), so no caller may hand a device a bare ``now``
or advance a clock by what an access returned: one AST guard,
``_clock_misuse``, scans ``src/`` for both.
"""

from __future__ import annotations

import ast
import functools
import os

import pytest

from repro.devices import DRAM
from repro.devices.base import DeviceStats
from repro.devices.errors import OutOfRangeError, PowerLossError
from repro.sim import SimClock

KB = 1024

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _accesses(dram: DRAM, clock: SimClock):
    """Each public DRAM entry point as a one-argument (offset) call."""
    return {
        "charge_read": lambda off: dram.charge_read(16, clock, off),
        "charge_write": lambda off: dram.charge_write(16, clock, off),
        "read": lambda off: dram.read(off, 16, clock),
        "read_view": lambda off: dram.read_view(off, 16, clock),
        "write": lambda off: dram.write(off, bytes(16), clock),
    }


ENTRIES = ["charge_read", "charge_write", "read", "read_view", "write"]


class TestDRAMChecks:
    @pytest.mark.parametrize("entry", ENTRIES)
    def test_unpowered_raises_power_loss(self, entry):
        dram, clock = DRAM(64 * KB), SimClock(1.0)
        dram.power_loss()
        with pytest.raises(PowerLossError):
            _accesses(dram, clock)[entry](0)
        assert dram.stats == DeviceStats()
        assert clock.now == 1.0

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("offset", [-1, 64 * KB - 15, 64 * KB])
    def test_out_of_range_raises(self, entry, offset):
        dram, clock = DRAM(64 * KB), SimClock(1.0)
        with pytest.raises(OutOfRangeError):
            _accesses(dram, clock)[entry](offset)
        assert dram.stats == DeviceStats()
        assert clock.now == 1.0

    def test_power_is_checked_before_range(self):
        dram = DRAM(64 * KB)
        dram.power_loss()
        with pytest.raises(PowerLossError):
            dram.charge_read(16, SimClock(), 64 * KB)
        with pytest.raises(PowerLossError):
            dram.charge_write(16, SimClock(), 64 * KB)


class TestClock:
    def test_negative_advance_raises(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.advance(-1e-9)
        assert clock.now == 0.0

    def test_now_is_read_as_a_plain_float(self):
        clock = SimClock(1.5)
        assert clock.advance(0.25) == clock.now == 1.75
        assert clock.advance_to(1.0) == 1.75

    def test_no_module_but_the_clock_assigns_now(self):
        writers = []
        for rel, tree in _source_trees():
            if rel == "sim/clock.py":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Attribute) and sub.attr == "now":
                            writers.append(f"{rel}:{node.lineno}")
        assert writers == []

    def test_clock_assigns_now_only_in_its_checked_methods(self):
        with open(os.path.join(SRC, "sim", "clock.py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        writers = set()
        for func in ast.walk(tree):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    if any(isinstance(t, ast.Attribute) and t.attr == "now" for t in targets):
                        writers.add(func.name)
        assert writers == {"__init__", "advance", "advance_to"}


#: Entry points only a device has, whatever the receiver is called.
_DEVICE_ONLY = ("program", "erase_sector", "read_view", "charge_read", "charge_write")
#: Entry points a device shares with caches and file systems: a device
#: access when the receiver names a device.
_DEVICE_SHARED = ("read", "write", "charge_read", "charge_write")
_DEVICE_NAMES = ("dram", "flash", "disk", "device")


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_access(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    attr = node.func.attr
    if attr in _DEVICE_ONLY:
        return True
    receiver = _dotted(node.func.value).lower()
    return attr in _DEVICE_SHARED and any(name in receiver for name in _DEVICE_NAMES)


def _scope_nodes(scope: ast.AST):
    """The nodes of one module or function body, nested scopes excluded."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _clock_misuse(tree: ast.AST):
    """Lines that pass a device access a bare ``<...>.now``, or that
    advance a clock by what a device access returned (directly, or
    through a name bound from it in the same function)."""
    lines = []
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        bound = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign) and any(_is_access(sub) for sub in ast.walk(node.value)):
                for target in node.targets:
                    bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        for node in _scope_nodes(scope):
            if _is_access(node) and any(
                isinstance(arg, ast.Attribute) and arg.attr == "now"
                for arg in list(node.args) + [k.value for k in node.keywords]
            ):
                lines.append(node.lineno)
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "advance"
            ):
                for sub in (s for arg in node.args for s in ast.walk(arg)):
                    if _is_access(sub) or (isinstance(sub, ast.Name) and sub.id in bound):
                        lines.append(node.lineno)
                        break
    return sorted(set(lines))


@functools.lru_cache(maxsize=None)
def _source_trees():
    """Every module under ``src/repro``, parsed once: ``(path, tree)`` pairs."""
    trees = []
    for root, _dirs, files in os.walk(SRC):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, SRC).replace(os.sep, "/")
            with open(path, encoding="utf-8") as fh:
                trees.append((rel, ast.parse(fh.read(), filename=path)))
    return tuple(trees)


def _offenders():
    return [f"{rel}:{line}" for rel, tree in _source_trees() for line in _clock_misuse(tree)]


class TestDeviceAccessForm:
    """Every DRAM, flash and disk access advances the clock itself: the one
    way to access a device is ``device.read(offset, nbytes, clock)``."""

    def test_guard_flags_the_two_step_forms(self):
        tree = ast.parse(
            "clock.advance(flash.program(0, data, clock.now).latency)\n"
            "def f(self):\n"
            "    result = self.flash.erase_sector(3, self.clock.now)\n"
            "    self.clock.advance(result.latency)\n"
            "def g(flash, clock):\n"
            "    latency, wait = flash.program(0, data, clock)\n"
            "    clock.advance(latency)\n"
            "def h(self):\n"
            "    data, latency, wait = self.flash.read(0, 4, self.clock)\n"
            "    self.flash.program(0, data, self.clock)\n"
            "    data, result = self.disk.read(0, 4, self.clock.now)\n"
            "    self.clock.advance(result.latency)\n"
            "def k(self, region):\n"
            "    result = region.device.write(0, data, self.clock.now)\n"
            "    self.clock.advance(result.latency)\n"
            "    self.clock.advance(self.dram.read_view(0, 4, now=self.clock.now)[1].latency)\n"
            "clock.advance(dram.charge_read(64, clock.now).latency)\n"
            "self.clock.advance(self.dram.charge_write(n, self.clock.now, 8).latency)\n"
            "dram.charge_read(64, clock)\n"
            "disk.charge_write(64, clock, offset=8)\n"
            "data, latency, wait = self.disk.read(0, 4, self.clock)\n"
            "self.stats.histogram('lat').record(latency)\n"
            "clock.advance(self.cache.read(lba).latency)\n"
            "fs.write(path, 0, data, now=self.clock.now)\n"
            "data, result = self.dram.read(0, 4, self.clock.now)\n"
            "flash.program(0, data, clock.now)\n"
        )
        assert _clock_misuse(tree) == [1, 3, 4, 7, 11, 12, 14, 15, 16, 17, 18, 25, 26]

    def test_no_module_times_a_device_access_itself(self):
        assert _offenders() == []
