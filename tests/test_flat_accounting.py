"""The flattened accounting path behaves exactly like the layered one.

DRAM's charges and ``DRAM._access`` inline their power check, range
check and stats update, a charge advances the caller's clock itself, and
``SimClock.now`` is a plain attribute rather than a property.  These
tests pin that nothing observable changed: the same exceptions, the same
``DeviceStats`` bits, the same clock checks, no writer of ``now``
outside the clock itself, and no caller that still advances a clock by
a DRAM charge's result.  Every flash access advances the caller's clock
itself as well (``tests/test_prop_flash_banks.py`` pins its numbers), so
no caller may hand one a bare ``now`` or advance a clock by what one
returned.
"""

from __future__ import annotations

import ast
import os

import pytest

from repro.devices import DRAM
from repro.devices.base import AccessResult, DeviceStats
from repro.devices.errors import OutOfRangeError, PowerLossError
from repro.sim import SimClock

KB = 1024

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "repro")


def _accesses(dram: DRAM, clock: SimClock):
    """Each public DRAM entry point as a one-argument (offset) call."""
    return {
        "charge_read": lambda off: dram.charge_read(16, clock, off),
        "charge_write": lambda off: dram.charge_write(16, clock, off),
        "read": lambda off: dram.read(off, 16, 0.0),
        "read_view": lambda off: dram.read_view(off, 16, 0.0),
        "write": lambda off: dram.write(off, bytes(16), 0.0),
    }


ENTRIES = ["charge_read", "charge_write", "read", "read_view", "write"]


def _charge(dram: DRAM, write: bool, nbytes: int, offset: int) -> AccessResult:
    """One charge as an AccessResult: the latency a fresh clock advanced
    by, and the energy the spec's power gives for it."""
    clock = SimClock()
    if write:
        dram.charge_write(nbytes, clock, offset)
        power = dram.spec.active_write_power_w
    else:
        dram.charge_read(nbytes, clock, offset)
        power = dram.spec.active_read_power_w
    return AccessResult(latency=clock.now, energy=power * clock.now)


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


class TestDRAMStats:
    def test_stats_bit_equal_to_record_calls(self):
        dram = DRAM(1024 * KB)
        reference = DeviceStats()
        # Many distinct sizes, each charged and moved several times.
        sizes = [(i * 37) % 4096 + 1 for i in range(3 * 64)]
        for i, nbytes in enumerate(sizes + sizes[::-1]):
            offset = (i * 4099) % (1024 * KB - nbytes)
            kind = i % 5
            if kind == 0:
                reference.record_read(nbytes, _charge(dram, False, nbytes, offset))
            elif kind == 1:
                reference.record_write(nbytes, _charge(dram, True, nbytes, offset))
            elif kind == 2:
                reference.record_read(nbytes, dram.read(offset, nbytes, 0.0)[1])
            elif kind == 3:
                reference.record_read(nbytes, dram.read_view(offset, nbytes, 0.0)[1])
            else:
                reference.record_write(nbytes, dram.write(offset, bytes(nbytes), 0.0))
        got, want = dram.stats.snapshot(), reference.snapshot()
        assert got.keys() == want.keys()
        for key in want:
            assert type(got[key]) is type(want[key]), key
            if isinstance(want[key], float):
                assert got[key].hex() == want[key].hex(), key
            else:
                assert got[key] == want[key], key


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
        clock.reset()
        assert clock.now == 0.0
        with pytest.raises(ValueError):
            clock.reset(-1.0)

    def test_no_module_but_the_clock_assigns_now(self):
        writers = []
        for root, _dirs, files in os.walk(SRC):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                if rel == "sim/clock.py":
                    continue
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
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
        assert writers == {"__init__", "advance", "advance_to", "reset"}


def _advances_by_a_charge(tree: ast.AST):
    """Lines of ``<clock>.advance(<...>.charge_read|charge_write(...).latency)``."""
    lines = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "advance"
        ):
            continue
        for arg in node.args:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "latency"
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Attribute)
                    and sub.value.func.attr in ("charge_read", "charge_write")
                ):
                    lines.append(node.lineno)
    return lines


class TestDRAMChargeForm:
    """A DRAM charge advances the clock itself: the one way to charge DRAM
    is ``dram.charge_read(nbytes, clock)``."""

    def test_guard_flags_the_two_step_form(self):
        tree = ast.parse(
            "clock.advance(dram.charge_read(64, clock.now).latency)\n"
            "self.clock.advance(self.dram.charge_write(n, self.clock.now, 8).latency)\n"
            "dram.charge_read(64, clock)\n"
        )
        assert _advances_by_a_charge(tree) == [1, 2]

    def test_no_module_advances_a_clock_by_a_charge_result(self):
        offenders = []
        for root, _dirs, files in os.walk(SRC):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                offenders += [f"{rel}:{line}" for line in _advances_by_a_charge(tree)]
        assert offenders == []


#: Entry points only the flash device has, whatever the receiver is called.
_FLASH_ONLY = ("program", "erase_sector")
#: Entry points every device has: a flash access when the receiver names flash.
_FLASH_SHARED = ("read", "write", "charge_read", "charge_write")


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_flash_access(node: ast.AST) -> bool:
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    attr = node.func.attr
    if attr in _FLASH_ONLY:
        return True
    return attr in _FLASH_SHARED and "flash" in _dotted(node.func.value).lower()


def _scope_nodes(scope: ast.AST):
    """The nodes of one module or function body, nested scopes excluded."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))


def _flash_clock_misuse(tree: ast.AST):
    """Lines that pass a flash access a bare ``<...>.now``, or that advance
    a clock by what a flash access returned (directly, or through a name
    bound from it in the same function)."""
    lines = []
    scopes = [tree] + [
        n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for scope in scopes:
        bound = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign) and any(
                _is_flash_access(sub) for sub in ast.walk(node.value)
            ):
                for target in node.targets:
                    bound |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        for node in _scope_nodes(scope):
            if _is_flash_access(node) and any(
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
                    if _is_flash_access(sub) or (isinstance(sub, ast.Name) and sub.id in bound):
                        lines.append(node.lineno)
                        break
    return sorted(set(lines))


class TestFlashAccessForm:
    """A flash access advances the clock itself: the one way to access
    flash is ``flash.program(offset, data, clock)``."""

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
        )
        assert _flash_clock_misuse(tree) == [1, 3, 4, 7]

    def test_no_module_times_a_flash_access_itself(self):
        offenders = []
        for root, _dirs, files in os.walk(SRC):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(root, name)
                rel = os.path.relpath(path, SRC).replace(os.sep, "/")
                with open(path, encoding="utf-8") as fh:
                    tree = ast.parse(fh.read(), filename=path)
                offenders += [f"{rel}:{line}" for line in _flash_clock_misuse(tree)]
        assert offenders == []
