"""Every function, method and class in ``src/repro`` has a real caller.

A definition counts as used when its name appears anywhere in the
program proper -- ``src/``, ``examples/``, ``replaybench/`` or
``benchmarks/`` (their own ``test_*.py`` and ``conftest.py`` excluded) --
as a name, an attribute, or an identifier string (``getattr`` tables
such as replaybench's layer list).  Imports and ``__all__`` entries are
not uses, and neither is a use inside a definition of the same name, so
a recursive helper, or a family of ``reset`` methods whose only callers
are each other, still counts as uncalled.  Dunder methods are called by
the language and are exempt.

The match is by name only, so it never flags code that has a caller,
but it cannot see dead code whose name live code shares: a method
called ``snapshot``, ``run`` or ``contains`` counts as used while any
class calls its own.  One such method stays on purpose:
``ReplayReport.snapshot`` has no caller in the program, but
``tests/test_equivalence.py`` hashes its output into the stored report
digests, so deleting it would move them.

Every field of ``SystemConfig``, and every defaulted keyword parameter
of ``FlashStore.__init__`` and ``WriteBuffer.__init__``, is a knob some
program call turns: one that no call of its class in the program
directories passes as a keyword (``FlashStore.recover`` forwards its
keywords, so it counts) fails
:func:`test_every_config_field_is_set_by_a_program_call`, unless
:data:`ALLOWED_KNOBS` says why it stays.

The tests keep one model of each device, in ``tests/_reference.py``: a
class anywhere else under ``tests/`` that subclasses a device is a copy
of one, and fails :func:`test_no_device_copy_outside_the_reference_module`.
"""

from __future__ import annotations

import ast
import os

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
PROGRAM_DIRS = ("src", "examples", "replaybench", "benchmarks")

#: ``module:qualname`` -> why it stays although nothing in the program
#: calls it.  An entry that gains a caller, or whose definition goes,
#: must leave this table.
ALLOWED = {
    "repro.trace.model:validate_trace": (
        "ROADMAP item 7 extends it into the strict-replay namespace check"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _python_files(root, program_only=True):
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d not in ("__pycache__", "out"))
        for name in sorted(files):
            test = name.startswith("test_") or name == "conftest.py"
            if name.endswith(".py") and not (program_only and test):
                yield os.path.join(folder, name)


def _is_all(node):
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
    )


def _collect_uses(node, used, enclosing=None):
    """Add every name ``node`` uses to ``used``, skipping imports,
    ``__all__`` and uses inside a function of the same name."""
    if isinstance(node, (ast.Import, ast.ImportFrom)) or _is_all(node):
        return
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value if node.value.isidentifier() else None
    else:
        name = None
    if name is not None and name != enclosing:
        used.add(name)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        # Decorators, defaults and annotations belong to the outer scope.
        for child in ast.iter_child_nodes(node):
            if child not in node.body:
                _collect_uses(child, used, enclosing)
        for child in node.body:
            _collect_uses(child, used, node.name)
        return
    for child in ast.iter_child_nodes(node):
        _collect_uses(child, used, enclosing)


def _definitions(tree, module, prefix=""):
    """``module:qualname`` and bare name of every module- and class-level
    definition."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield f"{module}:{prefix}{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                yield from _definitions(node, module, f"{prefix}{node.name}.")


def _program_trees(repo):
    """``(directory, path, tree)`` for each program file under ``repo``."""
    for directory in PROGRAM_DIRS:
        for path in _python_files(os.path.join(repo, directory)):
            with open(path, encoding="utf-8") as fh:
                yield directory, path, ast.parse(fh.read(), filename=path)


def uncalled(repo):
    """Qualified names of the definitions under ``repo/src`` that nothing
    in the program directories uses."""
    used = set()
    defined = []
    for directory, path, tree in _program_trees(repo):
        _collect_uses(tree, used)
        if directory == "src":
            rel = os.path.relpath(path, os.path.join(repo, "src"))
            module = rel[: -len(".py")].replace(os.sep, ".")
            module = module[: -len(".__init__")] if module.endswith(".__init__") else module
            defined.extend(_definitions(tree, module))
    return sorted(
        qualname
        for qualname, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    )


def test_every_definition_has_a_caller_outside_tests():
    offenders = [q for q in uncalled(REPO) if q not in ALLOWED]
    assert offenders == [], (
        "defined in src/ but used only by tests (or not at all); delete it, "
        "or give it an ALLOWED entry with its reason"
    )


def test_allowed_entries_are_still_uncalled():
    assert sorted(set(ALLOWED) - set(uncalled(REPO))) == []


def _write(root, rel, source):
    path = os.path.join(root, rel)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(source)


def test_scan_flags_an_uncalled_method(tmp_path):
    root = str(tmp_path)
    _write(root, "src/pkg/__init__.py", "from pkg.mod import Box, helper\n__all__ = ['Box', 'helper']\n")
    _write(root, "src/pkg/mod.py", (
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = 0\n"
        "    def used(self):\n"
        "        return self.n\n"
        "    def by_name(self):\n"
        "        return 1\n"
        "    def reset(self):\n"
        "        self.inner.reset()\n"
        "    def planted(self):\n"
        "        return self.planted()\n"
        "def helper():\n"
        "    return Box().used()\n"
    ))
    _write(root, "examples/demo.py", "from pkg import helper\nhelper()\ngetattr(object, 'by_name')\n")
    _write(root, "examples/test_demo.py", "from pkg.mod import Box\nBox().reset()\n")
    assert uncalled(root) == ["pkg.mod:Box.planted", "pkg.mod:Box.reset"]


#: Classes whose knobs some program call must turn.
KNOB_CLASSES = ("SystemConfig", "FlashStore", "InPlaceFlashStore", "WriteBuffer")

#: ``Class.knob`` -> why it stays although no program call sets it.  An
#: entry that gains a caller, or whose knob goes, must leave this table.
ALLOWED_KNOBS = {
    "FlashStore.free_target_sectors": (
        "tests size tiny stores with it (a cleaning target of 1 to 3 sectors)"
    ),
    "WriteBuffer.low_watermark": (
        "tests size tiny buffers with it; ROADMAP item 13 redesigns the watermark"
    ),
}


def _knobs(cls):
    """A class's knobs: the defaulted parameters of its own ``__init__``,
    or, when it has none (a dataclass), its annotated fields."""
    for stmt in cls.body:
        if isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            args = stmt.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            kwonly = [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            return {a.arg for a in defaulted + kwonly}
    return {
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    }


def _called_classes(func):
    """The knob classes a call's callee expression names, so
    ``FlashStore(...)``, ``FlashStore.recover(...)`` and
    ``(FlashStore.recover if r else FlashStore)(...)`` all count."""
    return {
        getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(func)
    } & set(KNOB_CLASSES)


def unset_knobs(repo):
    """``Class.knob`` for each knob of a :data:`KNOB_CLASSES` class under
    ``repo/src`` that no call of that class in the program directories
    passes as a keyword."""
    knobs = set()
    keywords = set()
    for directory, _path, tree in _program_trees(repo):
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name in KNOB_CLASSES:
                if directory == "src":
                    knobs.update(f"{node.name}.{knob}" for knob in _knobs(node))
            elif isinstance(node, ast.Call):
                for name in _called_classes(node.func):
                    keywords.update(f"{name}.{k.arg}" for k in node.keywords)
    return sorted(knobs - keywords)


def test_every_config_field_is_set_by_a_program_call():
    offenders = [k for k in unset_knobs(REPO) if k not in ALLOWED_KNOBS]
    assert offenders == [], (
        "no program call sets these knobs; delete them, or give one an "
        "ALLOWED_KNOBS entry with its reason"
    )


def test_allowed_knobs_are_still_unset():
    assert sorted(set(ALLOWED_KNOBS) - set(unset_knobs(REPO))) == []


def test_scan_flags_an_unset_config_field(tmp_path):
    root = str(tmp_path)
    _write(root, "src/pkg/config.py", (
        "@dataclass(frozen=True)\n"
        "class SystemConfig:\n"
        "    seed: int = 0\n"
        "    size: int = 1\n"
        "    planted: int = 2\n"
        "    def validate(self):\n"
        "        return SystemConfig(size=self.size)\n"
    ))
    _write(root, "examples/demo.py", "from pkg import config\nconfig.SystemConfig(seed=1)\n")
    _write(root, "examples/test_demo.py", "from pkg.config import SystemConfig\nSystemConfig(planted=3)\n")
    assert unset_knobs(root) == ["SystemConfig.planted"]


def test_scan_flags_an_unset_constructor_keyword(tmp_path):
    root = str(tmp_path)
    _write(root, "src/pkg/store.py", (
        "class FlashStore:\n"
        "    def __init__(self, flash, clock, mode=0, *, ecc=False, planted=4, bare):\n"
        "        self.mode = mode\n"
        "    @classmethod\n"
        "    def recover(cls, flash, clock, **kwargs):\n"
        "        return cls(flash, clock, **kwargs)\n"
        "class WriteBuffer:\n"
        "    age: float = 1.0\n"
        "    def __init__(self, capacity, limit=1):\n"
        "        self.limit = limit\n"
    ))
    _write(root, "examples/demo.py", (
        "from pkg import store\n"
        "store.FlashStore(1, 2, mode=1)\n"
        "(store.FlashStore.recover if True else store.FlashStore)(1, 2, ecc=True)\n"
        "store.WriteBuffer(capacity=8)\n"
    ))
    _write(root, "examples/test_demo.py", "from pkg.store import FlashStore\nFlashStore(1, 2, planted=3)\n")
    assert unset_knobs(root) == ["FlashStore.planted", "WriteBuffer.limit"]


#: What a device model subclasses; only ``tests/_reference.py`` may.
DEVICE_BASES = ("DRAM", "FlashMemory", "MagneticDisk", "StorageDevice")


def device_copies(tests_dir):
    """``file:Class`` for each class under ``tests_dir``, outside
    ``_reference.py``, that subclasses one of :data:`DEVICE_BASES`."""
    found = []
    for path in _python_files(tests_dir, program_only=False):
        rel = os.path.relpath(path, tests_dir)
        if rel == "_reference.py":
            continue
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=path)
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and any(
                getattr(base, "id", getattr(base, "attr", None)) in DEVICE_BASES
                for base in node.bases
            ):
                found.append(f"{rel}:{node.name}")
    return found


def test_no_device_copy_outside_the_reference_module():
    assert device_copies(os.path.join(REPO, "tests")) == []


def test_scan_flags_a_device_copy(tmp_path):
    root = str(tmp_path)
    _write(root, "_reference.py", "class DRAMModel(StorageDevice):\n    pass\n")
    _write(root, "test_x.py", "class Old(devices.FlashMemory):\n    pass\nclass Log(Base):\n    pass\n")
    assert device_copies(root) == ["test_x.py:Old"]
