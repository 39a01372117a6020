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

Every defaulted parameter in ``src/`` takes two values or more in the
program: :func:`test_every_config_field_is_set_by_a_program_call` fails
on one that no program call passes, or that every call, and the default
wherever a call leaves it out, gives the same literal or the same named
constant (an UPPER_CASE name or attribute), unless
:data:`ALLOWED_KNOBS` says why it stays.  The scan covers every
function, method and constructor whose name ``src/`` defines once, and
the fields of the run-configuration dataclasses in
:data:`CONFIG_CLASSES`.  It matches calls by name, so a name defined
more than once (``run``, ``read``, ``write``) is skipped; a positional
argument counts as passing its parameter, and a call through
``FlashStore.recover``, which forwards its ``**kwargs``, counts for
``FlashStore``.

Every attribute ``src/`` stores is read by the program too:
:func:`test_every_stored_attribute_is_read` fails on one that is only
ever assigned or incremented (``self.x = ...``, ``obj.x += 1``), unless
:data:`ALLOWED_WRITE_ONLY` says why it stays.  A read is a load of the
name anywhere in the program directories, or an identifier string; a
private ``_name`` counts as read only by a load in the module that
stores it, so another class's ``self._rng`` does not keep a dead one
alive.  Fields of exception classes are exempt: they are read by
whoever catches the error.

All scans here share one parse of each file, and each scan of the
repository runs once, per session.

The tests keep one model of each device, in ``tests/_reference.py``: a
class anywhere else under ``tests/`` that subclasses a device is a copy
of one, and fails :func:`test_no_device_copy_outside_the_reference_module`.
"""

from __future__ import annotations

import ast
import builtins
import functools
import os
from collections import defaultdict
from typing import Dict, List, NamedTuple

REPO = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
PROGRAM_DIRS = ("src", "examples", "replaybench", "benchmarks")

#: ``module:qualname`` -> why it stays although nothing in the program
#: calls it.  An entry that gains a caller, or whose definition goes,
#: must leave this table.
ALLOWED = {
    "repro.trace.model:validate_trace": (
        "ROADMAP item 7 extends it into the strict-replay namespace check"
    ),
    "repro.trace.model:TraceRecord._make": (
        "namedtuple's _replace, which TraceReplayer.replay calls, builds "
        "through it; the override keeps that path checked"
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


@functools.lru_cache(maxsize=None)
def _parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


@functools.lru_cache(maxsize=None)
def _program_trees(repo):
    """``(directory, path, tree)`` for each program file under ``repo``,
    parsed once per session for every scan here."""
    return tuple(
        (directory, path, _parse(path))
        for directory in PROGRAM_DIRS
        for path in _python_files(os.path.join(repo, directory))
    )


def _module_name(repo, path):
    """The dotted module name of a file under ``repo/src``."""
    rel = os.path.relpath(path, os.path.join(repo, "src"))
    module = rel[: -len(".py")].replace(os.sep, ".")
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


@functools.lru_cache(maxsize=None)
def uncalled(repo):
    """Qualified names of the definitions under ``repo/src`` that nothing
    in the program directories uses."""
    used = set()
    defined = []
    for directory, path, tree in _program_trees(repo):
        _collect_uses(tree, used)
        if directory == "src":
            defined.extend(_definitions(tree, _module_name(repo, path)))
    return tuple(sorted(
        qualname
        for qualname, name in defined
        if name not in used and not (name.startswith("__") and name.endswith("__"))
    ))


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
    assert uncalled(root) == ("pkg.mod:Box.planted", "pkg.mod:Box.reset")


#: Dataclasses whose fields are the knobs of a run.  Other dataclasses
#: are records: their defaulted fields hold state a run fills in.
CONFIG_CLASSES = ("SystemConfig", "TortureConfig")

#: ``name.param`` -> why it stays although it takes one value in the
#: program.  An entry that gains a second value, or whose parameter
#: goes, must leave this table.
ALLOWED_KNOBS = {
    "FlashStore.free_target_sectors": (
        "tests size tiny stores with it (a cleaning target of 1 to 3 sectors)"
    ),
    "WriteBuffer.low_watermark": (
        "tests size tiny buffers with it; ROADMAP item 13 redesigns the watermark"
    ),
    "main.argv": "tests drive the command line through it",
    "DRAM.spec": (
        "tests/test_charge_api.py builds DRAMs from altered specs to check "
        "that construction rejects a negative cost"
    ),
}

#: Stands for any value that is not a literal, so a parameter passed one
#: never counts as single-valued.
_VARIES = object()

_SCALARS = (bool, int, float, complex, str, bytes, type(None))


class _Signature(NamedTuple):
    #: Parameters a positional argument fills, in order (no self/cls).
    positional: List[str]
    #: Defaulted parameter -> its default expression.
    defaults: Dict[str, ast.expr]


def _signature(func, method):
    args = func.args
    params = args.posonlyargs + args.args
    positional = [a.arg for a in params]
    if method and not any(getattr(d, "id", None) == "staticmethod" for d in func.decorator_list):
        positional = positional[1:]
    defaults = {a.arg: d for a, d in zip(params[len(params) - len(args.defaults):], args.defaults)}
    defaults.update((a.arg, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None)
    return _Signature(positional, defaults)


def _fields(cls):
    """A dataclass's signature: its annotated fields, in order."""
    fields = [
        s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)
    ]
    return _Signature(
        [f.target.id for f in fields],
        {f.target.id: f.value for f in fields if f.value is not None},
    )


def _callables(node, method=False):
    """``(name, signature)`` for every function, method and class defined
    under ``node``.  A class's signature is its own ``__init__``'s, or
    for a :data:`CONFIG_CLASSES` dataclass its fields'; any other class
    yields None.  Dunder methods are called by the language and yield
    nothing."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (child.name.startswith("__") and child.name.endswith("__")):
                yield child.name, _signature(child, method)
            yield from _callables(child)
        elif isinstance(child, ast.ClassDef):
            init = [s for s in child.body if isinstance(s, ast.FunctionDef) and s.name == "__init__"]
            if init:
                yield child.name, _signature(init[0], method=True)
            elif child.name in CONFIG_CLASSES:
                yield child.name, _fields(child)
            else:
                yield child.name, None
            yield from _callables(child, method=True)
        else:
            yield from _callables(child, method)


def _literal(node):
    """The value of a literal expression, or of a named constant (an
    UPPER_CASE name or attribute such as ``SUMMARY_BYTES`` or
    ``Permissions.RW``, keyed by its source text); :data:`_VARIES` for
    any other."""
    name = getattr(node, "id", getattr(node, "attr", None))
    if isinstance(node, (ast.Name, ast.Attribute)) and name.isupper():
        return ("constant", ast.unparse(node))
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _VARIES
    return value if isinstance(value, _SCALARS) else repr(value)


def _passed(call, signature):
    """Parameter -> the literal (or :data:`_VARIES`) ``call`` passes it.
    A ``*args`` argument passes every positional parameter from its
    place on; a ``**kwargs`` argument passes nothing."""
    passed = {}
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            passed.update((p, _VARIES) for p in signature.positional[index:])
            break
        if index < len(signature.positional):
            passed[signature.positional[index]] = _literal(arg)
    passed.update((k.arg, _literal(k.value)) for k in call.keywords if k.arg is not None)
    return passed


@functools.lru_cache(maxsize=None)
def unset_knobs(repo):
    """``name.param`` for each defaulted parameter, under ``repo/src``,
    that takes at most one value in the program directories.

    A parameter takes at most one value when no program call passes it,
    or when every call, and the default wherever a call leaves it out,
    gives the same literal.  A call counts for every callable whose name
    its callee expression contains, as a keyword or by position, so
    ``FlashStore(...)``, ``FlashStore.recover(...)`` (which forwards its
    ``**kwargs``) and ``(FlashStore.recover if r else FlashStore)(...)``
    all count for ``FlashStore``.  Only names defined once in ``src/``
    are scanned: a call to ``run``, ``read`` or ``write`` cannot be told
    apart by name, so those are skipped.
    """
    defined = defaultdict(list)
    for directory, _path, tree in _program_trees(repo):
        if directory == "src":
            for name, signature in _callables(tree):
                defined[name].append(signature)
    unique = {
        name: signatures[0]
        for name, signatures in defined.items()
        if len(signatures) == 1 and signatures[0] is not None
    }
    values = defaultdict(set)
    passed = set()
    for _directory, _path, tree in _program_trees(repo):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            callee = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.func)}
            for name in callee & unique.keys():
                signature = unique[name]
                got = _passed(node, signature)
                for param, default in signature.defaults.items():
                    knob = f"{name}.{param}"
                    if param in got:
                        passed.add(knob)
                    values[knob].add(got[param] if param in got else _literal(default))
    return tuple(sorted(
        knob
        for name, signature in unique.items()
        for knob in (f"{name}.{param}" for param in signature.defaults)
        if knob not in passed or (len(values[knob]) == 1 and _VARIES not in values[knob])
    ))


def test_every_config_field_is_set_by_a_program_call():
    offenders = [k for k in unset_knobs(REPO) if k not in ALLOWED_KNOBS]
    assert offenders == [], (
        "these parameters take one value in the program; make each a "
        "constant, or give it an ALLOWED_KNOBS entry with its reason"
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
        "@dataclass\n"
        "class Stats:\n"
        "    hits: int = 0\n"
    ))
    _write(root, "examples/demo.py", (
        "from pkg import config\n"
        "config.SystemConfig(seed=1)\n"
        "config.SystemConfig(seed=2)\n"
        "config.Stats()\n"
    ))
    _write(root, "examples/test_demo.py", "from pkg.config import SystemConfig\nSystemConfig(planted=3)\n")
    assert unset_knobs(root) == ("SystemConfig.planted",)


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
        "store.FlashStore(1, 2)\n"
        "(store.FlashStore.recover if True else store.FlashStore)(1, 2, ecc=True)\n"
        "store.WriteBuffer(capacity=8)\n"
    ))
    _write(root, "examples/test_demo.py", "from pkg.store import FlashStore\nFlashStore(1, 2, planted=3)\n")
    assert unset_knobs(root) == ("FlashStore.planted", "WriteBuffer.limit")


def test_scan_covers_functions_and_methods(tmp_path):
    root = str(tmp_path)
    _write(root, "src/pkg/mod.py", (
        "def fetch(path, retries=3, timeout=1.0, mode='r'):\n"
        "    return path\n"
        "def run(quick=False):\n"
        "    return quick\n"
        "class Box:\n"
        "    def put(self, key, size=0, *, tag=None):\n"
        "        return key\n"
        "    @staticmethod\n"
        "    def pack(data, level=6):\n"
        "        return data\n"
        "class Other:\n"
        "    def run(self, quick=True):\n"
        "        return quick\n"
    ))
    _write(root, "examples/demo.py", (
        "from pkg import mod\n"
        "mod.fetch('a', 5, 2.0)\n"
        "mod.fetch('b', mode='r')\n"
        "box = mod.Box()\n"
        "box.put('k', 4)\n"
        "box.put('k', 8)\n"
        "mod.Box.pack(b'x', 9)\n"
        "mod.Box.pack(b'y', 9)\n"
    ))
    _write(root, "examples/test_demo.py", "from pkg import mod\nmod.fetch('c', mode='w')\n")
    # retries, timeout and size take two values, by position; mode only
    # ever gets its default's literal; tag is never passed; a static
    # method's first parameter is a real one, so level is always 9; and
    # ``run``, defined twice, is skipped.
    assert unset_knobs(root) == ("fetch.mode", "pack.level", "put.tag")


def test_scan_counts_a_named_constant_as_one_value(tmp_path):
    root = str(tmp_path)
    _write(root, "src/pkg/mod.py", (
        "def alloc(flash, slot=0):\n"
        "    return slot\n"
        "def mapping(space, perms=Permissions.RW):\n"
        "    return perms\n"
        "def device(size, spec=SPEC_A):\n"
        "    return spec\n"
        "def tune(level=1):\n"
        "    return level\n"
    ))
    _write(root, "examples/demo.py", (
        "from pkg import mod\n"
        "mod.alloc(1, SLOT_BYTES)\n"
        "mod.alloc(2, SLOT_BYTES)\n"
        "mod.mapping(1, perms=Permissions.RW)\n"
        "mod.mapping(2)\n"
        "mod.device(1, spec=SPEC_B)\n"
        "mod.device(2)\n"
        "mod.tune(level)\n"
    ))
    # SLOT_BYTES and Permissions.RW are one value each wherever they
    # appear; two constants are two values, and a lowercase name varies.
    assert unset_knobs(root) == ("alloc.slot", "mapping.perms")


#: ``module:Class.attr`` -> why it stays although no program code reads
#: it.  An entry that gains a reader, or whose attribute goes, must
#: leave this table.
ALLOWED_WRITE_ONLY = {
    "repro.fs.fsck:FsckReport.reachable_inodes": (
        "part of fsck's report; the fsck tests check the namespace walk's reach with it"
    ),
    "repro.fs.fsck:FsckReport.repaired": (
        "part of fsck's report; the fsck tests check that a repairing pass says so"
    ),
    "repro.mem.mmap:CopyOnWriteMapping.direct_pages": (
        "the mmap tests check through it which pages map flash directly"
    ),
    "repro.devices.battery:BatteryBank.death_time": (
        "ROADMAP item 9 keeps it: it is the one use of the ``now`` that "
        "draw, fail_primary and fail_all take"
    ),
}


def _base_names(cls):
    return {getattr(base, "id", getattr(base, "attr", None)) for base in cls.bases}


def _attribute_stores(node, module, cls=None):
    """``(module, class, attr)`` for each attribute store under ``node``:
    the class is the enclosing one for a store through ``self``, else
    None (resolved later by the attribute's declaring class)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Store):
            on_self = isinstance(child.value, ast.Name) and child.value.id == "self"
            yield module, cls if on_self else None, child.attr
        yield from _attribute_stores(
            child, module, child.name if isinstance(child, ast.ClassDef) else cls
        )


def _declared(tree, module):
    """``(module, class, name)`` for each field a class body declares."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [
                    getattr(stmt, "target", None)
                ]
                for target in targets:
                    if isinstance(target, ast.Name):
                        yield module, node.name, target.id


@functools.lru_cache(maxsize=None)
def write_only(repo):
    """``module:Class.attr`` for each attribute that ``repo/src`` stores
    and nothing in the program directories reads."""
    loads = set()  # (module or None, name); None for a public name
    stores = []
    owners = defaultdict(set)
    classes = {}
    for directory, path, tree in _program_trees(repo):
        module = _module_name(repo, path) if directory == "src" else path
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value if node.value.isidentifier() else None
            else:
                continue
            if name is not None:
                loads.add((module if name.startswith("_") else None, name))
        if directory != "src":
            continue
        classes.update(
            (node.name, _base_names(node)) for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
        )
        for store in _attribute_stores(tree, module):
            stores.append(store)
            if store[1] is not None:
                owners[store[2]].add(store[:2])
        for mod, cls, name in _declared(tree, module):
            owners[name].add((mod, cls))
    # Exception classes: the builtin ones, then any class deriving from one.
    errors = {
        name for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    while True:
        found = {name for name, bases in classes.items() if bases & errors} - errors
        if not found:
            break
        errors |= found
    offenders = set()
    for module, cls, attr in stores:
        if (module if attr.startswith("_") else None, attr) in loads:
            continue
        for mod, owner in sorted({(module, cls)} if cls else owners[attr] or {(module, None)}):
            if owner not in errors:
                offenders.add(f"{mod}:{owner}.{attr}" if owner else f"{mod}:{attr}")
    return tuple(sorted(offenders))


def test_every_stored_attribute_is_read():
    offenders = [q for q in write_only(REPO) if q not in ALLOWED_WRITE_ONLY]
    assert offenders == [], (
        "stored in src/ but read only by tests (or not at all); delete it, "
        "or give it an ALLOWED_WRITE_ONLY entry with its reason"
    )


def test_allowed_write_only_entries_are_still_unread():
    assert sorted(set(ALLOWED_WRITE_ONLY) - set(write_only(REPO))) == []


def test_scan_flags_a_write_only_attribute(tmp_path):
    root = str(tmp_path)
    _write(root, "src/pkg/mod.py", (
        "class Meter(Base):\n"
        "    def __init__(self):\n"
        "        self.total = 0\n"
        "        self.planted = 0\n"
        "        self._rng = 1\n"
        "        self._seen = 0\n"
        "    def add(self, n):\n"
        "        self.total += n\n"
        "        self.planted += n\n"
        "        self._seen += 1\n"
        "        return self._seen\n"
        "@dataclass\n"
        "class Report:\n"
        "    done: bool = False\n"
        "    shown: int = 0\n"
        "def check(report):\n"
        "    report.done = True\n"
        "    report.shown += 1\n"
        "class StoreError(ValueError):\n"
        "    def __init__(self, where):\n"
        "        self.where = where\n"
    ))
    _write(root, "src/pkg/other.py", (
        "class Stream:\n"
        "    def draw(self):\n"
        "        return self._rng\n"
    ))
    _write(root, "examples/demo.py", "print(meter.total, getattr(report, 'shown'))\n")
    _write(root, "examples/test_demo.py", "print(meter.planted, report.done)\n")
    # An increment is no read; tests are not the program; another
    # module's ``self._rng`` does not read this one; an exception's
    # field is exempt.
    assert write_only(root) == (
        "pkg.mod:Meter._rng", "pkg.mod:Meter.planted", "pkg.mod:Report.done",
    )


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
        for node in ast.walk(_parse(path)):
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
