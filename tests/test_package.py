"""Source checks over every module of the package."""

import ast
import json
import os
import pathlib
import pydoc
import subprocess
import sys

import pytest

import orlicz_korn

MODULES = sorted(pathlib.Path(orlicz_korn.__file__).parent.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
# every module that may read the package's state
READERS = sorted(p for d in ("src", "tests", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))
# every module that may call the package, the tests left out
CALLERS = [p for p in READERS if p.parts[len(ROOT.parts)] != "tests"]


def _unused_imports(source: str) -> list:
    """Names a module imports but neither uses nor lists in ``__all__``."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = {name for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                for name in ast.literal_eval(node.value)}
    return sorted(imported - used - exported)


def test_unused_import_check_sees_plain_from_and_exported_names():
    source = ("from __future__ import annotations\nimport os, numpy as np\n"
              "from .x import a, b as c, d\n__all__ = ['d']\nnp.sum(a)\n")
    assert _unused_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert _unused_imports(path.read_text()) == []


def _dead_helpers(package: list, callers: list) -> list:
    """Names that a module of ``package`` defines and no module of
    ``callers`` loads by name, as an attribute or as a string constant
    outside ``__all__``: its private functions, classes, methods and module
    constants (also those bound by unpacking), and its public functions and
    methods, except the methods that override a method of a base class
    named by a dotted path (``argparse.ArgumentParser``).  A method or
    property counts as loaded only as an attribute or a string: a bare
    name of the same spelling is some other binding."""
    defined, methods, names, attributes = set(), set(), set(), set()
    for source in package:
        tree = ast.parse(source)
        overrides, in_class = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                inherited = {name for base in node.bases
                             for name in dir(pydoc.locate(ast.unparse(base)) or object)}
                overrides |= {id(f) for f in node.body if getattr(f, "name", None) in inherited}
                in_class |= {id(f) for f in node.body}
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and id(node) not in overrides:
                (methods if id(node) in in_class else defined).add(node.name)
            elif isinstance(node, ast.ClassDef) and node.name.startswith("_"):
                defined.add(node.name)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
            defined |= {t.id for target in targets if target for t in ast.walk(target)
                        if isinstance(t, ast.Name) and t.id.startswith("_")}
    for source in callers:
        tree = ast.parse(source)
        exported = {id(node) for assign in tree.body if isinstance(assign, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__" for t in assign.targets)
                    for node in ast.walk(assign.value)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in exported:
                attributes.add(node.value)
    dead = (defined - names - attributes) | (methods - attributes)
    return sorted(name for name in dead if not (name.startswith("__") and name.endswith("__")))


def test_dead_helper_check_sees_functions_methods_classes_and_constants():
    source = ("import argparse\n__all__ = ['f', 'g']\n_A = 1\n_B = _A\n_C: int = 3\n"
              "(_D, _E), e = _F, _G = 4, 5\nclass _K:\n    def _m(self): pass\n"
              "    def m(self): pass\n    def __init__(self): pass\n    def _used(self): return _A\n"
              "class P(argparse.ArgumentParser):\n    def error(self, m): pass\n"
              "    def warn(self, m): pass\nclass Q: pass\n"
              "def _f(): return _K()._used(), P\ndef f(): pass\ndef g(): return 'f'\n")
    assert _dead_helpers([source], [source]) == ["_B", "_C", "_D", "_E", "_F", "_G", "_f",
                                                 "_m", "g", "m", "warn"]
    caller = "from m import _f, _B, _D\n_f(); x = _B.y, _D; getattr(k, 'm')\n"
    assert _dead_helpers([source], [source, caller]) == ["_C", "_E", "_F", "_G", "_m", "g",
                                                         "warn"]
    # a bare name spelled like a method or property is no use of it
    source = ("class K:\n    @property\n    def mass(self): pass\n    def _m(self): pass\n"
              "def f(mass, _m): return mass + _m\n")
    assert _dead_helpers([source], [source, "f(1, 2)\n"]) == ["_m", "mass"]
    assert _dead_helpers([source], [source, "f(1, 2).mass\ngetattr(k, '_m')\n"]) == []


# public toolkit functions that the README names and that only tests call
_TOOLKIT = ("dominates", "holder_check", "load_field", "rearrangement")


def _package_dead_helpers() -> list:
    return _dead_helpers([path.read_text() for path in MODULES],
                         [path.read_text() for path in CALLERS])


def test_every_private_helper_is_used_somewhere_in_the_package():
    assert [name for name in _package_dead_helpers() if name.startswith("_")] == []


def test_every_public_function_has_a_caller_outside_the_tests():
    readme = (ROOT / "README.md").read_text()
    assert [name for name in _TOOLKIT if f"`{name}`" not in readme] == []
    assert [name for name in _package_dead_helpers() if not name.startswith("_")] == list(_TOOLKIT)


def _unread_attributes(package: list, readers: list) -> list:
    """Attributes that a module of ``package`` stores on ``self`` or declares
    as an annotated class field, and that no module of ``readers`` loads as
    an attribute."""
    stored, loaded = set(), set()
    for source in package:
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name) and node.value.id == "self"):
                stored.add(node.attr)
            elif isinstance(node, ast.ClassDef):
                stored |= {s.target.id for s in node.body
                           if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)}
    for source in readers:
        loaded |= {node.attr for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return sorted(stored - loaded)


def test_unread_attribute_check_sees_self_stores_and_annotated_fields():
    source = ("class K:\n    a: int\n    b: int = 0\n    c = 1\n"
              "    def __init__(self):\n        self.d = self.e = 2\n        other.f = 3\n"
              "    def g(self):\n        return self.a + self.d\n")
    assert _unread_attributes([source], [source]) == ["b", "e"]
    assert _unread_attributes([source], [source, "k.e\n"]) == ["b"]


def test_every_attribute_the_package_stores_is_read_somewhere():
    assert _unread_attributes([path.read_text() for path in MODULES],
                              [path.read_text() for path in READERS]) == []


def _all_mismatch(source: str):
    """(the public top-level functions and classes that ``__all__`` leaves
    out, the names in ``__all__`` that the module never binds), or None
    for a module without ``__all__``."""
    tree = ast.parse(source)
    listed = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)]
    if not listed:
        return None
    public = {node.name for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
    return sorted(public - set(listed[0])), sorted(set(listed[0]) - bound)


def test_all_check_sees_unlisted_functions_and_unbound_names():
    source = ("from . import m\n__all__ = ['f', 'K', 'C', 'm', 'gone']\nC = 1\n"
              "def f(): pass\ndef g(): pass\ndef _h(): pass\nclass K: pass\nclass L: pass\n")
    assert _all_mismatch(source) == (["L", "g"], ["gone"])
    assert _all_mismatch("def f(): pass\n") is None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_lists_every_public_function_and_class_and_only_bound_names(path):
    assert _all_mismatch(path.read_text()) in (None, ([], []))


def test_cli_reaches_the_library_only_through_its_public_names():
    # the CLI parses flags and writes files; the numerics live in the library
    tree = ast.parse((pathlib.Path(orlicz_korn.__file__).parent / "cli.py").read_text())
    imported = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for a in node.names]
    imported += [node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in imported if name.split(".")[0] == "numpy"]
    package = {p.stem for p in MODULES}
    private = sorted(f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in package and node.attr.startswith("_"))
    assert private == []


# In a fresh interpreter: the package modules and whether ``fractions`` are
# loaded after ``import orlicz_korn.cli``; then, with every module imported
# through the package's attributes, the module globals (or values of a
# module-level dict) that hold an ndarray over 64 KiB.
_STARTUP = """
import json, sys
import numpy as np
import orlicz_korn.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "orlicz_korn")
fractions = "fractions" in sys.modules
import orlicz_korn
grid = orlicz_korn.fields.Grid.__name__
for name in ("young", "balance", "rearrange", "hardy", "laminate", "bogovskii"):
    getattr(orlicz_korn, name)
big = sorted(f"{m}.{key}" for m, module in sys.modules.items() if m.split(".")[0] == "orlicz_korn"
             for key, value in vars(module).items()
             for v in (value, *(value.values() if isinstance(value, dict) else ()))
             if isinstance(v, np.ndarray) and v.nbytes > 64 * 1024)
try:
    orlicz_korn.nosuch
    missing = None
except AttributeError as exc:
    missing = str(exc)
print(json.dumps({"loaded": loaded, "fractions": fractions, "grid": grid, "big": big, "missing": missing}))
"""


def test_the_cli_imports_only_what_every_command_reads_and_no_module_holds_a_big_array():
    src = os.path.dirname(os.path.dirname(orlicz_korn.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _STARTUP], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["loaded"] == ["orlicz_korn", "orlicz_korn._numerics", "orlicz_korn.balance",
                             "orlicz_korn.cli", "orlicz_korn.young"]
    assert not got["fractions"]
    # a subcommand's modules load on first use, as attributes of the package
    assert got["grid"] == "Grid"
    assert got["big"] == []
    assert got["missing"] == "module 'orlicz_korn' has no attribute 'nosuch'"
