"""Source checks over every module of the package."""

import ast
import pathlib

import pytest

import orlicz_korn

MODULES = sorted(pathlib.Path(orlicz_korn.__file__).parent.glob("*.py"))


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
