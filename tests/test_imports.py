"""Module dependency order: every package import in ``src/crossview`` sits at
the top of its module, so the import graph reads from the files' heads and no
cycle hides behind an import made at call time.  ``scene`` is the graph's
root: it imports no other package module.  Every other package a module
imports is in the standard library or declared in ``pyproject.toml``."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

import crossview

MODULES = sorted(Path(crossview.__file__).parent.glob("*.py"))


def _package_imports(tree: ast.AST):
    """The line of every import of a ``crossview`` module under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level > 0 or (node.module or "").split(".")[0] == "crossview":
                yield node.lineno
        elif isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "crossview" for alias in node.names):
                yield node.lineno


def _function_body_imports(path: Path) -> list[int]:
    tree = ast.parse(path.read_text(), str(path))
    return sorted({line for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                   for line in _package_imports(node)})


def test_no_package_import_inside_a_function():
    assert len(MODULES) >= 12, MODULES
    found = {path.name: lines for path in MODULES if (lines := _function_body_imports(path))}
    assert found == {}


def test_scene_imports_no_package_module():
    path = Path(crossview.__file__).parent / "scene.py"
    assert list(_package_imports(ast.parse(path.read_text()))) == []


def test_every_third_party_import_is_a_declared_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower()
                for req in pyproject["project"]["dependencies"]}
    imported = {}
    for path in MODULES:
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "crossview":
                    imported.setdefault(top, path.name)
    assert {"numpy", "orjson"} <= imported.keys()
    assert {name: module for name, module in imported.items() if name not in declared} == {}


def test_no_module_but_boxes_uses_a_private_name_of_boxes():
    """How a table stores a box (name codes, the velocity mask) is decided in
    ``boxes`` alone: ``BoxTable.of`` and ``BoxTable.values`` are the way in and
    out, and no other module imports or reads one of its underscore names."""
    found = []
    for path in MODULES:
        if path.name == "boxes.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "boxes":
                found += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "boxes" and node.attr.startswith("_")):
                found.append((path.name, node.attr))
    assert found == []
