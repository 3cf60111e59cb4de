"""Every public name in src/pelt has a caller, every import is used, and
importing the CLI leaves scipy.special unloaded."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "pelt").glob("*.py"))


def _references(tree):
    """Names read as a Name or an Attribute, except inside a definition of
    the same name (so a recursive or self-referring definition is no caller)."""
    out = set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.Name, ast.Attribute)) and name not in inside:
            out.add(name)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return out


def _public_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f.name for f in node.body if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_"))


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in
         MODULES + sorted((ROOT / "bench").glob("*.py"))}
REFERENCED = set().union(*(_references(tree) for tree in TREES.values()))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path):
    unused = [name for name in _public_definitions(TREES[path]) if name not in REFERENCED]
    assert not unused, f"{path.name}: no caller for {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = TREES[path]
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(imported - read)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special is most of the CLI's start-up; gelu loads it on first use
    code = "import sys, pelt.cli; print('scipy.special' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.stdout.strip() == "False"
