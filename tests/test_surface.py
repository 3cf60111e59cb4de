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
    """What a file reads, except inside a definition of the same name (so a
    recursive or self-referring definition is no caller): Name ids,
    attribute names, and (module, name) pairs for a ``from pelt.<m> import``
    or an attribute read on pelt module m, through an alias of it
    (``ckpt_io.fingerprint``) or an expression ending in ``.m``
    (``program.model.predict_topk``)."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "pelt":
            aliases.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            aliases.update({a.asname: a.name[len("pelt."):] for a in node.names
                            if a.asname and a.name.startswith("pelt.")})
    names, attrs, pairs = set(), set(), set()

    def walk(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        if isinstance(node, ast.Name) and node.id not in inside:
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in inside:
            attrs.add(node.attr)
            owner = node.value
            module = aliases.get(owner.id) if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            pairs.add((module, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("pelt."):
            pairs.update((node.module[len("pelt."):], a.name) for a in node.names)
        for child in ast.iter_child_nodes(node):
            walk(child, inside)

    walk(tree, frozenset())
    return names, attrs, pairs


def _public_definitions(tree):
    """(name, at module level) of every public function, class and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, True
        if isinstance(node, ast.ClassDef):
            yield from ((f.name, False) for f in node.body if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("_"))


def _callers(trees):
    names, attrs, pairs = set(), set(), set()
    for tree in trees:
        n, a, p = _references(tree)
        names |= n
        attrs |= a
        pairs |= p
    return names, attrs, pairs


def _uncalled(module, tree, callers):
    """A module-level definition is called through a Name read, an import
    from its module or an attribute read on that module; a method through
    any Name or attribute read."""
    names, attrs, pairs = callers
    return [name for name, top in _public_definitions(tree)
            if name not in names and ((module, name) not in pairs if top else name not in attrs)]


TREES = {path: ast.parse(path.read_text(encoding="utf-8")) for path in
         MODULES + sorted((ROOT / "bench").glob("*.py"))}
CALLERS = _callers(TREES.values())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_public_name_has_a_caller(path):
    unused = _uncalled(path.stem, TREES[path], CALLERS)
    assert not unused, f"{path.name}: no caller for {unused}"


def test_numpy_attributes_do_not_count_as_callers():
    defined = ast.parse("def matmul(a, b): pass\ndef reshape(a): pass\n"
                        "def fingerprint(c): pass\nclass Store:\n    def items(self): pass\n")
    caller = ast.parse("import numpy as np\nfrom pelt import checkpoint as ckpt_io\n"
                       "np.matmul(a, b).reshape(2)\nckpt_io.fingerprint(c)\nStore().items()\n")
    assert _uncalled("checkpoint", defined, _callers([caller])) == ["matmul", "reshape"]
    assert _uncalled("tensor", defined, _callers([caller])) == ["matmul", "reshape", "fingerprint"]


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
