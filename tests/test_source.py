"""Source hygiene of the package: no unused import, no unreferenced private name."""

from __future__ import annotations

import ast
import pathlib

import pytest

import lossthreshold

PACKAGE = pathlib.Path(lossthreshold.__file__).parent
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _references(tree: ast.AST) -> set[str]:
    """Every name a module reads: bare names, and the attribute part of `x.name`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _imported_names(tree: ast.Module) -> list[str]:
    """The names a module's imports bind, `from __future__` aside."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.append(alias.asname or alias.name.split(".")[0])
    return bound


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = _tree(path)
    unused = sorted(set(_imported_names(tree)) - _references(tree))
    assert not unused, f"{path.name} imports {unused} without using them"


def _private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants whose names start with one underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_referenced():
    # a private name that nothing in the package reads is dead code
    trees = {path.name: _tree(path) for path in PACKAGE.glob("*.py")}
    referenced = set().union(*(_references(tree) for tree in trees.values()))
    dead = sorted(
        f"{path.name}:{name}"
        for path in MODULES
        for name in _private_definitions(trees[path.name])
        if name not in referenced
    )
    assert not dead, f"private names nothing references: {dead}"
