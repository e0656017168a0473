"""No library module imports a name it never uses.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the module, in
code or in a quoted annotation. ``vnact/__init__.py`` is skipped: its
imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "vnact"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict:
    """name bound by an import -> line of that import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set:
    """Every name the module reads, including those inside quoted annotations."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return read


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Dict, List\nx: 'Dict' = 1\n")
    assert sorted(set(imported_names(tree)) - read_names(tree)) == ["List", "os"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(module):
    tree = ast.parse(module.read_text())
    imported = imported_names(tree)
    unused = sorted(set(imported) - read_names(tree))
    assert not unused, [f"{module.name}:{imported[n]} imports unused '{n}'" for n in unused]
