"""Every top-level function and class of the library is used by the library,
and every tape rule lives in ``tensor.py`` or ``ops.py``.

A definition counts as used when its own module reads its bare name, when
another module imports it with a relative ``from .module import name``, or
when ``vnact/__init__.py`` exports it (also a relative import). A
definition that only the tests call is library surface without a library
caller, so this walks the syntax trees of ``src/vnact`` to find none.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "vnact"


def unused_definitions(sources: dict) -> list:
    """``module.name`` of each unused top-level def or class, given
    module name -> source text of one package."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    imported = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                imported.update((node.module, alias.name) for alias in node.names)
    unused = []
    for module, tree in sorted(trees.items()):
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name not in read and (module, node.name) not in imported):
                unused.append(f"{module}.{node.name}")
    return unused


def test_guard_sees_a_planted_unused_function():
    sources = {
        "a": "def helper():\n    pass\n\ndef exported():\n    return helper()\n\n"
             "def planted():\n    pass\n\nclass Imported:\n    pass\n",
        "b": "from .a import Imported\n",
        "__init__": "from .a import exported\n",
    }
    assert unused_definitions(sources) == ["a.planted"]


def test_every_definition_has_a_library_caller():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unused_definitions(sources) == []


RULE_MODULES = {"tensor", "ops"}


def apply_op_callers(sources: dict) -> list:
    """Modules, other than tensor and ops, that call ``apply_op`` (each call
    records a node with a backward rule), given module name -> source text."""
    def called(node):
        return getattr(node.func, "id", None) or getattr(node.func, "attr", None)

    return sorted(name for name, text in sources.items() if name not in RULE_MODULES
                  and any(isinstance(n, ast.Call) and called(n) == "apply_op"
                          for n in ast.walk(ast.parse(text))))


def test_rule_guard_sees_a_planted_apply_op_call():
    sources = {"ops": "def f(x):\n    return apply_op('f', (x,), x, None)\n",
               "cells": "from . import tensor\n\n"
                        "g = lambda x: tensor.apply_op('g', (x,), x, None)\n",
               "heads": "from .ops import f\n"}
    assert apply_op_callers(sources) == ["cells"]


def test_every_tape_rule_lives_in_tensor_or_ops():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert apply_op_callers(sources) == []
