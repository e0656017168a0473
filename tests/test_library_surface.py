"""Every top-level function and class of the library, and every method, has a
caller outside the tests, every tape rule lives in ``tensor.py`` or
``ops.py``, and only ``models`` and ``synthetic`` name an input.

A top-level definition counts as used when its own module reads its bare
name, or when another library module imports it with a relative
``from .module import name``. An export from ``vnact/__init__.py`` is not a
use: a name that only the package exports is reached only by the tests.

A method, property or classmethod of a library class (dunders excepted)
counts as used when a library module or a non-test module of
``perfbench/`` reads an attribute of that name: the benchmark is a caller.
A method that overrides one of a standard-library base class counts as
used too, since the base class calls it (``argparse`` calls
``cli._Parser.error``). Definitions that only the tests call are library
surface without a library caller, so this walks the syntax trees to find
none.
"""

import ast
import importlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "vnact"
PERFBENCH = ROOT / "perfbench"


def library_sources() -> dict:
    return {p.stem: p.read_text() for p in SRC.glob("*.py")}


def unused_definitions(sources: dict) -> list:
    """``module.name`` of each unused top-level def or class, given
    module name -> source text of one package."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    imported = set()
    for name, tree in trees.items():
        if name == "__init__":
            continue
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
             "def planted():\n    pass\n\nclass Imported:\n    pass\n\n"
             "def exported_only():\n    pass\n",
        "b": "from .a import Imported, exported\n",
        "__init__": "from .a import exported, exported_only\n",
    }
    assert unused_definitions(sources) == ["a.planted", "a.exported_only"]


def test_every_definition_has_a_library_caller():
    assert unused_definitions(library_sources()) == []


def stdlib_bases(cls: ast.ClassDef, tree: ast.Module) -> list:
    """The standard-library classes among ``cls``'s bases, resolved through
    the module's top-level imports (an unbound name is looked up in builtins)."""
    origin = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                origin[bound] = alias.name if alias.asname else bound
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            origin.update({alias.asname or alias.name: f"{node.module}.{alias.name}"
                           for alias in node.names})
    found = []
    for base in cls.bases:
        root, *rest = ast.unparse(base).split(".")
        path = origin.get(root, f"builtins.{root}").split(".") + rest
        if path[0] not in sys.stdlib_module_names:
            continue
        obj = importlib.import_module(path[0])
        for part in path[1:]:
            obj = getattr(obj, part, None)
        if isinstance(obj, type):
            found.append(obj)
    return found


def unread_methods(sources: dict, callers: dict) -> list:
    """``module.Class.name`` of each method, property or classmethod of a
    top-level class that no module of ``sources`` or ``callers`` reads as an
    attribute and that overrides no standard-library base; both map module
    name -> source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = {n.attr for tree in [*trees.values(), *map(ast.parse, callers.values())]
            for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for module, tree in sorted(trees.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            bases = stdlib_bases(cls, tree)
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (node.name.startswith("__") and node.name.endswith("__"))
                        and node.name not in read
                        and not any(hasattr(base, node.name) for base in bases)):
                    unread.append(f"{module}.{cls.name}.{node.name}")
    return unread


def test_method_guard_sees_a_planted_unread_method():
    sources = {
        "a": "import argparse\n\n"
             "class Parser(argparse.ArgumentParser):\n"
             "    def error(self, message):\n        pass\n\n"
             "class Report:\n"
             "    def __len__(self):\n        return 0\n\n"
             "    @property\n    def passed(self):\n        return True\n\n"
             "    @classmethod\n    def build(cls):\n        return cls()\n\n"
             "    def planted(self):\n        pass\n\n"
             "    def assigned(self):\n        pass\n",
        "b": "from .a import Report\n\nok = Report().passed\n\n"
             "def stub(r):\n    r.assigned = None\n",
    }
    callers = {"bench": "def run(report):\n    return report.build()\n"}
    assert unread_methods(sources, callers) == ["a.Report.planted", "a.Report.assigned"]


def test_every_method_is_read_outside_the_tests():
    callers = {p.stem: p.read_text() for p in PERFBENCH.glob("*.py")
               if not p.name.startswith("test_")}
    assert unread_methods(library_sources(), callers) == []


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
    assert apply_op_callers(library_sources()) == []


# models declares which inputs each family reads; synthetic makes them.
MODALITY_MODULES = {"models", "synthetic"}


def modality_literals(sources: dict) -> list:
    """``module: literal`` of each "frames" or "flow" string constant in a
    module other than models and synthetic, given module name -> source text."""
    return sorted(f"{name}: {node.value}" for name, text in sources.items()
                  if name not in MODALITY_MODULES for node in ast.walk(ast.parse(text))
                  if isinstance(node, ast.Constant) and node.value in ("frames", "flow"))


def test_modality_guard_sees_a_planted_literal():
    sources = {"cli": "def f(ds):\n    return ds.inputs['frames']\n",
               "battery": "x = {'flows': 1, 'frame': 2}\n",
               "models": "inputs = {'frames': 'input_channels'}\n",
               "synthetic": "key = 'flow'\n"}
    assert modality_literals(sources) == ["cli: frames"]


def test_only_models_and_synthetic_name_an_input():
    """Every other module reads a family's ``modalities`` declaration."""
    assert modality_literals(library_sources()) == []
