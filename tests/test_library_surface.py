"""Every top-level function and class of the library, every method, field
and parameter default has a caller outside the tests, every tape rule lives
in ``tensor.py`` or ``ops.py``, and only ``models`` and ``synthetic`` name an
input.

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
none. An annotated class field counts as used under the method rule.

A parameter default counts as relied on when a caller omits it: a module
of the library, of ``perfbench/`` (its tests included, since they change
only with the benchmark) or of ``tools/``. The rules below can only keep a
default, never drop one, so that a name two functions share errs on the
side of a caller.
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


def attributes_read(texts) -> set:
    """Every attribute name that one of the source texts reads."""
    return {n.attr for text in texts for n in ast.walk(ast.parse(text))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unread_methods(sources: dict, callers: dict) -> list:
    """``module.Class.name`` of each method, property or classmethod of a
    top-level class that no module of ``sources`` or ``callers`` reads as an
    attribute and that overrides no standard-library base; both map module
    name -> source text."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = attributes_read([*sources.values(), *callers.values()])
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


def perfbench_callers() -> dict:
    return {p.stem: p.read_text() for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_")}


def test_every_method_is_read_outside_the_tests():
    assert unread_methods(library_sources(), perfbench_callers()) == []


def unread_fields(sources: dict, callers: dict) -> list:
    """``module.Class.name`` of each annotated field of a top-level class that
    no module of ``sources`` or ``callers`` reads as an attribute; both map
    module name -> source text."""
    read = attributes_read([*sources.values(), *callers.values()])
    return [f"{module}.{cls.name}.{node.target.id}"
            for module, text in sorted(sources.items()) for cls in ast.parse(text).body
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)
            and node.target.id not in read]


def test_field_guard_sees_a_planted_unread_field():
    sources = {
        "a": "from dataclasses import dataclass\n\n"
             "@dataclass\nclass Log:\n    planted: str\n    rows: list\n    timed: float\n"
             "    LIMIT = 3\n",
        "b": "from .a import Log\n\ndef fill(log):\n    log.planted = 'x'\n"
             "    return log.rows\n",
    }
    callers = {"bench": "def seconds(log):\n    return log.timed\n"}
    assert unread_fields(sources, callers) == ["a.Log.planted"]


def test_every_field_is_read_outside_the_tests():
    assert unread_fields(library_sources(), perfbench_callers()) == []


def outside_callers(root: Path) -> dict:
    """``dir/module`` -> source text of each module outside the library that
    counts as a caller of it: every ``perfbench/*.py``, its tests included,
    and every ``tools/*.py``. Nothing under ``tests/`` counts."""
    return {f"{d}/{p.stem}": p.read_text()
            for d in ("perfbench", "tools") for p in sorted((root / d).glob("*.py"))}


def _defaulted(fn) -> list:
    """(index among the positional parameters or None, name) of each
    parameter of ``fn`` that has a default."""
    a = fn.args
    positional = [*a.posonlyargs, *a.args]
    first = len(positional) - len(a.defaults)
    return ([(i, p.arg) for i, p in enumerate(positional) if i >= first]
            + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None])


def _functions(tree: ast.Module):
    """(qualified name, def, class name or None) of each top-level function
    and each method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{fn.name}", fn, node.name


def unrelied_defaults(sources: dict, callers: dict) -> list:
    """``module.function.parameter`` (``module.Class.method.parameter``) of
    each default of ``sources`` that no call in ``sources`` or ``callers``
    omits; both map module name -> source text.

    A call by the function's name counts: a bare name or an attribute, and
    the class name for ``__init__``. A default is kept when such a call
    omits it, when any such call spreads ``*args`` or ``**kwargs``, and when
    the name is read other than as the function of a call (a function
    passed as a value may be called with anything). A bound call supplies
    the first parameter, save a plain method called through its class."""
    calls, referenced = [], set()
    for tree in map(ast.parse, [*sources.values(), *callers.values()]):
        funcs = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.append(node)
                funcs.add(id(node.func))
        referenced |= {getattr(n, "id", None) or n.attr for n in ast.walk(tree)
                       if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
                       and id(n) not in funcs}
    unrelied = []
    for module, text in sorted(sources.items()):
        for qualname, fn, cls in _functions(ast.parse(text)):
            names = {fn.name} | ({cls} if fn.name == "__init__" else set())
            defaults = _defaulted(fn)
            if not defaults or names & referenced:
                continue
            decorators = {ast.unparse(d) for d in fn.decorator_list}
            bound = cls is not None and "staticmethod" not in decorators
            kept = set()
            for call in calls:
                func = call.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called not in names:
                    continue
                keywords = {k.arg for k in call.keywords}
                if None in keywords or any(isinstance(a, ast.Starred) for a in call.args):
                    kept.update(name for _, name in defaults)
                    continue
                receiver = getattr(func, "value", None)
                through_class = (getattr(receiver, "id", getattr(receiver, "attr", None)) == cls
                                 and "classmethod" not in decorators)
                receives = called == cls or isinstance(func, ast.Attribute) and not through_class
                supplied = len(call.args) + (bound and receives)
                kept.update(name for i, name in defaults
                            if name not in keywords and (i is None or i >= supplied))
            unrelied += [f"{module}.{qualname}.{name}" for _, name in defaults if name not in kept]
    return unrelied


def test_defaults_guard_sees_a_planted_default(tmp_path):
    """Only ``planted``'s default goes: the one call that omits it is in
    ``tests/``. A caller directory counts whole, so a ``test_*`` module under
    ``perfbench/`` or ``tools/`` keeps the default it omits."""
    sources = {
        "a": "".join(f"def {name}(x, y=1):\n    pass\n\n" for name in (
                 "planted", "omitted", "spread", "forwarded", "valued", "bench_only",
                 "tool_test_only"))
             + "class Box:\n"
               "    def __init__(self, x, y=1):\n        pass\n\n"
               "    def put(self, x, y=1):\n        pass\n",
        "b": "from . import a\n\n"
             "def run(rest, options):\n"
             "    a.planted(1, 2)\n    a.planted(1, y=2)\n    a.omitted(1, 2)\n"
             "    a.spread(1, *rest)\n    a.forwarded(1, 2, **options)\n    a.bench_only(1, 2)\n"
             "    a.tool_test_only(1, 2)\n"
             "    a.Box(1, 2).put(1, 2)\n    return a.valued\n",
    }
    for path, text in {"tools/t.py": "from vnact import a\n\na.omitted(1)\na.Box(1).put(1)\n",
                       "perfbench/test_bench.py": "from vnact import a\n\na.bench_only(1)\n",
                       "tools/test_tool.py": "from vnact import a\n\na.tool_test_only(1)\n",
                       "tests/test_a.py": "from vnact import a\n\na.planted(1)\n"}.items():
        (tmp_path / path).parent.mkdir(exist_ok=True)
        (tmp_path / path).write_text(text)
    assert unrelied_defaults(sources, outside_callers(tmp_path)) == ["a.planted.y"]


def test_defaults_guard_counts_the_receiver_of_a_bound_call():
    """``Box(1, 2)`` and ``box.put(1, 2)`` supply every parameter, ``self``
    included; ``a.Cart.get(cart, 1)``, through the class, omits ``y``."""
    sources = {
        "a": "class Box:\n    def __init__(self, x, y=1):\n        pass\n\n"
             "    def put(self, x, y=1):\n        pass\n\n"
             "class Cart:\n    def get(self, x, y=1):\n        pass\n",
        "b": "from . import a\nfrom .a import Box\n\n"
             "box = Box(1, 2)\nbox.put(1, 2)\na.Cart.get(a.Cart(), 1)\n",
    }
    assert unrelied_defaults(sources, {}) == ["a.Box.__init__.y", "a.Box.put.y"]


def test_every_default_has_a_caller_outside_the_tests():
    assert unrelied_defaults(library_sources(), outside_callers(ROOT)) == []


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
