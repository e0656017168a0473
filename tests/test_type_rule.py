"""The one type rule for config values (``errors._typed``), the record
check built on it (``errors._check_fields``), and a guard that keeps the
rule in one place: no module of ``src/vnact`` other than ``errors.py``
asks whether a value is a bool.
"""

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import pytest

from vnact.errors import ValidationError, _check_fields, _typed

SRC = Path(__file__).resolve().parent.parent / "src" / "vnact"


@pytest.mark.parametrize("value, kind, expected", [
    (3, int, 3),
    (-2, int, -2),
    (3, float, 3.0),
    (0.25, float, 0.25),
    (False, bool, False),
    ("x", str, "x"),
    ([1, 2], Tuple[int, ...], (1, 2)),
    ((), Tuple[str, ...], ()),
    ([1, 0.5], Tuple[float, float], (1.0, 0.5)),
    ([[0, 1], [2, 3]], Tuple[Tuple[int, int], ...], ((0, 1), (2, 3))),
    (None, Optional[Tuple[float, float]], None),
    ([1, 1], Optional[Tuple[float, float]], (1.0, 1.0)),
])
def test_typed_accepts_and_converts(value, kind, expected):
    out = _typed(value, kind, "k")
    assert out == expected and type(out) is type(expected)


@pytest.mark.parametrize("value, kind, name", [
    ("3", int, "int"),
    (3.0, int, "int"),
    (3.7, int, "int"),
    (True, int, "int"),
    (None, int, "int"),
    (True, float, "float"),
    ("0.5", float, "float"),
    (1, bool, "bool"),
    ("false", bool, "bool"),
    (1, str, "str"),
    ("abc", Tuple[str, ...], "list of str"),
    ({"a": 1}, Tuple[int, ...], "list of int"),
    ([1, True], Tuple[int, ...], "int"),
    ([0.5], Tuple[float, float], "[float, float]"),
    ([0.5, 0.6, 0.7], Optional[Tuple[float, float]], "[float, float]"),
    ([[0, 1], [2]], Tuple[Tuple[int, int], ...], "[int, int]"),
])
def test_typed_rejects_every_stand_in(value, kind, name):
    with pytest.raises(ValidationError) as info:
        _typed(value, kind, "k")
    assert str(info.value).startswith(f"config 'k' must be {name}, got ")


@dataclass(frozen=True)
class _Record:
    size: int
    names: Tuple[str, ...]
    rate: Optional[float] = None

    def __post_init__(self):
        _check_fields(self)


def test_check_fields_reads_the_annotations_and_stores_converted_values():
    record = _Record(size=2, names=["a", "b"], rate=1)
    assert record.names == ("a", "b") and record.rate == 1.0 and type(record.rate) is float
    with pytest.raises(ValidationError, match="config 'names' must be list of str, got 'ab'"):
        _Record(size=2, names="ab")
    with pytest.raises(ValidationError, match="config 'size' must be int, got 2.0"):
        _Record(size=2.0, names=())


def bool_checkers(sources: dict) -> list:
    """Modules, other than errors, that call ``isinstance(x, bool)`` or pass
    ``bool`` in a tuple of classes, given module name -> source text."""
    def asks_bool(node):
        if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance"
                and len(node.args) == 2):
            return False
        classes = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(getattr(c, "id", None) == "bool" for c in classes)

    return sorted(name for name, text in sources.items() if name != "errors"
                  and any(asks_bool(n) for n in ast.walk(ast.parse(text))))


def test_bool_guard_sees_a_planted_type_check():
    sources = {"errors": "def _typed(v):\n    return isinstance(v, bool)\n",
               "training": "def f(v):\n    return isinstance(v, (int, bool))\n",
               "models": "def g(v):\n    return not isinstance(v, bool) and v > 0\n",
               "heads": "def h(v):\n    return isinstance(v, int) or bool(v)\n"}
    assert bool_checkers(sources) == ["models", "training"]


def test_only_errors_applies_the_type_rule():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert bool_checkers(sources) == []
