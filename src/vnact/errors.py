"""Exception taxonomy shared across the package, and the one type rule
for config values.

The CLI maps these onto exit codes: ValidationError family -> 1,
NumericalError family -> 2.

Every config value read from JSON goes through ``_typed``: an int is an
int (not a bool, float or numeric string), a float is an int or a float
(not a bool), a bool only a bool, a str only a str; ``Tuple[k, ...]`` and
``Tuple[k1, k2]`` take a list, checked entry by entry and returned as a
tuple, and ``Optional[k]`` also takes None. A frozen config record calls
``_check_fields`` in ``__post_init__``: its annotations are its schema.
"""

import typing


class VnactError(Exception):
    """Base class for all package errors."""


class ValidationError(VnactError):
    """Bad user input: malformed config, schema violation, out-of-range id."""


class ShapeError(ValidationError):
    """Tensor extents inconsistent with the requested operation."""


class FormatError(ValidationError):
    """Malformed serialized artifact (TNSF file, score JSON, manifest)."""


class NumericalError(VnactError):
    """A computation produced or depends on non-finite values."""


class NonFiniteError(NumericalError):
    """An operation produced NaN or Inf."""


class TapeError(VnactError):
    """Invalid use of a differentiation tape (re-traversal, foreign node)."""


class DeterminismError(NumericalError):
    """A forward pass expected to be deterministic returned differing values."""


def _kind_name(kind) -> str:
    args = typing.get_args(kind)
    return (kind.__name__ if not args else f"list of {_kind_name(args[0])}" if args[-1] is Ellipsis
            else f"[{', '.join(map(_kind_name, args))}]")


def _typed(value, kind, key: str):
    """``value`` as ``kind`` by the rule above, else a ValidationError naming ``key``."""
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin is typing.Union:  # Optional[k]
        return None if value is None else _typed(value, args[0], key)
    if origin is tuple:
        if isinstance(value, (list, tuple)):
            kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
            if len(value) == len(kinds):
                return tuple(_typed(v, k, key) for v, k in zip(value, kinds))
    elif (isinstance(value, (int, float) if kind is float else kind)
          and isinstance(value, bool) == (kind is bool)):
        return float(value) if kind is float else value
    raise ValidationError(f"config '{key}' must be {_kind_name(kind)}, got {value!r}")


def _known_keys(config: dict, keys, what: str) -> None:
    """A ValidationError naming every key of ``config`` outside ``keys``."""
    unknown = sorted(set(config) - set(keys), key=str)
    if unknown:
        raise ValidationError(f"unknown {what} {unknown}")


def _check_fields(record) -> None:
    """Store each annotated field of dataclass ``record`` as ``_typed`` converts it."""
    for name, kind in typing.get_type_hints(type(record)).items():
        object.__setattr__(record, name, _typed(getattr(record, name), kind, name))
