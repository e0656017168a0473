"""Exception taxonomy shared across the package, and the typed reading
of config values.

The CLI maps these onto exit codes: ValidationError family -> 1,
NumericalError family -> 2.
"""


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


def _typed(value, kind, key: str):
    """``value`` converted by ``kind``; a value that ``kind`` rejects is a
    ValidationError naming the config entry ``key``. Only a bool is a bool,
    a bool is not a number, and a float with a fractional part is not an int."""
    if ((kind is bool) != isinstance(value, bool)
            or kind is int and isinstance(value, float) and not value.is_integer()):
        raise ValidationError(f"config '{key}' must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"config '{key}' must be {kind.__name__}, got {value!r}") from exc
