"""Seeded parameter initialization and the parameter-struct naming.

Each layer draws from its own generator derived from (seed, layer name)
via SHA-256, so adding or reordering layers never shifts another layer's
values and rebuilding a model with the same seed is bit-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import fields

import numpy as np

from .tensor import Tensor


def derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(seed, name))


def uniform_fan_in(shape, fan_in: int, seed: int, name: str) -> Tensor:
    """Uniform init in ±sqrt(1/fan_in), grad-enabled."""
    bound = float(np.sqrt(1.0 / fan_in))
    vals = rng_for(seed, name).uniform(-bound, bound, size=shape)
    return Tensor(vals, grad_enabled=True)


def zeros_param(shape) -> Tensor:
    return Tensor(np.zeros(shape), grad_enabled=True)


class ParamStruct:
    """Base of the parameter dataclasses.

    A struct stored under ``prefix`` holds one checkpoint entry per field,
    named ``<prefix>.<field>``, in field order.
    """

    def as_dict(self, prefix: str) -> dict:
        return {f"{prefix}.{f.name}": getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, prefix: str, params: dict):
        return cls(*(params[f"{prefix}.{f.name}"] for f in fields(cls)))
