"""Finite-difference verification of tape gradients."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import DeterminismError, TapeError
from .tensor import Tape, Tensor

Forward = Callable[[Mapping[str, Tensor]], Tensor]

EPS = 1e-5  # central-difference step
TOL = 1e-4  # largest relative error that passes
# Relative errors divide by max(FLOOR, |a|, |n|): below the floor the test is
# absolute, at TOL * FLOOR = 1e-6, which finite-difference rounding at EPS
# stays well under while a 0.1% error in a gradient of order 1e-2 does not.
FLOOR = 1e-2


@dataclass
class GradEntry:
    name: str
    max_abs_error: float
    max_rel_error: float
    passed: bool


@dataclass
class GradReport:
    """Per-parameter comparison of tape gradients against central differences.

    ``max_rel_error`` is |a - n| / max(FLOOR, |a|, |n|), and an entry passes
    when it is at most TOL. Coordinates whose true gradient is below FLOOR
    are compared absolutely, so finite-difference rounding noise near zero
    is not amplified; the floor is small enough that the probe losses'
    gradients, which are means and mostly well below 1, are still checked
    relatively.
    """

    entries: list[GradEntry]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    def summary(self) -> str:
        lines = []
        for e in self.entries:
            status = "ok" if e.passed else "FAIL"
            lines.append(
                f"{e.name}: max_abs={e.max_abs_error:.3e} max_rel={e.max_rel_error:.3e} [{status}]"
            )
        return "\n".join(lines)


def _eval_scalar(forward: Forward, params: Mapping[str, Tensor]) -> float:
    out = forward(params)
    if out.size != 1:
        raise TapeError(f"grad_check forward must return a scalar, got shape {out.shape}")
    return float(out.data.reshape(()))


def grad_check(forward: Forward, params: Mapping[str, Tensor]) -> GradReport:
    """Compare tape gradients of ``forward`` against central differences
    with step EPS.

    ``forward`` maps named parameter tensors to a scalar tensor and must be
    deterministic (dropout disabled); this is verified by evaluating the
    baseline twice and comparing bitwise.
    """
    frozen = {name: Tensor(p.data) for name, p in params.items()}
    base = _eval_scalar(forward, frozen)
    if _eval_scalar(forward, frozen) != base:
        raise DeterminismError("grad_check forward is not deterministic between evaluations")

    live = {name: Tensor(p.data, grad_enabled=True) for name, p in params.items()}
    with Tape() as tape:
        loss = forward(live)
    grads = tape.backward(loss)

    entries = []
    for name, p in params.items():
        analytic = grads.get(live[name].uid)
        a = analytic.data if analytic is not None else np.zeros(p.shape)
        flat = p.data.reshape(-1)
        numeric = np.zeros(flat.shape[0])
        for i in range(flat.shape[0]):
            plus = flat.copy()
            plus[i] += EPS
            minus = flat.copy()
            minus[i] -= EPS
            trial = dict(frozen)
            trial[name] = Tensor(plus.reshape(p.shape))
            f_plus = _eval_scalar(forward, trial)
            trial[name] = Tensor(minus.reshape(p.shape))
            f_minus = _eval_scalar(forward, trial)
            numeric[i] = (f_plus - f_minus) / (2.0 * EPS)
        a_flat = a.reshape(-1)
        abs_err = np.abs(a_flat - numeric)
        denom = np.maximum(FLOOR, np.maximum(np.abs(a_flat), np.abs(numeric)))
        rel_err = abs_err / denom
        max_abs = float(abs_err.max(initial=0.0))
        max_rel = float(rel_err.max(initial=0.0))
        entries.append(GradEntry(name, max_abs, max_rel, max_rel <= TOL))
    return GradReport(entries)
