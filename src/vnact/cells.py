"""Recurrent video cells.

The attentive cell keeps a convolutional memory (D, H, W) and, at each
step, re-weights its input with a spatial attention map computed from the
input and previous hidden state before the usual four-gate update. Gate
pre-activations can additionally be biased by externally supplied maps,
which is how the two-stream coupling injects one modality into the other.
Gate layout along the channel axis is (input, forget, candidate, output).

A cell step records one ``gate_update`` node (the memory) and one
``gate_output`` node (h = o ⊙ tanh(m)). These fused rules and the GRU step
live in :mod:`vnact.ops`; this module composes them and records no node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ShapeError
from .init import ParamStruct, uniform_fan_in, zeros_param
from .ops import (concat, conv2d, gate_output, gate_update, gru_step, index_select, mean_along,
                  softmax_spatial)
from .tensor import Tensor, hadamard


@dataclass
class GateBias:
    """External gate pre-activation maps, stacked (..., 4D, H, W) in gate order."""

    stacked: Tensor

    @classmethod
    def from_stacked(cls, stacked: Tensor, memory: int) -> "GateBias":
        if stacked.shape[-3] != 4 * memory:
            raise ShapeError(f"gate stack has {stacked.shape[-3]} channels, expected {4 * memory}")
        return cls(stacked)


def _forget_one_bias(memory: int) -> Tensor:
    """Zero gate bias with the forget slice at +1, so memories persist early."""
    b = np.zeros(4 * memory)
    b[memory:2 * memory] = 1.0
    return Tensor(b, grad_enabled=True)


@dataclass
class LstaState:
    """Cell memory and hidden map, both (..., D, H, W)."""

    c: Tensor
    h: Tensor

    def __post_init__(self):
        if self.c.shape != self.h.shape:
            raise ShapeError(f"state shapes differ: c {self.c.shape} vs h {self.h.shape}")

    @classmethod
    def zeros(cls, shape: tuple) -> "LstaState":
        return cls(c=Tensor(np.zeros(shape)), h=Tensor(np.zeros(shape)))


@dataclass
class LstaParams(ParamStruct):
    attn_kernel: Tensor  # (1, C+D, k, k)
    gate_kernel: Tensor  # (4D, C+D, k, k)
    gate_bias: Tensor  # (4D,)
    pool_kernel: Tensor  # (D, D, 1, 1) output-path mixing of the memory

    @property
    def memory(self) -> int:
        return self.pool_kernel.shape[0]

    @classmethod
    def create(cls, input_channels: int, memory: int, seed: int, name: str) -> "LstaParams":
        cin = input_channels + memory
        fan = cin * 9
        return cls(
            attn_kernel=uniform_fan_in((1, cin, 3, 3), fan, seed, f"{name}.attn_kernel"),
            gate_kernel=uniform_fan_in((4 * memory, cin, 3, 3), fan, seed, f"{name}.gate_kernel"),
            gate_bias=_forget_one_bias(memory),
            pool_kernel=uniform_fan_in((memory, memory, 1, 1), memory, seed, f"{name}.pool_kernel"),
        )


def lsta_step(
    x: Tensor,
    state: LstaState,
    params: LstaParams,
    bias: Optional[GateBias] = None,
):
    """One attentive recurrence step on x (..., C, H, W).

    Returns the next state and the attention map that re-weighted the
    input. The hidden output passes the memory through a 1x1 mixing
    convolution before the output gate, so h and c can decouple.
    """
    alpha = softmax_spatial(conv2d(concat([x, state.h], -3), params.attn_kernel), 1.0)
    x_att = hadamard(x, alpha)
    z = conv2d(concat([x_att, state.h], -3), params.gate_kernel)
    stacked = None if bias is None else bias.stacked
    c = gate_update(z, params.gate_bias, state.c, stacked)
    h = gate_output(z, params.gate_bias, stacked, conv2d(c, params.pool_kernel))
    return LstaState(c=c, h=h), alpha


@dataclass
class ConvLstmParams(ParamStruct):
    gate_kernel: Tensor  # (4D, C+D, k, k)
    gate_bias: Tensor  # (4D,)

    @property
    def memory(self) -> int:
        return self.gate_kernel.shape[0] // 4

    @classmethod
    def create(cls, input_channels: int, memory: int, seed: int, name: str) -> "ConvLstmParams":
        cin = input_channels + memory
        return cls(
            gate_kernel=uniform_fan_in((4 * memory, cin, 3, 3), cin * 9, seed, f"{name}.gate_kernel"),
            gate_bias=_forget_one_bias(memory),
        )


def convlstm_step(
    x: Tensor,
    state: LstaState,
    params: ConvLstmParams,
    bias: Optional[GateBias] = None,
) -> LstaState:
    """One convolutional LSTM step: the plain four-gate update, no attention."""
    z = conv2d(concat([x, state.h], -3), params.gate_kernel)
    stacked = None if bias is None else bias.stacked
    c = gate_update(z, params.gate_bias, state.c, stacked)
    return LstaState(c=c, h=gate_output(z, params.gate_bias, stacked, c))


@dataclass
class GruParams(ParamStruct):
    w_update: Tensor  # (C+D, D)
    b_update: Tensor
    w_reset: Tensor
    b_reset: Tensor
    w_cand: Tensor
    b_cand: Tensor

    @property
    def hidden(self) -> int:
        return self.w_update.shape[1]

    @classmethod
    def create(cls, input_dim: int, hidden: int, seed: int, name: str) -> "GruParams":
        cin = input_dim + hidden
        return cls(
            w_update=uniform_fan_in((cin, hidden), cin, seed, f"{name}.w_update"),
            b_update=zeros_param((hidden,)),
            w_reset=uniform_fan_in((cin, hidden), cin, seed, f"{name}.w_reset"),
            b_reset=zeros_param((hidden,)),
            w_cand=uniform_fan_in((cin, hidden), cin, seed, f"{name}.w_cand"),
            b_cand=zeros_param((hidden,)),
        )


def rollout(frames: Tensor, params, bias_at=None):
    """Roll one cell over features (B, T, C, H, W) from a zero state,
    yielding the state after every step.

    ``params`` picks the cell: LstaParams for the attentive cell,
    ConvLstmParams for the plain ConvLSTM. ``bias_at(t)``, when given,
    returns the GateBias of step t.
    """
    if frames.ndim != 5 or frames.shape[1] == 0:
        raise ShapeError(f"expected a nonempty (B, T, C, H, W) sequence, got {frames.shape}")
    b, t_len, _, h_ext, w_ext = frames.shape
    state = LstaState.zeros((b, params.memory, h_ext, w_ext))
    for t in range(t_len):
        bias = bias_at(t) if bias_at else None
        x = index_select(frames, 1, t)
        if isinstance(params, LstaParams):
            state, _ = lsta_step(x, state, params, bias)
        else:
            state = convlstm_step(x, state, params, bias)
        yield state


def run_lsta_gru(
    frames: Tensor,
    lsta: LstaParams,
    gru_a: GruParams,
    gru_b: GruParams,
):
    """Roll the attentive cell over frames (B, T, C, H, W), then feed the
    pooled hidden map of every step to two independent gated-recurrence
    aggregators.

    Returns (attentive descriptor, aggregator descriptor): the pooled final
    memory, and the concatenated final states of the two aggregators.
    """
    pooled = []
    for state in rollout(frames, lsta):
        # Pooled before the next step reads h: the tape sums fan-out
        # adjoints in reverse record order, so this order fixes the bits.
        pooled.append(mean_along(state.h, (-2, -1)))
    ha = Tensor(np.zeros((frames.shape[0], gru_a.hidden)))
    hb = Tensor(np.zeros((frames.shape[0], gru_b.hidden)))
    for p in pooled:
        ha = gru_step(p, ha, gru_a)
        hb = gru_step(p, hb, gru_b)
    return mean_along(state.c, (-2, -1)), concat([ha, hb], 1)
