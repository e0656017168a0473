"""Recurrent video cells.

The attentive cell keeps a convolutional memory (D, H, W) and, at each
step, re-weights its input with a spatial attention map computed from the
input and previous hidden state before the usual four-gate update. Gate
pre-activations can additionally be biased by externally supplied maps,
which is how the two-stream coupling injects one modality into the other.
Gate layout along the channel axis is (input, forget, candidate, output).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit

from .errors import ShapeError
from .init import ParamStruct, uniform_fan_in, zeros_param
from .ops import concat, conv2d, index_select, softmax_spatial, spatial_avg_pool
from .tensor import Tensor, _check_broadcastable, _unbroadcast, apply_op, hadamard, tanh


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
    def create(cls, input_channels: int, memory: int, seed: int,
               name: str = "lsta") -> "LstaParams":
        cin = input_channels + memory
        fan = cin * 9
        return cls(
            attn_kernel=uniform_fan_in((1, cin, 3, 3), fan, seed, f"{name}.attn_kernel"),
            gate_kernel=uniform_fan_in((4 * memory, cin, 3, 3), fan, seed, f"{name}.gate_kernel"),
            gate_bias=_forget_one_bias(memory),
            pool_kernel=uniform_fan_in((memory, memory, 1, 1), memory, seed, f"{name}.pool_kernel"),
        )


def _gate_update(z: Tensor, gate_bias: Tensor, c: Tensor, bias: Optional[GateBias]):
    """The four-gate update shared by both cells, as one fused tape node.

    Adds the per-gate bias vector and any external bias map to the gate
    pre-activations z (..., 4D, H, W), applies the gate nonlinearities and
    returns the next memory and the output gate. The backward rule repeats
    the per-op tape's expressions in its order, so gradients keep their bits.
    A tape node has one output, so the output gate gets a node of its own
    whose rule only hands its adjoint over: recorded later, it runs first.
    """
    d = gate_bias.shape[0] // 4
    zd = z.data + gate_bias.data.reshape(4 * d, 1, 1)
    parents = (z, gate_bias, c) + ((bias.stacked,) if bias is not None else ())
    if bias is not None:
        _check_broadcastable(zd, bias.stacked.data, "gate bias")
        zd = zd + bias.stacked.data
    gates = [np.ascontiguousarray(zd[..., k * d:(k + 1) * d, :, :]) for k in range(4)]
    i, f, g, o = expit(gates[0]), expit(gates[1]), np.tanh(gates[2]), expit(gates[3])
    cd, shape, parent_shapes = c.data, zd.shape, [t.shape for t in parents]
    adj_o = []

    def bwd(gc):
        dz = np.zeros(shape)
        if adj_o:
            dz[..., 3 * d:, :, :] += adj_o.pop() * o * (1.0 - o)
        dz[..., 2 * d:3 * d, :, :] += gc * i * (1.0 - g * g)
        dz[..., d:2 * d, :, :] += gc * cd * f * (1.0 - f)
        dz[..., :d, :, :] += gc * g * i * (1.0 - i)
        zs, gbs, cs, *bs = parent_shapes
        return (_unbroadcast(dz, zs), _unbroadcast(dz, (4 * d, 1, 1)).reshape(gbs),
                _unbroadcast(gc * f, cs), *(_unbroadcast(dz, s) for s in bs))

    c_next = apply_op("gate_update", parents, f * cd + i * g, bwd)
    return c_next, apply_op("gate_output", (c_next,), o, lambda go: (adj_o.append(go),))


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
    alpha = softmax_spatial(conv2d(concat([x, state.h], -3), params.attn_kernel))
    x_att = hadamard(x, alpha)
    z = conv2d(concat([x_att, state.h], -3), params.gate_kernel)
    c, o = _gate_update(z, params.gate_bias, state.c, bias)
    h = hadamard(o, tanh(conv2d(c, params.pool_kernel)))
    return LstaState(c=c, h=h), alpha


@dataclass
class ConvLstmParams(ParamStruct):
    gate_kernel: Tensor  # (4D, C+D, k, k)
    gate_bias: Tensor  # (4D,)

    @property
    def memory(self) -> int:
        return self.gate_kernel.shape[0] // 4

    @classmethod
    def create(cls, input_channels: int, memory: int, seed: int,
               name: str = "convlstm") -> "ConvLstmParams":
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
    c, o = _gate_update(z, params.gate_bias, state.c, bias)
    return LstaState(c=c, h=hadamard(o, tanh(c)))


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
    def create(cls, input_dim: int, hidden: int, seed: int, name: str = "gru") -> "GruParams":
        cin = input_dim + hidden
        return cls(
            w_update=uniform_fan_in((cin, hidden), cin, seed, f"{name}.w_update"),
            b_update=zeros_param((hidden,)),
            w_reset=uniform_fan_in((cin, hidden), cin, seed, f"{name}.w_reset"),
            b_reset=zeros_param((hidden,)),
            w_cand=uniform_fan_in((cin, hidden), cin, seed, f"{name}.w_cand"),
            b_cand=zeros_param((hidden,)),
        )


def gru_step(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One gated-recurrence step on x (B, C) with state h (B, D), as one tape node.

    The backward rule repeats the per-op tape's expressions in its order; x
    and h are parents once per use, so their adjoints add up in that order too.
    """
    if x.ndim != 2 or h.ndim != 2 or x.shape[0] != h.shape[0]:
        raise ShapeError(f"gru_step expects matching batches, got {x.shape} and {h.shape}")
    p, xd, hd, cx = params, x.data, h.data, x.shape[1]
    xh = np.concatenate([xd, hd], 1)
    z = expit(xh @ p.w_update.data + p.b_update.data)
    r = expit(xh @ p.w_reset.data + p.b_reset.data)
    xrh = np.concatenate([xd, r * hd], 1)
    n = np.tanh(xrh @ p.w_cand.data + p.b_cand.data)
    omz = 1.0 - z

    def bwd(g):
        dzn = g * omz * (1.0 - n * n)
        dxrh = dzn @ p.w_cand.data.T
        drh = dxrh[:, cx:]
        dzr = drh * hd * r * (1.0 - r)
        dzu = (g * hd + -(g * n)) * z * (1.0 - z)
        dxh = dzr @ p.w_reset.data.T + dzu @ p.w_update.data.T
        return (dxrh[:, :cx], dxh[:, :cx], g * z, drh * r, dxh[:, cx:],
                xh.T @ dzu, dzu.sum(axis=0), xh.T @ dzr, dzr.sum(axis=0),
                xrh.T @ dzn, dzn.sum(axis=0))

    parents = (x, x, h, h, h, p.w_update, p.b_update, p.w_reset, p.b_reset, p.w_cand, p.b_cand)
    return apply_op("gru_step", parents, omz * n + z * hd, bwd)


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
        pooled.append(spatial_avg_pool(state.h))
    ha = Tensor(np.zeros((frames.shape[0], gru_a.hidden)))
    hb = Tensor(np.zeros((frames.shape[0], gru_b.hidden)))
    for p in pooled:
        ha = gru_step(p, ha, gru_a)
        hb = gru_step(p, hb, gru_b)
    return spatial_avg_pool(state.c), concat([ha, hb], 1)
