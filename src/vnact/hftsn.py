"""Segment-sampled clip scoring with learnable temporal interaction.

Each sampled frame runs through a small convolutional backbone: a list
of stages, one ``StageParams`` struct each, which a model registers like
any other layer (stage s under ``backbone.stage<s>``). Before selected
stages, a pair of per-channel weights mixes every frame with its
successor (the last frame has no successor and keeps only its own term).
The blocks start as the identity (own weight 1, successor weight 0), so
inserting them leaves a pretrained network's outputs bit-unchanged, and
training can grow temporal interactions from there. Per-frame scores are
averaged into a clip-level consensus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .errors import ShapeError, ValidationError
from .init import ParamStruct, uniform_fan_in, zeros_param
from .ops import avg_pool2x2, concat, conv2d, mean_along, narrow, reshape
from .tensor import Tensor, add, hadamard, relu


@dataclass
class HfBlockParams(ParamStruct):
    """Per-channel weights for a frame and its successor."""

    w0: Tensor  # (C,) weight of the frame itself
    w1: Tensor  # (C,) weight of the next frame

    @classmethod
    def create(cls, channels: int) -> "HfBlockParams":
        return cls(
            w0=Tensor(np.ones(channels), grad_enabled=True),
            w1=Tensor(np.zeros(channels), grad_enabled=True),
        )


def hf_block(f: Tensor, params: HfBlockParams) -> Tensor:
    """Mix frames (B, T, C, H, W) with their temporal successors.

    G_t = w0 * F_t + w1 * F_{t+1}; the final frame uses only its own term.
    """
    if f.ndim != 5:
        raise ShapeError(f"expected (B, T, C, H, W), got {f.shape}")
    t_len, c = f.shape[1:3]
    if params.w0.shape != (c,):
        raise ShapeError(f"block weights sized {params.w0.shape} for {c} channels")
    w0 = reshape(params.w0, (c, 1, 1))
    w1 = reshape(params.w1, (c, 1, 1))
    own = hadamard(f, w0)
    if t_len == 1:
        return own
    last = Tensor(np.zeros(f.shape[:1] + (1,) + f.shape[2:]))
    succ = concat([narrow(f, 1, 1, t_len - 1), last], 1)
    return add(own, hadamard(succ, w1))


@dataclass
class StageParams(ParamStruct):
    """One same-padded 3x3 conv+relu stage of the backbone."""

    kernel: Tensor  # (C_out, C_in, 3, 3)
    bias: Tensor  # (C_out,)

    @classmethod
    def create(cls, in_channels: int, out_channels: int, seed: int, name: str) -> "StageParams":
        return cls(
            kernel=uniform_fan_in((out_channels, in_channels, 3, 3), in_channels * 9, seed,
                                  f"{name}.kernel"),
            bias=zeros_param((out_channels,)),
        )


def backbone_forward(
    frames: Tensor,
    stages: Sequence[StageParams],
    hf: Optional[Dict[int, HfBlockParams]] = None,
) -> Tensor:
    """Run frames (B, T, C, H, W) through the stages, with a 2x2 mean pool
    between consecutive stages.

    Temporal-interaction blocks, when given, sit at the input of their
    stage (after the preceding pool). Frames keep their time axis so the
    blocks can mix along it.
    """
    if frames.ndim != 5:
        raise ShapeError(f"expected (B, T, C, H, W), got {frames.shape}")
    if hf:
        bad = [s for s in hf if not 0 <= s < len(stages)]
        if bad:
            raise ValidationError(f"interaction positions {bad} outside {len(stages)} stages")
    x = frames
    for s, stage in enumerate(stages):
        if s > 0:
            x = avg_pool2x2(x)
        if hf and s in hf:
            x = hf_block(x, hf[s])
        x = relu(add(conv2d(x, stage.kernel), reshape(stage.bias, (stage.kernel.shape[0], 1, 1))))
    return x


def consensus(segment_scores: Tensor) -> Tensor:
    """Average per-segment scores (B, T, K) over the time axis."""
    if segment_scores.ndim != 3:
        raise ShapeError(f"expected (B, T, K), got {segment_scores.shape}")
    return mean_along(segment_scores, 1)

