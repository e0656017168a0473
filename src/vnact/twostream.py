"""Cross-modal coupling of an appearance stream and a motion stream.

The appearance stream runs the attentive cell on frame features; the
motion stream runs a plain convolutional LSTM on stacked-displacement
features sharpened by a spatial attention map. During joint rollout each
stream biases the other's gate pre-activations: a 3D convolution over the
time-stacked appearance features produces per-step biases for the motion
cell, and a 2D convolution of each motion frame biases the attentive
cell. Zero fusion kernels therefore reproduce the uncoupled streams
bit-for-bit, which is the fine-tuning starting point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cells import ConvLstmParams, GateBias, LstaParams, rollout
from .errors import ShapeError
from .heads import ScoreTriple
from .init import ParamStruct
from .ops import conv2d, conv3d, index_select, softmax_spatial_scaled, spatial_avg_pool, transpose
from .tensor import Tensor, add, hadamard, scale


@dataclass
class MotionAttentionParams(ParamStruct):
    """1x1 map from motion features to a single spatial attention plane."""

    kernel: Tensor  # (1, C, 1, 1)

    @classmethod
    def create(cls, channels: int) -> "MotionAttentionParams":
        # Zero start: uniform attention, so the module begins as identity.
        return cls(kernel=Tensor(np.zeros((1, channels, 1, 1)), grad_enabled=True))


def motion_spatial_attention(features: Tensor, params: MotionAttentionParams) -> Tensor:
    """Re-weight motion features (..., C, H, W) by a spatial attention map.

    The map is a softmax over the grid scaled by H·W, so it averages to one
    and a uniform map (zero kernel) passes features through unchanged.
    """
    alpha = softmax_spatial_scaled(conv2d(features, params.kernel))
    return hadamard(features, alpha)


@dataclass
class FusionParams(ParamStruct):
    """Gate-bias generators between the two streams.

    ``app_to_motion`` is a 3D kernel over time-stacked appearance features
    producing the motion cell's per-step gate biases; ``motion_to_app`` is
    a 2D kernel on the current motion frame producing the attentive cell's
    biases. Both start at zero so fusion begins stream-preserving.
    """

    app_to_motion: Tensor  # (4*Dm, C_app, kT, kH, kW)
    motion_to_app: Tensor  # (4*Da, C_mot, kH, kW)

    @classmethod
    def create(cls, app_channels: int, motion_channels: int, app_memory: int,
               motion_memory: int, kernel_size: int = 3, temporal_width: int = 3) -> "FusionParams":
        return cls(
            app_to_motion=Tensor(np.zeros(
                (4 * motion_memory, app_channels, temporal_width, kernel_size, kernel_size)),
                grad_enabled=True),
            motion_to_app=Tensor(np.zeros(
                (4 * app_memory, motion_channels, kernel_size, kernel_size)), grad_enabled=True),
        )


def cross_modal_rollout(
    app_frames: Tensor,
    motion_frames: Tensor,
    lsta: LstaParams,
    clstm: ConvLstmParams,
    fusion: FusionParams,
):
    """Roll both cells over aligned feature sequences (B, T, C, H, W) with
    matching batch, length and grid. Returns the pooled final memories
    (appearance descriptor, motion descriptor).

    Each gate bias comes from the other stream's features, never from its
    state, so the two cells roll one after the other.
    """
    fa, fm = app_frames, motion_frames
    if fa.ndim != 5 or fm.ndim != 5:
        raise ShapeError(f"expected (B, T, C, H, W) streams, got {fa.shape} and {fm.shape}")
    if fa.shape[:2] != fm.shape[:2] or fa.shape[-2:] != fm.shape[-2:]:
        raise ShapeError(f"stream layouts disagree: {fa.shape} vs {fm.shape}")
    # All per-step motion-side biases come from one 3D conv over time.
    app_bias_all = conv3d(transpose(fa, (0, 2, 1, 3, 4)), fusion.app_to_motion)
    *_, app_state = rollout(fa, lsta, bias_at=lambda t: GateBias.from_stacked(
        conv2d(index_select(fm, 1, t), fusion.motion_to_app), lsta.memory))
    *_, mot_state = rollout(fm, clstm, bias_at=lambda t: GateBias.from_stacked(
        index_select(app_bias_all, 2, t), clstm.memory))
    return spatial_avg_pool(app_state.c), spatial_avg_pool(mot_state.c)


def fuse_scores(a: ScoreTriple, b: ScoreTriple) -> ScoreTriple:
    """Elementwise arithmetic mean of two score triples, task by task."""
    pairs = ((a.verb, b.verb), (a.noun, b.noun), (a.action, b.action))
    for x, y in pairs:
        if x.shape != y.shape:
            raise ShapeError(f"score extents differ: {x.shape} vs {y.shape}")
    return ScoreTriple(*(scale(add(x, y), 0.5) for x, y in pairs))
