"""Structural tensor operations: linear maps, convolutions, pooling, reductions.

All operations accept the per-sample ranks used throughout the package
(matrices, C×H×W maps, C×T×H×W stacks) and, where noted, extra leading
axes that are treated as batch dimensions. Convolution uses cross-
correlation semantics with zero padding; reductions use numpy's fixed
deterministic accumulation so replays are bit-identical.

conv2d and conv3d are one same-padded correlation over the trailing axes
(im2col, one matmul, col2im). Their backward rules keep the unpadded input
and rebuild the column matrix when run, trading one im2col per call for not
holding a 9× or 27× copy of the input until backward. A rule skips the
gradient of an input or kernel that is not grad-enabled (raw frames and
flow, frozen parameters): no matmul and no col2im runs for it. col2im
accumulates into a (*padded spatial, B·C) buffer, so each kernel offset is
one addition over the whole batch and channel axis rather than one per
image row; every pixel still receives its offsets in the same nested order,
so the bits are those of a row-by-row loop. ``avg_pool2x2``
adds its four strided quarters in the order numpy's mean uses, so the
faster forward gives the same bits.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.special import logsumexp as _logsumexp, softmax as _softmax

from .errors import NonFiniteError, ShapeError
from .tensor import Tensor, add, apply_op, hadamard

# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of an M×K by a K×N tensor."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} vs {b.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def bwd(g):
        return g @ bd.T, ad.T @ g

    return apply_op("matmul", (a, b), out, bwd)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for x of shape (B, F), weight (F, K), bias (K,)."""
    return add(matmul(x, weight), bias)


# ---------------------------------------------------------------------------
# convolution


def _im2col(xb: np.ndarray, ks: tuple, pads: tuple) -> np.ndarray:
    """Columns (B, C·∏k, ∏S) of a (B, C, *S) array for a same-padded kernel."""
    spatial = xb.shape[2:]
    if any(pads):
        xp = np.zeros(xb.shape[:2] + tuple(n + 2 * p for n, p in zip(spatial, pads)))
        xp[(Ellipsis,) + tuple(slice(p, p + n) for p, n in zip(pads, spatial))] = xb
    else:
        xp = xb
    s = xp.strides
    view = np.lib.stride_tricks.as_strided(
        xp, xp.shape[:2] + ks + spatial, s + s[2:], writeable=False
    )
    return view.reshape(xb.shape[0], -1, int(np.prod(spatial)))


def _col2im(gcols: np.ndarray, shape: tuple, ks: tuple, pads: tuple) -> np.ndarray:
    """Adjoint of :func:`_im2col`: (B, C·∏k, ∏S) columns back to a (B, C, *S) array.

    Kernel offsets are accumulated in nested loop order (last axis fastest)
    into a (*padded S, B·C) buffer, so each addition runs over the whole
    batch and channel axis at once; the axis moves back to the front at the end.
    """
    if not any(pads):
        return gcols.reshape(shape)
    b, c, *spatial = shape
    per_offset = np.moveaxis(gcols.reshape(b * c, *ks, *spatial), 0, -1)
    gxp = np.zeros(tuple(n + 2 * p for n, p in zip(spatial, pads)) + (b * c,))
    for offset in itertools.product(*map(range, ks)):
        window = tuple(slice(o, o + n) for o, n in zip(offset, spatial))
        gxp[window] += per_offset[offset]
    inner = gxp[tuple(slice(p, p + n) for p, n in zip(pads, spatial))]
    # Copied back to row-major so a matmul reading this adjoint stays on BLAS.
    return np.ascontiguousarray(np.moveaxis(inner, -1, 0)).reshape(shape)


def _correlate(kind: str, x: Tensor, kernel: Tensor):
    """Same-padded cross-correlation over the trailing ``kernel.ndim - 2`` axes.

    Returns the output array and its backward rule. The rule keeps the
    unpadded input, not the column matrix, and rebuilds the columns when run.
    It returns None, and does no work, for an input or kernel that is not
    grad-enabled: nothing on the tape reads that adjoint.
    """
    nd = kernel.ndim - 2
    if x.ndim < nd + 1:
        raise ShapeError(f"{kind} input needs at least rank {nd + 1}, got {x.shape}")
    c, *spatial = x.shape[-nd - 1 :]
    co, ck, *ks = kernel.shape
    if ck != c:
        raise ShapeError(f"{kind} channel mismatch: input has {c}, kernel expects {ck}")
    if any(k % 2 == 0 for k in ks):
        raise ShapeError(f"same-padding {kind} needs odd kernel extents, got {kernel.shape[2:]}")
    ks, pads = tuple(ks), tuple(k // 2 for k in ks)
    lead = x.shape[: -nd - 1]
    shape = (int(np.prod(lead)), c, *spatial)
    xd, kflat = x.data, kernel.data.reshape(co, -1)
    out = np.matmul(kflat, _im2col(xd.reshape(shape), ks, pads))

    need_gx, need_gk = x.grad_enabled, kernel.grad_enabled

    def bwd(g):
        gb = g.reshape(shape[0], co, -1)
        gx = gk = None
        if need_gk:
            # The rebuilt columns die here, before the same-sized input-gradient
            # columns are allocated, so the allocator reuses their pages.
            gk = np.matmul(gb, _im2col(xd.reshape(shape), ks, pads).transpose(0, 2, 1))
            gk = gk.sum(axis=0).reshape(kernel.shape)
        if need_gx:
            gx = _col2im(np.matmul(kflat.T, gb), shape, ks, pads).reshape(x.shape)
        return gx, gk

    return out.reshape(*lead, co, *spatial), bwd


def conv2d(x: Tensor, kernel: Tensor) -> Tensor:
    """2D cross-correlation of (..., C, H, W) with a (C_out, C, kH, kW) kernel.

    The input is zero-padded so spatial extents are preserved (odd kernels
    only).
    """
    if kernel.ndim != 4:
        raise ShapeError(f"conv2d kernel must be rank 4, got {kernel.shape}")
    return apply_op("conv2d", (x, kernel), *_correlate("conv2d", x, kernel))


def conv3d(x: Tensor, kernel: Tensor) -> Tensor:
    """Same-padded 3D cross-correlation of (..., C, T, H, W) with (C_out, C, kT, kH, kW)."""
    if kernel.ndim != 5:
        raise ShapeError(f"conv3d kernel must be rank 5, got {kernel.shape}")
    return apply_op("conv3d", (x, kernel), *_correlate("conv3d", x, kernel))


# ---------------------------------------------------------------------------
# spatial reductions


def softmax_spatial(x: Tensor) -> Tensor:
    """Softmax over the trailing H×W grid of a (..., 1, H, W) map.

    Stabilized by max subtraction; outputs are positive and sum to one
    over the grid.
    """
    if x.ndim < 3 or x.shape[-3] != 1:
        raise ShapeError(f"softmax_spatial expects (..., 1, H, W), got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax_spatial: non-finite input")
    out = _softmax(x.data, axis=(-2, -1))

    def bwd(g):
        inner = (g * out).sum(axis=(-2, -1), keepdims=True)
        return (out * (g - inner),)

    return apply_op("softmax_spatial", (x,), out, bwd)


def softmax_spatial_scaled(x: Tensor) -> Tensor:
    """Spatial softmax of a (..., 1, H, W) map scaled by H·W.

    Computed as exp(x - max) · (H·W) / Σexp, so a constant map yields
    exactly 1.0 everywhere: the numerator and denominator are then the
    identical float H·W and the division is exact.
    """
    if x.ndim < 3 or x.shape[-3] != 1:
        raise ShapeError(f"softmax_spatial_scaled expects (..., 1, H, W), got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax_spatial_scaled: non-finite input")
    h, w = x.shape[-2:]
    hw = float(h * w)
    e = np.exp(x.data - x.data.max(axis=(-2, -1), keepdims=True))
    out = e * hw / e.sum(axis=(-2, -1), keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=(-2, -1), keepdims=True)
        return (out * (g - inner / hw),)

    return apply_op("softmax_spatial_scaled", (x,), out, bwd)


def spatial_avg_pool(x: Tensor) -> Tensor:
    """Mean over the trailing H×W plane: (..., C, H, W) -> (..., C)."""
    if x.ndim < 3:
        raise ShapeError(f"spatial_avg_pool needs at least rank 3, got {x.shape}")
    h, w = x.shape[-2:]
    out = x.data.mean(axis=(-2, -1))
    inv = 1.0 / (h * w)

    def bwd(g):
        return (np.broadcast_to(g[..., None, None] * inv, x.shape).copy(),)

    return apply_op("spatial_avg_pool", (x,), out, bwd)


def avg_pool2x2(x: Tensor) -> Tensor:
    """2×2 mean downsampling of (..., C, H, W); H and W must be even."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2x2 needs even spatial extents, got {h}x{w}")
    xd = x.data
    top = xd[..., 0::2, 0::2] + xd[..., 0::2, 1::2]
    # The summation order of numpy's reshape(..., 2, ..., 2).mean(axis=(-3, -1)),
    # kept bit for bit: in pairs, or in memory order when W pools to one column.
    if w > 2:
        out = (top + (xd[..., 1::2, 0::2] + xd[..., 1::2, 1::2])) * 0.25
    else:
        out = ((top + xd[..., 1::2, 0::2]) + xd[..., 1::2, 1::2]) * 0.25

    def bwd(g):
        up = np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1)
        return (up * 0.25,)

    return apply_op("avg_pool2x2", (x,), out, bwd)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    out = x.data.reshape(shape)
    orig = x.shape

    def bwd(g):
        return (g.reshape(orig),)

    return apply_op("reshape", (x,), out, bwd)


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(int(a) for a in axes)
    out = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inverse),)

    return apply_op("transpose", (x,), out, bwd)


def concat(parts, axis: int) -> Tensor:
    parts = list(parts)
    if not parts:
        raise ShapeError("concat of zero tensors")
    out = np.concatenate([p.data for p in parts], axis=axis)
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def bwd(g):
        moved = np.moveaxis(g, axis, 0)
        return tuple(
            np.moveaxis(moved[offsets[i] : offsets[i + 1]], 0, axis) for i in range(len(sizes))
        )

    return apply_op("concat", tuple(parts), out, bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Slice ``length`` entries from ``start`` along ``axis``."""
    n = x.shape[axis]
    if start < 0 or length < 1 or start + length > n:
        raise ShapeError(f"narrow [{start}:{start + length}] out of range for extent {n}")
    index = [slice(None)] * x.ndim
    index[axis] = slice(start, start + length)
    out = x.data[tuple(index)]

    def bwd(g):
        gx = np.zeros(x.shape)
        gx[tuple(index)] = g
        return (gx,)

    return apply_op("narrow", (x,), out, bwd)


def index_select(x: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along ``axis``, dropping that axis."""
    n = x.shape[axis]
    if not 0 <= index < n:
        raise ShapeError(f"index {index} out of range for extent {n}")
    sl = [slice(None)] * x.ndim
    sl[axis] = index

    def bwd(g):
        gx = np.zeros(x.shape)
        gx[tuple(sl)] = g
        return (gx,)

    return apply_op("index_select", (x,), x.data[tuple(sl)], bwd)


# ---------------------------------------------------------------------------
# reductions and classification helpers


def mean_along(x: Tensor, axis) -> Tensor:
    axis = tuple(np.atleast_1d(axis).tolist()) if not isinstance(axis, tuple) else axis
    count = int(np.prod([x.shape[a] for a in axis]))
    out = x.data.mean(axis=axis)
    inv = 1.0 / count

    def bwd(g):
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp * inv, x.shape).copy(),)

    return apply_op("mean", (x,), out, bwd)


def mean_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.mean())
    inv = 1.0 / x.size

    def bwd(g):
        return (np.full(x.shape, float(g) * inv),)

    return apply_op("mean_all", (x,), out, bwd)


def logsumexp_rows(x: Tensor) -> Tensor:
    """Stable log-sum-exp over the last axis."""
    out = _logsumexp(x.data, axis=-1)
    soft = _softmax(x.data, axis=-1)

    def bwd(g):
        return (g[..., None] * soft,)

    return apply_op("logsumexp", (x,), out, bwd)


def take_rows(x: Tensor, index: np.ndarray) -> Tensor:
    """Pick x[i, index[i]] from a (B, K) tensor -> (B,)."""
    if x.ndim != 2:
        raise ShapeError(f"take_rows expects a matrix, got {x.shape}")
    idx = np.asarray(index, dtype=np.int64)
    if idx.ndim != 1 or idx.shape[0] != x.shape[0]:
        raise ShapeError(f"take_rows index shape {idx.shape} mismatches {x.shape}")
    if idx.min(initial=0) < 0 or idx.max(initial=0) >= x.shape[1]:
        raise ShapeError("take_rows index out of class range")
    rows = np.arange(x.shape[0])
    out = x.data[rows, idx]

    def bwd(g):
        gx = np.zeros(x.shape)
        gx[rows, idx] = g
        return (gx,)

    return apply_op("take_rows", (x,), out, bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability p, rescale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return hadamard(x, Tensor(mask))
