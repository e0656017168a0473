"""Every tape rule that is not elementwise: linear maps, convolutions, pooling,
reductions, the loss and the fused recurrent cells, one rule per concept.

All operations accept the per-sample ranks used throughout the package
(matrices, C×H×W maps, C×T×H×W stacks) and, where noted, extra leading
axes that are treated as batch dimensions. Convolution uses cross-
correlation semantics with zero padding; reductions use numpy's fixed
deterministic accumulation so replays are bit-identical.

conv2d and conv3d are one same-padded correlation over the trailing axes
(im2col, one matmul, col2im). im2col copies each sample once into a row
with one trailing zero slot and gathers the columns with ``np.take``
through a cached index table, one per (channels, extent, kernel), that
sends every padding entry to the zero slot. col2im scatters back through
the same table with ``np.bincount``, which adds in memory order, so every
pixel starts at 0.0 and receives its kernel offsets in nested order: the
bits of a per-pixel loop. The backward rules keep the unpadded input and
rebuild the columns when run, rather than hold a 9× or 27× copy of the
input until backward. A rule skips the gradient of an input or kernel
that is not grad-enabled (raw frames and flow, frozen parameters): no
matmul and no col2im runs for it. ``avg_pool2x2`` adds its four strided
quarters in the order numpy's mean uses, so the faster forward gives the
same bits.

``cross_entropy``, ``gate_update`` and ``gru_step`` are fused nodes with
hand-written rules that add their adjoints in the order the equivalent
per-op tape did, so they keep its bits. :mod:`vnact.cells` holds the cell
parameters and the rollout and calls these rules; it records no node itself.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np
from scipy.special import expit, logsumexp as _logsumexp, softmax as _softmax

from .errors import NonFiniteError, ShapeError, ValidationError
from .tensor import Tensor, _check_broadcastable, _unbroadcast, add, apply_op, hadamard

# Column entries scattered per np.bincount call in _col2im.
_SCATTER_ENTRIES = 1 << 18

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


@functools.lru_cache(maxsize=64)
def _column_index(c: int, spatial: tuple, ks: tuple, pads: tuple) -> np.ndarray:
    """Source slot of every column entry, (C·∏k, ∏S), in a (C·∏S + 1) row
    whose last slot is the zero padding."""
    n = int(np.prod(spatial))
    src = (np.indices(ks).reshape(len(ks), -1, 1) - np.array(pads)[:, None, None]
           + np.indices(spatial).reshape(len(spatial), 1, -1))
    inside = np.all((src >= 0) & (src < np.array(spatial)[:, None, None]), axis=0)
    flat = np.ravel_multi_index(tuple(np.where(inside, src, 0)), spatial)
    index = np.where(inside, flat + n * np.arange(c)[:, None, None], c * n).reshape(-1, n)
    index.flags.writeable = False
    return index


def _im2col(xb: np.ndarray, ks: tuple, pads: tuple) -> np.ndarray:
    """Columns (B, C·∏k, ∏S) of a (B, C, *S) array for a same-padded kernel."""
    b, c, *spatial = xb.shape
    if not any(pads):
        return xb.reshape(b, c, -1)
    slotted = np.zeros((b, xb[0].size + 1))
    slotted[:, :-1] = xb.reshape(b, -1)
    return np.take(slotted, _column_index(c, tuple(spatial), ks, pads), axis=1)


def _col2im(gcols: np.ndarray, shape: tuple, ks: tuple, pads: tuple) -> np.ndarray:
    """Adjoint of :func:`_im2col`: (B, C·∏k, ∏S) columns back to a (B, C, *S) array,
    scattered a few samples at a time so the shifted index stays small."""
    if not any(pads):
        return gcols.reshape(shape)
    b, c, *spatial = shape
    index = _column_index(c, tuple(spatial), ks, pads)
    slots = c * index.shape[1] + 1
    out = np.empty((b, slots - 1))
    step = max(1, _SCATTER_ENTRIES // index.size)
    for start in range(0, b, step):
        part = gcols[start:start + step]
        shifted = index + slots * np.arange(len(part))[:, None, None]
        sums = np.bincount(shifted.ravel(), part.ravel(), len(part) * slots)
        out[start:start + len(part)] = sums.reshape(len(part), slots)[:, :-1]
    return out.reshape(shape)


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
# reductions, the loss and dropout


def mean_along(x: Tensor, axis) -> Tensor:
    """Mean over ``axis``: an int, a tuple of ints, or None for every axis."""
    axis = tuple(range(x.ndim)) if axis is None else tuple(np.atleast_1d(axis).tolist())
    count = int(np.prod([x.shape[a] for a in axis]))
    out = x.data.mean(axis=axis)
    inv = 1.0 / count

    def bwd(g):
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp * inv, x.shape).copy(),)

    return apply_op("mean", (x,), out, bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of (B, K) logits against B integer labels.

    One node: the forward is the mean over rows of logsumexp(row) minus the
    labelled logit. The backward adds the two parts of the logits' adjoint
    in the order a per-op tape of logsumexp, pick, subtract and mean summed
    them, the scattered −1/B at the labels first, so gradients keep their bits.
    """
    if logits.ndim != 2:
        raise ShapeError(f"expected (B, K) logits, got {logits.shape}")
    idx = np.asarray(labels, dtype=np.int64)
    if idx.min(initial=0) < 0 or idx.max(initial=-1) >= logits.shape[1]:
        raise ValidationError(f"label outside class range [0, {logits.shape[1]})")
    if idx.shape != logits.shape[:1]:
        raise ShapeError(f"label shape {idx.shape} mismatches logits {logits.shape}")
    xd, rows = logits.data, np.arange(logits.shape[0])
    with np.errstate(over="ignore"):
        per = _logsumexp(xd, axis=-1) - xd[rows, idx]
    inv = 1.0 / per.size

    def bwd(g):
        gm = np.full(per.shape, float(g) * inv)
        take = np.zeros(xd.shape)
        take[rows, idx] = -gm
        return (take + gm[:, None] * _softmax(xd, axis=-1),)

    return apply_op("cross_entropy", (logits,), np.asarray(per.mean()), bwd)


def dropout(x: Tensor, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: zero entries with probability p, rescale by 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return hadamard(x, Tensor(mask))


# ---------------------------------------------------------------------------
# fused recurrent cells


def gate_update(z: Tensor, gate_bias: Tensor, c: Tensor, bias: Optional[Tensor]):
    """The four-gate update of both convolutional cells, as two tape nodes.

    Adds the per-gate bias vector (4D,) and any external bias map to the
    gate pre-activations z (..., 4D, H, W), split along the channel axis as
    (input, forget, candidate, output), and returns the next memory and the
    output gate. The ``gate_update`` node reads the first three gates and c;
    the ``gate_output`` node reads the output gate alone. Each fills only its
    own slice of dz and leaves the other's zero, so the tape's sum of the two
    is exact. The rules repeat the per-op tape's expressions in its order, so
    gradients keep their bits.
    """
    d = gate_bias.shape[0] // 4
    zd = z.data + gate_bias.data.reshape(4 * d, 1, 1)
    pre = (z, gate_bias) + ((bias,) if bias is not None else ())
    if bias is not None:
        _check_broadcastable(zd, bias.data, "gate bias")
        zd = zd + bias.data
    gates = [np.ascontiguousarray(zd[..., k * d:(k + 1) * d, :, :]) for k in range(4)]
    i, f, g, o = expit(gates[0]), expit(gates[1]), np.tanh(gates[2]), expit(gates[3])
    cd, shape, pre_shapes = c.data, zd.shape, [t.shape for t in pre]

    def pre_adjoints(dz):
        zs, gbs, *bs = pre_shapes
        return (_unbroadcast(dz, zs), _unbroadcast(dz, (4 * d, 1, 1)).reshape(gbs),
                *(_unbroadcast(dz, s) for s in bs))

    def update_bwd(gc):
        dz = np.zeros(shape)
        dz[..., 2 * d:3 * d, :, :] += gc * i * (1.0 - g * g)
        dz[..., d:2 * d, :, :] += gc * cd * f * (1.0 - f)
        dz[..., :d, :, :] += gc * g * i * (1.0 - i)
        return (_unbroadcast(gc * f, cd.shape), *pre_adjoints(dz))

    def output_bwd(go):
        dz = np.zeros(shape)
        dz[..., 3 * d:, :, :] += go * o * (1.0 - o)
        return pre_adjoints(dz)

    return (apply_op("gate_update", (c,) + pre, f * cd + i * g, update_bwd),
            apply_op("gate_output", pre, o, output_bwd))


def gru_step(x: Tensor, h: Tensor, params) -> Tensor:
    """One gated-recurrence step on x (B, C) with state h (B, D), as one tape node.

    ``params`` is a :class:`vnact.cells.GruParams`. The backward rule repeats
    the per-op tape's expressions in its order; x and h are parents once per
    use, so their adjoints add up in that order too.
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
