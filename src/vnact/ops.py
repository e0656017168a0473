"""Every tape rule that is not a plain elementwise op: linear maps, convolutions,
pooling, reductions, the loss and the fused backbone and recurrent rules, one
rule per concept.

The models call every operation on batched arrays only: (B, F) feature
rows, (B, C, H, W) maps and (B, C, T, H, W) stacks. An operation works on
the trailing axes it names and treats the leading ones as batch
(``matmul`` takes (..., K)); ``cross_entropy`` and ``gru_step`` take
exactly (B, ·) rows.
Convolution uses cross-correlation semantics with zero padding; reductions
use numpy's fixed deterministic accumulation so replays are bit-identical.

conv2d and conv3d are one same-padded correlation over the trailing axes
(im2col, matmul, col2im), run over the batch in tiles whose column matrix
holds about ``_TILE_ENTRIES`` floats (2 MiB, an L2 cache), so no
temporary grows with the batch. im2col copies each sample once into a
row with one trailing zero slot and gathers the columns with ``np.take``
through a cached index table, one per (channels, extent, kernel), that
sends every padding entry to the zero slot. col2im scatters back through
the same table with ``np.bincount``, which adds in memory order, so every
pixel starts at 0.0 and receives its kernel offsets in nested order: the
bits of a per-pixel loop. The backward rules keep the unpadded input and
rebuild each tile's columns when run, rather than hold a 9× or 27× copy
of the input until backward; the kernel gradient adds the per-sample
products in sample order, across tiles too, as a whole-batch
``sum(axis=0)`` does, so tiling keeps every bit. A rule skips the
gradient of an input or kernel that is not grad-enabled (raw frames and
flow, frozen parameters): no matmul and no col2im runs for it.
``avg_pool2x2`` adds its four strided quarters in place, in the order
numpy's mean uses, so the faster forward gives the same bits; its
backward writes g·0.25 into the four quarters.

``cross_entropy``, ``bias_relu`` (a backbone stage's bias add and relu;
its ``conv2d`` stays its own node), ``hf_mix`` (an HF block), the cell
rules ``gate_update`` and ``gate_output`` and ``gru_step`` are fused nodes
with hand-written rules that add their adjoints in the order the per-op
tape did, so they keep its bits. :mod:`vnact.cells` and :mod:`vnact.hftsn`
hold the parameters and call these rules; they record no node themselves.
"""

from __future__ import annotations

import functools
import math
from typing import Optional

import numpy as np
from scipy.special import expit, logsumexp as _logsumexp, softmax as _softmax

from .errors import NonFiniteError, ShapeError, ValidationError
from .tensor import Tensor, _unbroadcast, add, apply_op, hadamard

# Column entries per batch tile of a convolution: 2 MiB of float64.
_TILE_ENTRIES = 1 << 18

# ---------------------------------------------------------------------------
# linear algebra


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of 2-D arrays on a multiple of 4 rows (zero rows pad it): numpy
    hands one row to a matrix-vector routine, and a short tail of rows takes
    another kernel path, each rounding unlike the same row in a taller product."""
    pad = -a.shape[0] % 4
    if pad:
        return (np.concatenate([a, np.zeros((pad, a.shape[1]))]) @ b)[:-pad]
    return a @ b


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(..., K) by (K, N), one 2-D product over the flattened leading axes."""
    if a.ndim < 2 or b.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ShapeError(f"matmul expects (..., K) by (K, N), got {a.shape} and {b.shape}")
    ad, bd, n = a.data.reshape(-1, b.shape[0]), b.data, b.shape[1]
    out = _product(ad, bd).reshape(*a.shape[:-1], n)

    def bwd(g):
        g2 = g.reshape(-1, n)
        return (g2 @ bd.T).reshape(a.shape), ad.T @ g2

    return apply_op("matmul", (a, b), out, bwd)


def affine(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias for x of shape (..., F), weight (F, K), bias (K,)."""
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
    """Adjoint of :func:`_im2col`: (B, C·∏k, ∏S) columns back to a (B, C, *S) array."""
    if not any(pads):
        return gcols.reshape(shape)
    b, c, *spatial = shape
    index = _column_index(c, tuple(spatial), ks, pads)
    slots = c * index.shape[1] + 1
    shifted = index + slots * np.arange(b)[:, None, None]
    sums = np.bincount(shifted.ravel(), gcols.ravel(), b * slots)
    return sums.reshape(b, slots)[:, :-1].reshape(shape)


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
    b, size = math.prod(lead), math.prod(spatial)
    xb, kflat = x.data.reshape(b, c, *spatial), kernel.data.reshape(co, -1)
    step = max(1, min(b, _TILE_ENTRIES // (kflat.shape[1] * size)))
    tiles = [slice(start, start + step) for start in range(0, b, step)]
    out = np.empty((b, co, size))
    for t in tiles:
        np.matmul(kflat, _im2col(xb[t], ks, pads), out=out[t])

    need_gx, need_gk = x.grad_enabled, kernel.grad_enabled

    def bwd(g):
        gb = g.reshape(b, co, size)
        gx = np.empty(xb.shape) if need_gx else None
        # Row 0 carries the running kernel gradient into the next tile's sum;
        # numpy's sum(axis=0) adds rows in order (for more than one entry a row).
        prods = np.empty((step + 1, co, kflat.shape[1])) if need_gk else None
        gk = None
        for t in tiles:
            n = len(gb[t])
            if need_gk:
                np.matmul(gb[t], _im2col(xb[t], ks, pads).transpose(0, 2, 1), out=prods[1:n + 1])
                if gk is None:
                    gk = prods[1:n + 1].sum(axis=0)
                else:
                    prods[0] = gk
                    gk = prods[:n + 1].sum(axis=0)
            if need_gx:
                gx[t] = _col2im(np.matmul(kflat.T, gb[t]), (n, c, *spatial), ks, pads)
        return (None if gx is None else gx.reshape(x.shape),
                None if gk is None else gk.reshape(kernel.shape))

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


def softmax_spatial(x: Tensor, total: float) -> Tensor:
    """exp(x − max) · total / Σexp over the H×W grid of a (..., 1, H, W) map.

    At total 1.0 (LSTA) this is scipy's softmax bit for bit; at H·W (motion
    attention) a constant map gives exactly 1.0, as the quotient's operands
    are then one float.
    """
    if x.ndim < 3 or x.shape[-3] != 1:
        raise ShapeError(f"softmax_spatial expects (..., 1, H, W), got {x.shape}")
    if not np.isfinite(x.data).all():
        raise NonFiniteError("softmax_spatial: non-finite input")
    e = np.exp(x.data - x.data.max(axis=(-2, -1), keepdims=True))
    out = e * total / e.sum(axis=(-2, -1), keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=(-2, -1), keepdims=True)
        return (out * (g - inner / total),)

    return apply_op("softmax_spatial", (x,), out, bwd)


def avg_pool2x2(x: Tensor) -> Tensor:
    """2×2 mean downsampling of (..., C, H, W); H and W must be even."""
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2x2 needs even spatial extents, got {h}x{w}")
    xd, shape = x.data, x.shape
    out = xd[..., 0::2, 0::2] + xd[..., 0::2, 1::2]
    # The summation order of numpy's reshape(..., 2, ..., 2).mean(axis=(-3, -1)),
    # kept bit for bit: in pairs, or in memory order when W pools to one column.
    if w > 2:
        out += xd[..., 1::2, 0::2] + xd[..., 1::2, 1::2]
    else:
        out += xd[..., 1::2, 0::2]
        out += xd[..., 1::2, 1::2]
    out *= 0.25

    def bwd(g):
        gx = np.empty(shape)
        gx[..., ::2, ::2] = gx[..., ::2, 1::2] = gx[..., 1::2, ::2] = gx[..., 1::2, 1::2] = g * 0.25
        return (gx,)

    return apply_op("avg_pool2x2", (x,), out, bwd)


# ---------------------------------------------------------------------------
# shape manipulation


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


def index_select(x: Tensor, axis: int, index: int) -> Tensor:
    """Pick one slice along ``axis``, dropping that axis."""
    n = x.shape[axis]
    if not 0 <= index < n:
        raise ShapeError(f"index {index} out of range for extent {n}")
    sl = [slice(None)] * x.ndim
    sl[axis] = index
    shape = x.shape

    def bwd(g):
        gx = np.zeros(shape)
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
    inv, shape = 1.0 / count, x.shape

    def bwd(g):
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp * inv, shape).copy(),)

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
# fused backbone glue


def bias_relu(x: Tensor, bias: Tensor) -> Tensor:
    """relu(x + bias) of (..., C, H, W) and a per-channel (C,) bias, as one node.

    The sum is clamped in place; the backward is the mask product, then the
    bias sum through ``_unbroadcast``, in the order of a separate add and
    relu, so gradients keep their bits.
    """
    if x.ndim < 3 or bias.shape != x.shape[-3:-2]:
        raise ShapeError(f"bias_relu: bias {bias.shape} for input {x.shape}")
    c, b = bias.shape[0], bias.data.reshape(-1, 1, 1)
    with np.errstate(over="ignore"):
        out = x.data + b
    # The clamp would hide a sum of -inf from apply_op's finiteness check.
    if not out.min(initial=np.inf) > -np.inf:
        raise NonFiniteError("operation 'bias_relu' produced non-finite values")
    mask = out > 0.0
    np.maximum(out, 0.0, out=out)

    def bwd(g):
        gx = g * mask
        return gx, _unbroadcast(gx, b.shape).reshape(c)

    return apply_op("bias_relu", (x, bias), out, bwd)


def hf_mix(f: Tensor, w0: Tensor, w1: Tensor) -> Tensor:
    """G_t = w0·F_t + w1·F_{t+1} of frames (B, T, C, H, W) and (C,) weights, as one node.

    The last frame keeps the ``+ 0·w1`` of the per-op tape's zero successor
    frame, signed zeros included; at T = 1 w1 gets no gradient. The backward
    adds f's two adjoint parts as that tape did when the block was f's only
    consumer (``0.0 +`` at t = 0), and skips them for an f without gradient.
    """
    c, single = f.shape[2], f.shape[1] == 1
    fd, a, b = f.data, w0.data.reshape(c, 1, 1), w1.data.reshape(c, 1, 1)
    with np.errstate(over="ignore"):
        out = fd * a
        if not single:
            out[:, :-1] += fd[:, 1:] * b
            out[:, -1] += 0.0 * b

    def bwd(g):
        gw0 = _unbroadcast(g * fd, a.shape).reshape(c)
        gf = g * a if f.grad_enabled else None
        if single:
            return gf, gw0, None
        if gf is not None:
            gf[:, 1:] += g[:, :-1] * b
            gf[:, 0] += 0.0
        gs = np.empty(fd.shape)
        gs[:, :-1] = g[:, :-1] * fd[:, 1:]
        gs[:, -1] = g[:, -1] * 0.0
        return gf, gw0, _unbroadcast(gs, b.shape).reshape(c)

    return apply_op("hf_mix", (f, w0, w1), out, bwd)


# ---------------------------------------------------------------------------
# fused recurrent cells


def _gate_preactivations(kind, z, gate_bias, bias, state, first, count):
    """``count`` gates from gate ``first`` of z + gate bias + bias map, each contiguous,
    with D and the parents. The bias map has z's exact shape, c or m one gate's."""
    d = gate_bias.shape[0] // 4
    if not (gate_bias.shape == (4 * d,) and z.ndim >= 3 and z.shape[-3] == 4 * d
            and (bias is None or bias.shape == z.shape)
            and state.shape == z.shape[:-3] + (d,) + z.shape[-2:]):
        raise ShapeError(f"{kind}: pre-activations {z.shape}, gate bias {gate_bias.shape}, "
                         f"bias map {None if bias is None else bias.shape}, state {state.shape}")
    ch = slice(first * d, (first + count) * d)
    zd = z.data[..., ch, :, :] + gate_bias.data[ch].reshape(-1, 1, 1)
    if bias is not None:
        zd = zd + bias.data[..., ch, :, :]
    gates = [np.ascontiguousarray(zd[..., k * d:(k + 1) * d, :, :]) for k in range(count)]
    return gates, d, (z, gate_bias) + ((bias,) if bias is not None else ())


def _pre_adjoints(dz, d, biased):
    gb = _unbroadcast(dz, (4 * d, 1, 1)).reshape(4 * d)
    return (dz, gb, dz) if biased else (dz, gb)


def gate_update(z: Tensor, gate_bias: Tensor, c: Tensor, bias: Optional[Tensor]) -> Tensor:
    """Next memory f ⊙ c + i ⊙ g of both convolutional cells, as one node.

    z (..., 4D, H, W) holds the (input, forget, candidate, output) gates'
    pre-activations before the gate bias (4D,) and the bias map are added.
    """
    (zi, zf, zg), d, pre = _gate_preactivations("gate_update", z, gate_bias, bias, c, 0, 3)
    i, f, g, cd = expit(zi), expit(zf), np.tanh(zg), c.data
    shape, biased = z.shape, bias is not None

    def bwd(gc):
        dz = np.zeros(shape)
        dz[..., 2 * d:3 * d, :, :] += gc * i * (1.0 - g * g)
        dz[..., d:2 * d, :, :] += gc * cd * f * (1.0 - f)
        dz[..., :d, :, :] += gc * g * i * (1.0 - i)
        return (gc * f, *_pre_adjoints(dz, d, biased))

    return apply_op("gate_update", (c,) + pre, f * cd + i * g, bwd)


def gate_output(z: Tensor, gate_bias: Tensor, bias: Optional[Tensor], m: Tensor) -> Tensor:
    """Hidden map σ(z_o + b_o + bias_o) ⊙ tanh(m) of both convolutional cells, as one node;
    m is the memory (ConvLSTM) or its 1×1-mixed copy (LSTA)."""
    (zo,), d, pre = _gate_preactivations("gate_output", z, gate_bias, bias, m, 3, 1)
    o, tm = expit(zo), np.tanh(m.data)
    shape, biased = z.shape, bias is not None

    def bwd(gh):
        dz = np.zeros(shape)
        dz[..., 3 * d:, :, :] += gh * tm * o * (1.0 - o)
        dm = gh * o * (1.0 - tm * tm)
        return (*_pre_adjoints(dz, d, biased), dm)

    return apply_op("gate_output", pre + (m,), o * tm, bwd)


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
    z = expit(_product(xh, p.w_update.data) + p.b_update.data)
    r = expit(_product(xh, p.w_reset.data) + p.b_reset.data)
    xrh = np.concatenate([xd, r * hd], 1)
    n = np.tanh(_product(xrh, p.w_cand.data) + p.b_cand.data)
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
