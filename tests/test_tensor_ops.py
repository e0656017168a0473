"""Forward-value tests for the tensor primitives and structural ops."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import softmax as scipy_softmax

from vnact.errors import NonFiniteError, ShapeError, ValidationError
from vnact.ops import (
    avg_pool2x2,
    affine,
    concat,
    conv2d,
    conv3d,
    dropout,
    index_select,
    cross_entropy,
    matmul,
    mean_along,
    softmax_spatial,
    transpose,
)
from vnact.tensor import Tape, Tensor, _unbroadcast, add, hadamard, scale


def dyadic(rng, shape, denom=8, span=8):
    """Small multiples of 1/denom: sums of these are association-independent."""
    return rng.integers(-span, span + 1, size=shape) / float(denom)


# ---------------------------------------------------------------------------
# tensor basics


def test_tensor_is_float64_and_readonly():
    t = Tensor([[1, 2], [3, 4]])
    assert t.data.dtype == np.float64
    assert not t.data.flags.writeable
    with pytest.raises(ValueError):
        t.data[0, 0] = 9.0


def test_tensor_copies_its_input():
    src = np.ones((2, 2))
    t = Tensor(src)
    src[0, 0] = 5.0
    assert t.data[0, 0] == 1.0


def test_item():
    assert Tensor([[2.5]]).item() == 2.5
    with pytest.raises(ShapeError):
        Tensor(np.zeros((2, 2))).item()


def test_elementwise_ops_match_numpy():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    a, b = Tensor(x), Tensor(y)
    assert np.array_equal(add(a, b).data, x + y)
    assert np.array_equal(hadamard(a, b).data, x * y)
    assert np.array_equal(scale(a, 2.5).data, x * 2.5)


def test_broadcast_rules():
    a = Tensor(np.ones((4, 3)))
    bias = Tensor(np.arange(3.0))
    assert np.array_equal(add(a, bias).data, np.ones((4, 3)) + np.arange(3.0))
    with pytest.raises(ShapeError):
        add(a, Tensor(np.ones((4, 2))))


def test_nonfinite_forward_raises():
    big = Tensor(np.full((2, 2), 1e308))
    with pytest.raises(NonFiniteError):
        add(big, big)
    with pytest.raises(NonFiniteError):
        scale(Tensor([np.nan]), 2.0)


@st.composite
def broadcast_shapes(draw):
    """A shape and a shape it broadcasts to: leading axes added, unit axes grown."""
    shape = tuple(draw(st.lists(st.integers(1, 3), max_size=3)))
    lead = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    return shape, lead + tuple(draw(st.integers(1, 3)) if n == 1 else n for n in shape)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(shapes=broadcast_shapes(), seed=st.integers(0, 2**16))
def test_unbroadcast_is_the_adjoint_of_broadcasting(shapes, seed):
    """<g, broadcast_to(x)> = <_unbroadcast(g), x>: the reduction is the
    transpose of numpy broadcasting, so every gradient of a broadcast operand
    has that operand's shape."""
    shape, wide = shapes
    rng = np.random.default_rng(seed)
    g, x = rng.normal(size=wide), rng.normal(size=shape)
    reduced = _unbroadcast(g, shape)
    assert np.shape(reduced) == shape
    terms = g * np.broadcast_to(x, wide)
    assert abs(np.sum(terms) - np.sum(reduced * x)) <= 1e-12 * np.sum(np.abs(terms))


# ---------------------------------------------------------------------------
# linear algebra


def test_matmul_matches_numpy():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
    assert np.array_equal(matmul(Tensor(a), Tensor(b)).data, a @ b)
    with pytest.raises(ShapeError):
        matmul(Tensor(a), Tensor(a))
    with pytest.raises(ShapeError):
        matmul(Tensor(np.ones(7)), Tensor(b))
    with pytest.raises(ShapeError):
        matmul(Tensor(rng.normal(size=(2, 5, 3))), Tensor(b))

    # Leading axes: the forward and both adjoints are, bit for bit, the 2-D
    # product of the flattened input.
    a3, g = rng.normal(size=(2, 5, 7)), rng.normal(size=(2, 5, 3))
    flat = a3.reshape(10, 7)
    with Tape() as tape:
        out = matmul(Tensor(a3, grad_enabled=True), Tensor(b, grad_enabled=True))
    assert out.data.tobytes() == (flat @ b).reshape(2, 5, 3).tobytes()
    ga, gb = tape.nodes[tape.node_of(out)].backward(g)
    g2 = g.reshape(10, 3)
    assert ga.tobytes() == (g2 @ b.T).reshape(2, 5, 7).tobytes()
    assert gb.tobytes() == (flat.T @ g2).tobytes()


def test_affine_matches_numpy():
    rng = np.random.default_rng(3)
    x, w, b = rng.normal(size=(4, 6)), rng.normal(size=(6, 2)), rng.normal(size=2)
    assert np.allclose(affine(Tensor(x), Tensor(w), Tensor(b)).data, x @ w + b, atol=0, rtol=0)


# ---------------------------------------------------------------------------
# convolution against loop oracles


def conv2d_oracle(x, k, pad):
    co, c, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
    out = np.zeros((co, ho, wo))
    for o in range(co):
        for i in range(ho):
            for j in range(wo):
                out[o, i, j] = np.sum(xp[:, i : i + kh, j : j + kw] * k[o])
    return out


def conv3d_oracle(x, k, pad):
    co, c, kt, kh, kw = k.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (pad, pad)))
    to, ho, wo = (xp.shape[1] - kt + 1, xp.shape[2] - kh + 1, xp.shape[3] - kw + 1)
    out = np.zeros((co, to, ho, wo))
    for o in range(co):
        for s in range(to):
            for i in range(ho):
                for j in range(wo):
                    out[o, s, i, j] = np.sum(xp[:, s : s + kt, i : i + kh, j : j + kw] * k[o])
    return out


def test_conv2d_same_padding_matches_oracle_exactly():
    rng = np.random.default_rng(4)
    x = dyadic(rng, (3, 6, 5))
    k = dyadic(rng, (4, 3, 3, 3))
    out = conv2d(Tensor(x), Tensor(k))
    assert out.shape == (4, 6, 5)
    assert np.array_equal(out.data, conv2d_oracle(x, k, pad=1))


def test_conv2d_batched_leading_axes():
    rng = np.random.default_rng(6)
    x = dyadic(rng, (2, 3, 2, 4, 4))
    k = dyadic(rng, (5, 2, 3, 3))
    out = conv2d(Tensor(x), Tensor(k))
    assert out.shape == (2, 3, 5, 4, 4)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(out.data[i, j], conv2d_oracle(x[i, j], k, pad=1))


def test_conv2d_shape_errors():
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 5, 3, 3))))
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((3, 4, 4))), Tensor(np.ones((2, 3, 2, 2))))  # even kernel
    with pytest.raises(ShapeError):
        conv2d(Tensor(np.ones((3, 4))), Tensor(np.ones((2, 3, 3, 3))))


def test_conv3d_same_padding_matches_oracle_exactly():
    rng = np.random.default_rng(7)
    x = dyadic(rng, (2, 4, 5, 5))
    k = dyadic(rng, (3, 2, 3, 3, 3))
    out = conv3d(Tensor(x), Tensor(k))
    assert out.shape == (3, 4, 5, 5)
    assert np.array_equal(out.data, conv3d_oracle(x, k, pad=1))


def test_conv3d_batched_and_1x1x1():
    rng = np.random.default_rng(8)
    x = dyadic(rng, (2, 3, 2, 3, 3))
    k = dyadic(rng, (4, 3, 1, 1, 1))
    out = conv3d(Tensor(x), Tensor(k))
    assert out.shape == (2, 4, 2, 3, 3)
    # A 1×1×1 kernel is a per-voxel channel mix.
    ref = np.einsum("oc,bcthw->bothw", k[:, :, 0, 0, 0], x)
    assert np.allclose(out.data, ref, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# spatial softmax and pooling


def test_softmax_spatial_sums_to_one():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(4, 1, 6, 5)) * 3.0
    out = softmax_spatial(Tensor(x), 1.0)
    sums = out.data.sum(axis=(-2, -1))
    assert np.max(np.abs(sums - 1.0)) <= 1e-12
    assert (out.data > 0).all()


def test_softmax_spatial_shift_invariance_and_shape_check():
    x = np.array([[[0.0, 1.0], [2.0, 3.0]]])
    a = softmax_spatial(Tensor(x), 1.0).data
    b = softmax_spatial(Tensor(x + 100.0), 1.0).data
    assert np.allclose(a, b, atol=1e-15, rtol=0)
    with pytest.raises(ShapeError):
        softmax_spatial(Tensor(np.ones((2, 3, 3))), 1.0)
    with pytest.raises(NonFiniteError):
        softmax_spatial(Tensor(np.array([[[np.inf, 0.0], [0.0, 0.0]]])), 1.0)


def test_softmax_spatial_scaled_constant_map_is_exactly_one():
    """Scaled to H·W, a constant map gives exactly 1.0 everywhere."""
    for h, w in [(2, 2), (3, 5), (7, 7), (16, 16)]:
        x = Tensor(np.full((1, h, w), -4.25))
        out = softmax_spatial(x, h * w)
        assert np.array_equal(out.data, np.ones((1, h, w)))


def test_softmax_spatial_scaled_equals_softmax_times_area():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 1, 4, 6))
    scaled = softmax_spatial(Tensor(x), 24.0).data
    plain = softmax_spatial(Tensor(x), 1.0).data * 24.0
    assert np.allclose(scaled, plain, rtol=1e-14, atol=1e-14)
    assert np.max(np.abs(scaled.sum(axis=(-2, -1)) / 24.0 - 1.0)) <= 1e-12


def test_softmax_spatial_total_one_is_scipy_softmax_bit_for_bit():
    """At total 1.0 the forward is scipy's softmax and the backward the plain
    softmax adjoint out·(g − Σ g·out), bit for bit."""
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(3, 2, 1, 5, 4)) * 4.0, grad_enabled=True)
    g = rng.normal(size=x.shape)
    with Tape() as tape:
        out = softmax_spatial(x, 1.0)
    ref = scipy_softmax(x.data, axis=(-2, -1))
    assert out.data.tobytes() == ref.tobytes()
    (gx,) = tape.nodes[tape.node_of(out)].backward(g)
    assert gx.tobytes() == (ref * (g - (g * ref).sum(axis=(-2, -1), keepdims=True))).tobytes()


def test_spatial_avg_pool_and_avg_pool2x2():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(2, 3, 4, 6))
    assert np.array_equal(mean_along(Tensor(x), (-2, -1)).data, x.mean(axis=(-2, -1)))
    pooled = avg_pool2x2(Tensor(x))
    assert pooled.shape == (2, 3, 2, 3)
    assert np.allclose(
        pooled.data, x.reshape(2, 3, 2, 2, 3, 2).mean(axis=(3, 5)), rtol=0, atol=0
    )
    with pytest.raises(ShapeError):
        avg_pool2x2(Tensor(np.ones((1, 3, 4))))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lead=st.lists(st.integers(1, 4), max_size=2).map(tuple), c=st.integers(1, 4),
       h=st.integers(1, 4), w=st.integers(1, 5), seed=st.integers(0, 2**16))
def test_avg_pool2x2_is_bitwise_the_reshaped_mean(lead, c, h, w, seed):
    # numpy sums a 2×2 window in pairs, or in memory order when W is 2.
    x = np.random.default_rng(seed).normal(size=lead + (c, 2 * h, 2 * w))
    ref = x.reshape(*lead, c, h, 2, w, 2).mean(axis=(-3, -1))
    assert np.array_equal(avg_pool2x2(Tensor(x)).data.view(np.int64), ref.view(np.int64))


# ---------------------------------------------------------------------------
# shape manipulation


def test_transpose_roundtrip():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(2, 3, 4))
    t = transpose(Tensor(x), (2, 0, 1))
    assert np.array_equal(t.data, x.transpose(2, 0, 1))
    assert np.array_equal(transpose(t, (1, 2, 0)).data, x)


def test_concat_narrow_index_select():
    """concat joins its parts, its rule narrows an adjoint back to each part,
    and index_select picks one slice."""
    rng = np.random.default_rng(13)
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 2))
    for axis in (1, -1):
        with Tape() as tape:
            cat = concat([Tensor(a, grad_enabled=True), Tensor(b, grad_enabled=True)], axis=axis)
        assert np.array_equal(cat.data, np.concatenate([a, b], axis=1))
        parts = tape.nodes[tape.node_of(cat)].backward(cat.data)
        assert [p.tolist() for p in parts] == [a.tolist(), b.tolist()]
    assert np.array_equal(index_select(cat, 0, 1).data, np.concatenate([a, b], axis=1)[1])
    assert np.array_equal(index_select(cat, 1, 3).data, b[:, 0])
    with pytest.raises(ShapeError):
        index_select(cat, 1, 5)
    with pytest.raises(ShapeError):
        index_select(cat, 0, 2)
    with pytest.raises(ShapeError):
        concat([], axis=0)


# ---------------------------------------------------------------------------
# reductions


def test_reductions_match_numpy():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(3, 4, 5))
    t = Tensor(x)
    assert np.array_equal(mean_along(t, 2).data, x.mean(axis=2))
    assert np.array_equal(mean_along(t, None).data, np.asarray(x.mean()))


def test_logsumexp_rows_stable_and_correct():
    # cross_entropy's logsumexp over rows, against numpy.
    rng = np.random.default_rng(15)
    x = rng.normal(size=(6, 9))
    idx = np.array([2, 0, 8, 3, 3, 5])
    out = cross_entropy(Tensor(x), idx)
    ref = np.log(np.exp(x).sum(axis=-1)) - x[np.arange(6), idx]
    assert out.shape == ()
    assert np.allclose(out.data, ref.mean(), rtol=1e-12, atol=1e-12)
    # Stability: huge logits must not overflow.
    big = cross_entropy(Tensor(np.array([[1000.0, 1000.0]])), np.array([1]))
    assert np.allclose(big.data, np.log(2.0))


def test_take_rows():
    # cross_entropy picks the labelled logit of each row.
    x = np.arange(12.0).reshape(3, 4)
    idx = np.array([2, 0, 3])
    out = cross_entropy(Tensor(x), idx)
    picked = np.array([2.0, 4.0, 11.0])
    ref = np.log(np.exp(x).sum(axis=-1)) - picked
    assert np.allclose(out.data, ref.mean(), rtol=1e-12, atol=1e-12)
    # The label count must match the batch; labels outside [0, K) are refused.
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(x), np.array([0, 1]))
    with pytest.raises(ValidationError):
        cross_entropy(Tensor(x), np.array([0, 1, 4]))
    y = np.random.default_rng(15).normal(size=(6, 9))
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(y), np.array([2, 0]))
    with pytest.raises(ValidationError):
        cross_entropy(Tensor(y), np.array([0, 1, 9, 0, 0, 0]))


# ---------------------------------------------------------------------------
# dropout


def test_dropout_zero_p_is_identity():
    x = Tensor(np.ones((4, 4)))
    out = dropout(x, 0.0, np.random.default_rng(0))
    assert out is x


def test_dropout_mask_values_and_rate():
    rng = np.random.default_rng(16)
    x = Tensor(np.ones((200, 50)))
    p = 0.3
    out = dropout(x, p, rng)
    vals = np.unique(out.data)
    assert set(np.round(vals, 12)) <= {0.0, np.round(1.0 / (1.0 - p), 12)}
    drop_rate = (out.data == 0.0).mean()
    assert abs(drop_rate - p) < 0.02
    with pytest.raises(ShapeError):
        dropout(x, 1.0, rng)


def test_dropout_is_seed_deterministic():
    x = Tensor(np.ones((8, 8)))
    a = dropout(x, 0.5, np.random.default_rng(7)).data
    b = dropout(x, 0.5, np.random.default_rng(7)).data
    assert np.array_equal(a, b)
