"""Tape recording discipline and backward-rule correctness."""

import numpy as np
import pytest
from scipy.special import softmax as scipy_softmax
from hypothesis import given, settings
from hypothesis import strategies as st

from vnact.errors import ShapeError, TapeError
from vnact.gradcheck import grad_check
from vnact.ops import (
    bias_relu,
    concat,
    conv2d,
    conv3d,
    index_select,
    cross_entropy,
    matmul,
    mean_along,
    softmax_spatial,
    transpose,
)
from vnact.tensor import (
    Tape,
    Tensor,
    active_tape,
    add,
    hadamard,
    scale,
)


def total(x):
    """Sum of every entry, as products with ones, one axis at a time: each
    entry's adjoint is exactly the upstream gradient. A vector first gains a
    leading axis by adding zeros, whose adjoint is a sum of one term."""
    if x.ndim == 1:
        x = add(x, Tensor(np.zeros((1, x.size))))
    for _ in range(x.ndim):
        x = matmul(x, Tensor(np.ones((x.shape[-1], 1))))
        x = transpose(x, (x.ndim - 1, *range(x.ndim - 1)))
    return x


def grad_of(tape, grads, t):
    g = grads.get(t.uid)
    return g.data if g is not None else None


# ---------------------------------------------------------------------------
# recording discipline


def test_no_tape_records_nothing():
    a = Tensor([1.0, 2.0], grad_enabled=True)
    out = add(a, a)
    assert active_tape() is None
    assert not out.grad_enabled


def test_grad_disabled_inputs_record_nothing():
    a, b = Tensor([1.0]), Tensor([2.0])
    with Tape() as tape:
        add(a, b)
    assert len(tape.nodes) == 0


def test_leaf_registration_is_lazy_and_shared():
    a = Tensor([1.0, 2.0], grad_enabled=True)
    with Tape() as tape:
        u = add(a, a)
        v = hadamard(u, a)
        loss = mean_along(v, None)
    # One leaf node for `a` despite three uses.
    assert sum(1 for n in tape.nodes if n.leaf is a) == 1
    grads = tape.backward(loss)
    # d/da mean(2a * a) = 2a per coordinate / n... direct: v = 2a^2, dv/da = 4a.
    assert np.allclose(grad_of(tape, grads, a), 4.0 * a.data / 2.0)


def test_tape_single_traversal():
    a = Tensor([3.0], grad_enabled=True)
    with Tape() as tape:
        loss = mean_along(hadamard(a, a), None)
    tape.backward(loss)
    with pytest.raises(TapeError):
        tape.backward(loss)


def test_backward_requires_recorded_scalar_loss():
    a = Tensor([[1.0, 2.0]], grad_enabled=True)
    with Tape() as tape:
        out = add(a, a)
    with pytest.raises(ShapeError):
        tape.backward(out)  # not scalar
    with Tape() as tape2:
        _ = add(a, a)
    stray = Tensor([0.0])
    with pytest.raises(TapeError):
        tape2.backward(stray)


def test_nested_tapes_record_independently():
    a = Tensor([2.0], grad_enabled=True)
    with Tape() as outer:
        u = hadamard(a, a)
        with Tape() as inner:
            v = hadamard(a, a)
            inner_loss = mean_along(v, None)
        outer_loss = mean_along(u, None)
    g_in = inner.backward(inner_loss)
    g_out = outer.backward(outer_loss)
    assert np.allclose(g_in[a.uid].data, 4.0)
    assert np.allclose(g_out[a.uid].data, 4.0)


# ---------------------------------------------------------------------------
# closed-form gradients


def test_fanout_accumulates():
    x = Tensor([1.5], grad_enabled=True)
    with Tape() as tape:
        y = add(hadamard(x, x), scale(x, 3.0))  # x^2 + 3x
        loss = mean_along(y, None)
    g = tape.backward(loss)[x.uid].data
    assert np.allclose(g, 2.0 * 1.5 + 3.0)


def test_broadcast_bias_gradient_sums_rows():
    x = Tensor(np.ones((4, 3)), grad_enabled=True)
    b = Tensor(np.zeros(3), grad_enabled=True)
    with Tape() as tape:
        loss = total(add(x, b))
    grads = tape.backward(loss)
    assert np.array_equal(grads[b.uid].data, np.full(3, 4.0))
    assert np.array_equal(grads[x.uid].data, np.ones((4, 3)))


def test_matmul_gradients_closed_form():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), grad_enabled=True)
    b = Tensor(rng.normal(size=(4, 2)), grad_enabled=True)
    g_out = rng.normal(size=(3, 2))
    with Tape() as tape:
        out = matmul(a, b)
        loss = total(hadamard(out, Tensor(g_out)))
    grads = tape.backward(loss)
    assert np.allclose(grads[a.uid].data, g_out @ b.data.T)
    assert np.allclose(grads[b.uid].data, a.data.T @ g_out)


def test_slice_gradients_scatter():
    x = Tensor(np.arange(12.0).reshape(3, 4), grad_enabled=True)
    with Tape() as tape:
        loss = add(total(index_select(x, 1, 1)), total(index_select(x, 1, 2)))
    g = tape.backward(loss)[x.uid].data
    expect = np.zeros((3, 4))
    expect[:, 1:3] = 1.0
    assert np.array_equal(g, expect)

    x2 = Tensor(np.arange(6.0).reshape(2, 3), grad_enabled=True)
    with Tape() as tape:
        row = index_select(x2, 0, 1)
        loss = total(row)
    g2 = tape.backward(loss)[x2.uid].data
    assert np.array_equal(g2, np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))


def test_concat_routes_gradients_to_parts():
    a = Tensor(np.ones((2, 2)), grad_enabled=True)
    b = Tensor(np.ones((2, 3)), grad_enabled=True)
    w = np.concatenate([np.full((2, 2), 2.0), np.full((2, 3), 5.0)], axis=1)
    with Tape() as tape:
        cat = concat([a, b], axis=1)
        loss = total(hadamard(cat, Tensor(w)))
    grads = tape.backward(loss)
    assert np.array_equal(grads[a.uid].data, np.full((2, 2), 2.0))
    assert np.array_equal(grads[b.uid].data, np.full((2, 3), 5.0))


def test_cross_entropy_gradient_keeps_the_per_op_accumulation_order():
    """The one-node loss returns, bit for bit, what a per-op tape of
    logsumexp, pick, subtract and mean summed: in reverse record order the
    pick's scatter of −g/B lands first, then the logsumexp's softmax·g/B."""
    rng = np.random.default_rng(3)
    x_data = rng.normal(size=(5, 7)) * 3.0
    idx = np.array([1, 1, 6, 0, 4])
    x = Tensor(x_data, grad_enabled=True)
    with Tape() as tape:
        loss = scale(cross_entropy(x, idx), 0.7)
    g = tape.backward(loss)[x.uid].data

    gm = np.full(5, 0.7 * (1.0 / 5))  # mean's rule, fed the scale's adjoint
    take = np.zeros((5, 7))
    take[np.arange(5), idx] = -gm  # subtract negates, the pick scatters
    ref = take + gm[..., None] * scipy_softmax(x_data, axis=-1)
    assert g.tobytes() == ref.tobytes()


def test_softmax_gradient_orthogonal_to_constants():
    # d softmax / dx applied to a constant upstream gradient vanishes.
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(1, 5, 4)), grad_enabled=True)
    with Tape() as tape:
        out = softmax_spatial(x, 1.0)
        loss = total(out)
    g = tape.backward(loss)[x.uid].data
    assert np.max(np.abs(g)) <= 1e-14


# ---------------------------------------------------------------------------
# finite-difference sweeps over the op set


def quadratic_probe(rng, shape):
    w = rng.normal(size=shape)

    def weigh(out):
        return mean_along(hadamard(out, Tensor(w)), None)

    return weigh


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_grad_check_composite_expression(seed):
    rng = np.random.default_rng(seed)
    params = {
        "x": Tensor(rng.normal(size=(3, 4))),
        "w": Tensor(rng.normal(size=(4, 5))),
        "b": Tensor(rng.normal(size=5)),
    }
    probe = quadratic_probe(rng, (3, 5))

    def forward(p):
        z = add(matmul(p["x"], p["w"]), p["b"])
        return probe(hadamard(z, z))

    report = grad_check(forward, params)
    assert report.passed, [e for e in report.entries if not e.passed]


@pytest.mark.parametrize("seed", [0, 1])
def test_grad_check_shape_ops(seed):
    rng = np.random.default_rng(10 + seed)
    params = {"x": Tensor(rng.normal(size=(2, 3, 4)))}
    probe = quadratic_probe(rng, (4, 3, 2))
    w = Tensor(rng.normal(size=(2, 2)))

    def forward(p):
        t = transpose(p["x"], (2, 1, 0))
        t = matmul(t, w)  # the leading (4, 3) axes flattened and restored
        return probe(hadamard(t, t))

    assert grad_check(forward, params).passed


@pytest.mark.parametrize("seed", [0, 1])
def test_grad_check_conv_pool_softmax(seed):
    rng = np.random.default_rng(20 + seed)
    params = {
        "x": Tensor(rng.normal(size=(2, 2, 4, 4))),
        "k": Tensor(rng.normal(size=(1, 2, 3, 3)) * 0.5),
    }
    probe = quadratic_probe(rng, (2, 2))

    def forward(p):
        m = conv2d(p["x"], p["k"])
        a = softmax_spatial(m, 16.0)
        gated = hadamard(p["x"], a)
        return probe(mean_along(gated, (-2, -1)))

    assert grad_check(forward, params).passed


def test_grad_check_cross_entropy():
    rng = np.random.default_rng(30)
    params = {"logits": Tensor(rng.normal(size=(4, 6)))}
    labels = np.array([0, 2, 5, 3])
    assert grad_check(lambda p: cross_entropy(p["logits"], labels), params).passed


def test_grad_check_relu_at_safe_points():
    """bias_relu, the backbone's relu, away from its kink."""
    rng = np.random.default_rng(40)
    # Keep pre-activations away from the kink so central differences are valid.
    x, bias = rng.normal(size=(2, 3, 3)), rng.normal(size=2)
    x[np.abs(x + bias.reshape(2, 1, 1)) < 0.05] += 0.5
    params = {"x": Tensor(x), "bias": Tensor(bias)}
    probe = quadratic_probe(rng, (2, 3, 3))

    def forward(p):
        return probe(bias_relu(p["x"], p["bias"]))

    assert grad_check(forward, params).passed


def test_grad_check_detects_wrong_gradient():
    from vnact.tensor import apply_op

    def bad_square(t):
        out = t.data**2

        def bwd(g):
            return (g * t.data,)  # missing factor 2

        return apply_op("bad_square", (t,), out, bwd)

    params = {"x": Tensor(np.array([1.0, 2.0]))}

    def forward(p):
        return mean_along(bad_square(p["x"]), None)

    report = grad_check(forward, params)
    assert not report.passed


def test_grad_check_sees_a_small_error_in_a_small_gradient():
    """A backward rule 0.1% off fails even where every gradient is of order
    1e-2, as under a mean-reduced loss like the battery's probe losses."""
    from vnact.tensor import apply_op

    def sigmoid_off_by(t, factor):
        out = 1.0 / (1.0 + np.exp(-t.data))

        def bwd(g):
            return (g * out * (1.0 - out) * factor,)

        return apply_op("sigmoid_off", (t,), out, bwd)

    params = {"x": Tensor(np.random.default_rng(60).normal(size=(4, 5)))}
    assert grad_check(lambda p: mean_along(sigmoid_off_by(p["x"], 1.0), None), params).passed
    report = grad_check(lambda p: mean_along(sigmoid_off_by(p["x"], 1.001), None), params)
    assert not report.passed, report.entries


def test_grad_check_rejects_nondeterministic_forward():
    from vnact.errors import DeterminismError

    state = {"n": 0}

    def forward(p):
        state["n"] += 1
        return mean_along(scale(p["x"], float(state["n"])), None)

    with pytest.raises(DeterminismError):
        grad_check(forward, {"x": Tensor(np.ones(2))})


def test_backward_determinism_bitwise():
    rng = np.random.default_rng(50)
    x_data = rng.normal(size=(3, 5))
    w_data = rng.normal(size=(5, 4))

    def run():
        x = Tensor(x_data, grad_enabled=True)
        w = Tensor(w_data, grad_enabled=True)
        with Tape() as tape:
            m = matmul(x, w)
            h = hadamard(m, m)
            loss = mean_along(hadamard(h, h), None)
        grads = tape.backward(loss)
        return grads[x.uid].data, grads[w.uid].data

    gx1, gw1 = run()
    gx2, gw2 = run()
    assert np.array_equal(gx1, gx2) and np.array_equal(gw1, gw2)


# ---------------------------------------------------------------------------
# convolution gradients against a direct-loop adjoint


def dyadic(rng, shape):
    """Multiples of 1/8 in [-1, 1]: every sum of their products is exact."""
    return rng.integers(-8, 9, size=shape) / 8.0


def conv_adjoint_oracle(x, k, g):
    """Input and kernel gradients of the same-padded correlation, one
    output position and one kernel offset at a time."""
    nd = k.ndim - 2
    xs = x.reshape((-1,) + x.shape[-nd - 1 :])
    gs = g.reshape((-1,) + g.shape[-nd - 1 :])
    pads = [n // 2 for n in k.shape[2:]]
    xp = np.pad(xs, [(0, 0), (0, 0)] + [(p, p) for p in pads])
    gxp, gk = np.zeros_like(xp), np.zeros_like(k)
    every = (slice(None), slice(None))
    for pos in np.ndindex(*xs.shape[2:]):
        go = gs[every + pos]  # (B, C_out)
        for off in np.ndindex(*k.shape[2:]):
            at = every + tuple(i + j for i, j in zip(pos, off))
            gxp[at] += go @ k[every + off]
            gk[every + off] += go.T @ xp[at]
    crop = every + tuple(slice(p, p + n) for p, n in zip(pads, xs.shape[2:]))
    return gxp[crop].reshape(x.shape), gk


def check_conv_gradients(conv, lead, c, co, spatial, ks, seed):
    rng = np.random.default_rng(seed)
    x_data = dyadic(rng, lead + (c,) + spatial)
    k_data = dyadic(rng, (co, c) + ks)
    g = dyadic(rng, lead + (co,) + spatial)
    x, k = Tensor(x_data, grad_enabled=True), Tensor(k_data, grad_enabled=True)
    with Tape() as tape:
        out = conv(x, k)
        loss = total(hadamard(out, Tensor(g)))
    grads = tape.backward(loss)
    gx, gk = conv_adjoint_oracle(x_data, k_data, g)
    assert np.array_equal(grads[x.uid].data, gx)
    assert np.array_equal(grads[k.uid].data, gk)


LEAD = st.lists(st.integers(1, 3), max_size=2).map(tuple)
CONV_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("ks", [(1, 1), (3, 3), (5, 5), (1, 3)])
@CONV_SETTINGS
@given(lead=LEAD, c=st.integers(1, 3), co=st.integers(1, 3),
       spatial=st.tuples(st.integers(1, 6), st.integers(1, 6)), seed=st.integers(0, 2**16))
def test_conv2d_gradients_match_direct_loop_adjoint(ks, lead, c, co, spatial, seed):
    check_conv_gradients(conv2d, lead, c, co, spatial, ks, seed)


@pytest.mark.parametrize("ks", [(1, 1, 1), (3, 3, 3), (3, 1, 1)])
@CONV_SETTINGS
@given(lead=LEAD, c=st.integers(1, 3), co=st.integers(1, 3),
       spatial=st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4)),
       seed=st.integers(0, 2**16))
def test_conv3d_gradients_match_direct_loop_adjoint(ks, lead, c, co, spatial, seed):
    check_conv_gradients(conv3d, lead, c, co, spatial, ks, seed)


def test_conv_kernel_gradient_without_input_gradient(monkeypatch):
    """A convolution over an input that needs no gradient gives no input
    contribution, never runs col2im, and gives the same kernel gradient bits."""
    from vnact import ops

    col2im_calls = []
    true_col2im = ops._col2im
    monkeypatch.setattr(ops, "_col2im", lambda *args: col2im_calls.append(args[1])
                        or true_col2im(*args))
    rng = np.random.default_rng(7)
    for conv, x_shape, k_shape in ((conv2d, (2, 3, 5, 4), (4, 3, 3, 3)),
                                   (conv3d, (2, 3, 4, 5, 3), (2, 3, 3, 3, 3))):
        x_data, k_data = rng.normal(size=x_shape), rng.normal(size=k_shape)
        probe = Tensor(rng.normal(size=x_shape[:1] + k_shape[:1] + x_shape[2:]))
        gks = []
        for x_grad in (True, False):
            x, k = Tensor(x_data, grad_enabled=x_grad), Tensor(k_data, grad_enabled=True)
            with Tape() as tape:
                loss = mean_along(hadamard(conv(x, k), probe), None)
            col2im_calls.clear()
            grads = tape.backward(loss)
            assert (x.uid in grads) == x_grad
            assert bool(col2im_calls) == x_grad
            gks.append(grads[k.uid].data)
        assert gks[0].tobytes() == gks[1].tobytes()


@pytest.mark.parametrize("x_grad, k_grad", [(True, True), (False, True), (True, False)])
@pytest.mark.parametrize("conv, x_shape, k_shape", [
    (conv2d, (10, 8, 3, 16, 16), (5, 3, 3, 3)),         # 37 samples per tile: 3 tiles
    (conv3d, (40, 2, 4, 8, 8), (3, 2, 3, 3, 3)),        # 18 samples per tile: 3 tiles
])
def test_conv_tiles_keep_the_bits_of_one_tile(monkeypatch, conv, x_shape, k_shape,
                                              x_grad, k_grad):
    """A batch split into batch tiles gives, byte for byte, the forward and
    both adjoints of the same call run as one tile, on non-dyadic data where
    any change in the order of the additions shows in the low bits."""
    from vnact import ops

    nd = len(k_shape) - 2
    per_sample = int(np.prod(k_shape[1:])) * int(np.prod(x_shape[-nd:]))
    samples = int(np.prod(x_shape[:-nd - 1]))
    assert -(-samples // (ops._TILE_ENTRIES // per_sample)) >= 3
    rng = np.random.default_rng(13)
    x_data, k_data = rng.normal(size=x_shape), rng.normal(size=k_shape)
    probe = Tensor(rng.normal(size=x_shape[:-nd - 1] + k_shape[:1] + x_shape[-nd:]))
    runs = []
    for tile in (ops._TILE_ENTRIES, samples * per_sample):
        monkeypatch.setattr(ops, "_TILE_ENTRIES", tile)
        x, k = Tensor(x_data, grad_enabled=x_grad), Tensor(k_data, grad_enabled=k_grad)
        with Tape() as tape:
            out = conv(x, k)
            loss = mean_along(hadamard(out, probe), None)
        grads = tape.backward(loss)
        assert (x.uid in grads, k.uid in grads) == (x_grad, k_grad)
        runs.append([out.data.tobytes()] + [grads[t.uid].data.tobytes()
                                            for t in (x, k) if t.uid in grads])
    assert runs[0] == runs[1]


def im2col_reference(xb, ks):
    """Columns read through a strided view of the zero-padded input."""
    b, c, *spatial = xb.shape
    xp = np.pad(xb, [(0, 0), (0, 0)] + [(k // 2, k // 2) for k in ks])
    view = np.lib.stride_tricks.as_strided(
        xp, xp.shape[:2] + tuple(ks) + tuple(spatial), xp.strides + xp.strides[2:])
    return view.reshape(b, c * int(np.prod(ks)), int(np.prod(spatial)))


@CONV_SETTINGS
@given(b=st.integers(1, 4), c=st.integers(1, 3),
       ks=st.lists(st.sampled_from([1, 3, 5]), min_size=2, max_size=3).map(tuple),
       spatial=st.lists(st.integers(1, 6), min_size=3, max_size=3), seed=st.integers(0, 2**16))
def test_im2col_gather_matches_strided_columns(b, c, ks, spatial, seed):
    """The index-table gather copies exactly the entries, signed zeros
    included, that a strided view of the padded input reads."""
    from vnact.ops import _im2col

    xb = np.random.default_rng(seed).normal(size=(b, c, *spatial[: len(ks)]))
    xb[xb < -1.0] = -0.0
    got = _im2col(xb, ks, tuple(k // 2 for k in ks))
    assert got.tobytes() == im2col_reference(xb, ks).tobytes()


def col2im_reference(gcols, shape, ks):
    """Adjoint of im2col one pixel at a time: each pixel starts at 0.0 and
    adds its kernel offsets' contributions in nested order (last axis fastest)."""
    b, c, *spatial = shape
    per_offset = gcols.reshape(b, c, *ks, *spatial)
    out = np.zeros(shape)
    for pos in np.ndindex(*spatial):
        acc = np.zeros((b, c))
        for off in np.ndindex(*ks):
            src = tuple(p + k // 2 - o for p, k, o in zip(pos, ks, off))
            if all(0 <= s < n for s, n in zip(src, spatial)):
                acc += per_offset[(slice(None), slice(None)) + off + src]
        out[(slice(None), slice(None)) + pos] = acc
    return out


@pytest.mark.parametrize("ks", [(3, 3), (5, 3), (3, 3, 3), (1, 3, 5)])
@CONV_SETTINGS
@given(b=st.integers(1, 4), c=st.integers(1, 3),
       spatial=st.lists(st.integers(1, 5), min_size=3, max_size=3), seed=st.integers(0, 2**16))
def test_col2im_accumulation_order_is_pinned(ks, b, c, spatial, seed):
    """Bitwise against the per-pixel reference on non-dyadic input, where
    any change in the order of the additions shows in the low bits."""
    from vnact.ops import _col2im

    shape = (b, c, *spatial[: len(ks)])
    sizes = (b, c * int(np.prod(ks)), int(np.prod(shape[2:])))
    gcols = np.random.default_rng(seed).normal(size=sizes)
    got = _col2im(gcols, shape, ks, tuple(k // 2 for k in ks))
    assert got.shape == shape
    assert got.tobytes() == col2im_reference(gcols, shape, ks).tobytes()
