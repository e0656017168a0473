"""The fused backbone rules, bit for bit against the per-op order they replace.

``hf_mix`` replaces the per-op HF block (two reshapes, a hadamard, a slice
of the successor frames concatenated with a zero frame, a hadamard and an
add), ``bias_relu`` a reshape, an add and a relu, and the backward of
``avg_pool2x2`` two ``np.repeat`` copies times 0.25. Each reference below
repeats those ops' numpy expressions and the order in which the tape added
their adjoints. Forward values and every adjoint are compared as bits,
signed zeros included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vnact.errors import NonFiniteError, ShapeError
from vnact.ops import avg_pool2x2, bias_relu, hf_mix
from vnact.tensor import Tape, Tensor, _unbroadcast

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
LEAD = st.lists(st.integers(1, 3), max_size=2).map(tuple)


def assert_bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def with_signed_zeros(rng, shape):
    """Normal draws with some entries set to -0.0 and some to +0.0."""
    x = rng.normal(size=shape)
    x[rng.random(shape) < 0.15] = -0.0
    x[rng.random(shape) < 0.1] = 0.0
    return x


def rule_of(op, *inputs):
    """The output of ``op`` and the backward rule of the node it records."""
    with Tape() as tape:
        out = op(*inputs)
    return out.data, tape.nodes[tape.node_of(out)].backward


# ---------------------------------------------------------------------------
# hf_mix


def hf_block_reference(f, w0, w1, g):
    """The per-op HF block's output and its adjoints of f, w0 and w1 for an
    output adjoint g (None for w1 at T = 1, which that tape never reached)."""
    t, c = f.shape[1:3]
    a, b = w0.reshape(c, 1, 1), w1.reshape(c, 1, 1)
    own = f * a
    g_f_own, g_w0 = g * a, _unbroadcast(g * f, (c, 1, 1)).reshape(c)
    if t == 1:
        return own, g_f_own, g_w0, None
    succ = np.concatenate([f[:, 1:], np.zeros(f[:, :1].shape)], 1)
    g_f_succ = np.zeros(f.shape)
    g_f_succ[:, 1:] = (g * b)[:, :t - 1]
    # The successor path is later on the tape, so its part of f's adjoint comes first.
    return own + succ * b, g_f_succ + g_f_own, g_w0, _unbroadcast(g * succ, (c, 1, 1)).reshape(c)


@SETTINGS
@given(b=st.integers(1, 3), t=st.sampled_from([1, 2, 5]), c=st.integers(1, 4),
       h=st.integers(1, 3), w=st.integers(1, 3), f_grad=st.booleans(),
       seed=st.integers(0, 2**16))
def test_hf_mix_is_bitwise_the_per_op_block(b, t, c, h, w, f_grad, seed):
    rng = np.random.default_rng(seed)
    f, g = with_signed_zeros(rng, (b, t, c, h, w)), with_signed_zeros(rng, (b, t, c, h, w))
    w0 = with_signed_zeros(rng, c)
    w1 = rng.choice(np.array([-1.25, -0.0, 0.0, 0.5]), size=c)
    out, rule = rule_of(hf_mix, Tensor(f, grad_enabled=f_grad),
                        Tensor(w0, grad_enabled=True), Tensor(w1, grad_enabled=True))
    want_out, want_f, want_w0, want_w1 = hf_block_reference(f, w0, w1, g)
    got_f, got_w0, got_w1 = rule(g)
    assert_bitwise(out, want_out)
    assert_bitwise(got_w0, want_w0)
    if f_grad:
        assert_bitwise(got_f, want_f)
    else:  # raw frames at stage 0: nothing reads their adjoint
        assert got_f is None
    if t == 1:
        assert got_w1 is None
    else:
        assert_bitwise(got_w1, want_w1)


def test_hf_mix_keeps_the_signed_zeros_of_the_zero_successor_frame():
    # -0.0·w0 alone is -0.0; the zero frame's +0·w1 makes the last frame
    # +0.0 for w1 >= 0 and leaves it -0.0 for w1 < 0.
    out, _ = rule_of(hf_mix, Tensor(np.full((1, 2, 2, 1, 1), -0.0)),
                     Tensor(np.ones(2), grad_enabled=True), Tensor(np.array([0.5, -0.5])))
    assert np.signbit(out[0, 1]).ravel().tolist() == [False, True]
    # f's adjoint at t = 0 is 0.0 + g·w0: +0.0 where g·w0 alone is -0.0.
    _, rule = rule_of(hf_mix, Tensor(np.zeros((1, 2, 2, 1, 1)), grad_enabled=True),
                      Tensor(np.array([0.0, 1.0])), Tensor(np.ones(2)))
    g_f, _, _ = rule(-np.ones((1, 2, 2, 1, 1)))
    assert np.signbit(g_f[0, 0]).ravel().tolist() == [False, True]


# ---------------------------------------------------------------------------
# bias_relu


def bias_relu_reference(x, bias, g):
    """relu(add(x, reshape(bias))) and its adjoints of x and bias."""
    c = bias.shape[0]
    pre = x + bias.reshape(c, 1, 1)
    g_x = g * (pre > 0.0)
    return np.maximum(pre, 0.0), g_x, _unbroadcast(g_x, (c, 1, 1)).reshape(c)


@SETTINGS
@given(lead=LEAD, c=st.integers(1, 4), h=st.integers(1, 3), w=st.integers(1, 3),
       seed=st.integers(0, 2**16))
def test_bias_relu_is_bitwise_the_per_op_stage(lead, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x, g = with_signed_zeros(rng, lead + (c, h, w)), with_signed_zeros(rng, lead + (c, h, w))
    bias = with_signed_zeros(rng, c)
    out, rule = rule_of(bias_relu, Tensor(x, grad_enabled=True), Tensor(bias, grad_enabled=True))
    want_out, want_x, want_bias = bias_relu_reference(x, bias, g)
    got_x, got_bias = rule(g)
    assert_bitwise(out, want_out)
    assert_bitwise(got_x, want_x)
    assert_bitwise(got_bias, want_bias)


def test_bias_relu_checks_its_bias_and_a_sum_of_minus_infinity():
    x = Tensor(np.ones((2, 3, 2, 2)))
    with pytest.raises(ShapeError):
        bias_relu(x, Tensor(np.ones(2)))
    with pytest.raises(ShapeError):
        bias_relu(Tensor(np.ones((3, 2))), Tensor(np.ones(3)))
    # The clamp would turn -inf into 0; the sum is checked before it.
    for lo in (-np.inf, -1.5e308):
        with pytest.raises(NonFiniteError, match="bias_relu"):
            bias_relu(Tensor(np.full((1, 1, 1), lo)), Tensor(np.array([-1.5e308])))


# ---------------------------------------------------------------------------
# avg_pool2x2


@SETTINGS
@given(lead=LEAD, c=st.integers(1, 3), h=st.integers(1, 3), w=st.integers(1, 3),
       seed=st.integers(0, 2**16))
@example(lead=(2,), c=2, h=2, w=1, seed=0)  # W = 2: the forward sums in memory order
def test_avg_pool2x2_forward_and_backward_are_bitwise_the_per_op_pool(lead, c, h, w, seed):
    rng = np.random.default_rng(seed)
    x = with_signed_zeros(rng, lead + (c, 2 * h, 2 * w))
    g = with_signed_zeros(rng, lead + (c, h, w))
    out, rule = rule_of(avg_pool2x2, Tensor(x, grad_enabled=True))
    assert_bitwise(out, x.reshape(*lead, c, h, 2, w, 2).mean(axis=(-3, -1)))
    (got_x,) = rule(g)
    assert_bitwise(got_x, np.repeat(np.repeat(g, 2, axis=-2), 2, axis=-1) * 0.25)
