"""Recurrent cell semantics: attentive step, conv LSTM, gated aggregator."""

import numpy as np
import pytest
from scipy.special import expit

from vnact.cells import (
    ConvLstmParams,
    GateBias,
    GruParams,
    LstaParams,
    LstaState,
    convlstm_step,
    gru_step,
    lsta_step,
    run_lsta_gru,
)
from vnact.errors import ShapeError
from vnact.gradcheck import grad_check
from vnact.models import create_model
from vnact.synthetic import default_label_space, make_synthetic, make_two_stream_synthetic
from vnact.tensor import Tape
from vnact.training import PRESETS, AugmentationConfig, apply_overrides, run_stage
from vnact.ops import conv2d, gate_output, gate_update, mean_along
from vnact.tensor import Tensor, add, hadamard


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def conv_same(x, k):
    return conv2d(Tensor(x), Tensor(k)).data


def lsta_oracle(x, c, h, p, bias=None):
    """Straight-line numpy replay of one attentive step."""
    d = p["pool_kernel"].shape[0]
    att_pre = conv_same(np.concatenate([x, h], axis=0), p["attn_kernel"])
    e = np.exp(att_pre - att_pre.max())
    alpha = e / e.sum()
    x_att = x * alpha
    z = conv_same(np.concatenate([x_att, h], axis=0), p["gate_kernel"])
    z = z + p["gate_bias"].reshape(4 * d, 1, 1)
    if bias is not None:
        z = z + np.concatenate(bias, axis=0)
    zi, zf, zg, zo = (z[k * d : (k + 1) * d] for k in range(4))
    i, f, g, o = sigmoid(zi), sigmoid(zf), np.tanh(zg), sigmoid(zo)
    c_new = f * c + i * g
    h_new = o * np.tanh(conv_same(c_new, p["pool_kernel"]))
    return c_new, h_new, alpha


def gru_oracle(x, h, p):
    xh = np.concatenate([x, h])
    z = sigmoid(xh @ p["w_update"] + p["b_update"])
    r = sigmoid(xh @ p["w_reset"] + p["b_reset"])
    n = np.tanh(np.concatenate([x, r * h]) @ p["w_cand"] + p["b_cand"])
    return (1.0 - z) * n + z * h


def random_lsta_params(rng, c=3, d=4, k=3):
    return LstaParams(
        attn_kernel=Tensor(rng.normal(size=(1, c + d, k, k)) * 0.3),
        gate_kernel=Tensor(rng.normal(size=(4 * d, c + d, k, k)) * 0.3),
        gate_bias=Tensor(rng.normal(size=4 * d) * 0.3),
        pool_kernel=Tensor(rng.normal(size=(d, d, 1, 1)) * 0.3),
    )


# ---------------------------------------------------------------------------
# attentive step


def test_lsta_step_matches_numpy_oracle():
    rng = np.random.default_rng(0)
    c, d, hw = 3, 4, 5
    params = random_lsta_params(rng, c, d)
    x = rng.normal(size=(c, hw, hw))
    c0 = rng.normal(size=(d, hw, hw))
    h0 = rng.normal(size=(d, hw, hw)) * 0.5
    state, alpha = lsta_step(Tensor(x), LstaState(Tensor(c0), Tensor(h0)), params)
    p = {k: getattr(params, k).data for k in ("attn_kernel", "gate_kernel", "gate_bias", "pool_kernel")}
    c_ref, h_ref, a_ref = lsta_oracle(x, c0, h0, p)
    assert np.allclose(state.c.data, c_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.h.data, h_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(alpha.data, a_ref, rtol=1e-12, atol=1e-12)


def test_lsta_attention_normalizes_per_sample():
    rng = np.random.default_rng(1)
    params = random_lsta_params(rng, c=2, d=3)
    x = rng.normal(size=(4, 2, 6, 6))
    state = LstaState.zeros((4, 3, 6, 6))
    _, alpha = lsta_step(Tensor(x), state, params)
    sums = alpha.data.sum(axis=(-2, -1))
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_lsta_gate_bias_shifts_preactivations():
    rng = np.random.default_rng(2)
    params = random_lsta_params(rng, c=2, d=2)
    x = rng.normal(size=(2, 4, 4))
    st = LstaState(Tensor(rng.normal(size=(2, 4, 4))), Tensor(rng.normal(size=(2, 4, 4)) * 0.3))
    maps = [rng.normal(size=(2, 4, 4)) * 0.5 for _ in range(4)]
    bias = GateBias(Tensor(np.concatenate(maps)))
    state, _ = lsta_step(Tensor(x), st, params, bias=bias)
    p = {k: getattr(params, k).data for k in ("attn_kernel", "gate_kernel", "gate_bias", "pool_kernel")}
    c_ref, h_ref, _ = lsta_oracle(x, st.c.data, st.h.data, p, bias=maps)
    assert np.allclose(state.c.data, c_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.h.data, h_ref, rtol=1e-12, atol=1e-12)


def test_zero_gate_bias_changes_nothing_bitwise():
    rng = np.random.default_rng(3)
    params = random_lsta_params(rng, c=2, d=2)
    x = Tensor(rng.normal(size=(2, 4, 4)))
    st = LstaState.zeros((2, 4, 4))
    zero = GateBias(Tensor(np.zeros((8, 4, 4))))
    plain, _ = lsta_step(x, st, params)
    biased, _ = lsta_step(x, st, params, bias=zero)
    assert np.array_equal(plain.c.data, biased.c.data)
    assert np.array_equal(plain.h.data, biased.h.data)


def test_forget_bias_initialized_to_one():
    params = LstaParams.create(input_channels=3, memory=4, seed=0, name="lsta")
    b = params.gate_bias.data
    assert np.array_equal(b[4:8], np.ones(4))
    assert np.array_equal(np.delete(b, np.s_[4:8]), np.zeros(12))
    cl = ConvLstmParams.create(input_channels=3, memory=2, seed=0, name="convlstm")
    assert np.array_equal(cl.gate_bias.data, np.array([0, 0, 1, 1, 0, 0, 0, 0.0]))


def test_gate_bias_from_stacked_layout():
    """The stacked map is kept whole, and its channel blocks bias the gates
    in (input, forget, candidate, output) order."""
    rng = np.random.default_rng(4)
    params = random_lsta_params(rng, c=2, d=2)
    x = rng.normal(size=(2, 3, 3))
    st = LstaState(Tensor(rng.normal(size=(2, 3, 3))), Tensor(rng.normal(size=(2, 3, 3)) * 0.3))
    stacked = Tensor(rng.normal(size=(8, 3, 3)))  # 4 gates x memory 2
    gb = GateBias.from_stacked(stacked, memory=2)
    assert gb.stacked is stacked
    state, _ = lsta_step(Tensor(x), st, params, bias=gb)
    p = {k: getattr(params, k).data for k in ("attn_kernel", "gate_kernel", "gate_bias", "pool_kernel")}
    blocks = [stacked.data[2 * k:2 * k + 2] for k in range(4)]
    c_ref, h_ref, _ = lsta_oracle(x, st.c.data, st.h.data, p, bias=blocks)
    assert np.allclose(state.c.data, c_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.h.data, h_ref, rtol=1e-12, atol=1e-12)
    with pytest.raises(ShapeError):
        GateBias.from_stacked(stacked, memory=3)


def test_lsta_state_shape_validation():
    with pytest.raises(ShapeError):
        LstaState(Tensor(np.zeros((2, 3, 3))), Tensor(np.zeros((2, 4, 4))))


def test_lsta_params_round_trip_dict():
    params = LstaParams.create(input_channels=2, memory=3, seed=9, name="lsta")
    d = params.as_dict("cell")
    assert sorted(d) == ["cell.attn_kernel", "cell.gate_bias", "cell.gate_kernel", "cell.pool_kernel"]
    back = LstaParams.from_dict("cell", d)
    assert back.memory == 3
    assert np.array_equal(back.gate_kernel.data, params.gate_kernel.data)


# ---------------------------------------------------------------------------
# conv LSTM step


def test_convlstm_matches_oracle_and_differs_from_attentive():
    rng = np.random.default_rng(5)
    c, d, hw = 2, 3, 5
    params = ConvLstmParams(
        gate_kernel=Tensor(rng.normal(size=(4 * d, c + d, 3, 3)) * 0.3),
        gate_bias=Tensor(rng.normal(size=4 * d) * 0.3),
    )
    x = rng.normal(size=(c, hw, hw))
    c0, h0 = rng.normal(size=(d, hw, hw)), rng.normal(size=(d, hw, hw)) * 0.5
    state = convlstm_step(Tensor(x), LstaState(Tensor(c0), Tensor(h0)), params)

    z = conv_same(np.concatenate([x, h0], axis=0), params.gate_kernel.data)
    z = z + params.gate_bias.data.reshape(4 * d, 1, 1)
    zi, zf, zg, zo = (z[k * d : (k + 1) * d] for k in range(4))
    c_ref = sigmoid(zf) * c0 + sigmoid(zi) * np.tanh(zg)
    h_ref = sigmoid(zo) * np.tanh(c_ref)
    assert np.allclose(state.c.data, c_ref, rtol=1e-12, atol=1e-12)
    assert np.allclose(state.h.data, h_ref, rtol=1e-12, atol=1e-12)


def test_convlstm_memory_property():
    params = ConvLstmParams.create(input_channels=2, memory=5, seed=1, name="convlstm")
    assert params.memory == 5
    assert params.gate_kernel.shape == (20, 7, 3, 3)


# ---------------------------------------------------------------------------
# gated aggregator step


def test_gru_step_matches_numpy_oracle():
    rng = np.random.default_rng(6)
    cin, d = 5, 4
    params = GruParams.create(input_dim=cin, hidden=d, seed=3, name="gru")
    x, h = rng.normal(size=cin), rng.normal(size=d)
    out = gru_step(Tensor(x[None]), Tensor(h[None]), params)
    p = {k: getattr(params, k).data for k in (
        "w_update", "b_update", "w_reset", "b_reset", "w_cand", "b_cand")}
    assert out.shape == (1, d)
    assert np.allclose(out.data[0], gru_oracle(x, h, p), rtol=1e-12, atol=1e-12)


def test_gru_step_batched_matches_per_sample():
    rng = np.random.default_rng(7)
    params = GruParams.create(input_dim=3, hidden=2, seed=4, name="gru")
    xs, hs = rng.normal(size=(4, 3)), rng.normal(size=(4, 2))
    batched = gru_step(Tensor(xs), Tensor(hs), params)
    for i in range(4):
        single = gru_step(Tensor(xs[i:i + 1]), Tensor(hs[i:i + 1]), params)
        assert np.allclose(batched.data[i], single.data[0], rtol=1e-14, atol=1e-14)


def test_gru_interpolates_between_candidate_and_state():
    # With update gate saturated open (z→1) the state passes through.
    params = GruParams.create(input_dim=2, hidden=3, seed=5, name="gru")
    big = dict(params.as_dict("g"))
    big["g.b_update"] = Tensor(np.full(3, 50.0))
    params_hold = GruParams.from_dict("g", big)
    h = np.array([0.3, -0.7, 1.1])
    out = gru_step(Tensor(np.zeros((1, 2))), Tensor(h[None]), params_hold)
    assert np.allclose(out.data[0], h, atol=1e-12)


def test_gru_shape_validation():
    params = GruParams.create(input_dim=2, hidden=2, seed=6, name="gru")
    with pytest.raises(ShapeError):
        gru_step(Tensor(np.zeros((3, 2))), Tensor(np.zeros((2, 2))), params)
    with pytest.raises(ShapeError):  # unbatched vectors
        gru_step(Tensor(np.zeros(2)), Tensor(np.zeros(2)), params)


# ---------------------------------------------------------------------------
# rolled sequence


def test_run_lsta_gru_shapes_and_batch_consistency():
    rng = np.random.default_rng(8)
    lsta = random_lsta_params(rng, c=2, d=3)
    gru_a = GruParams.create(input_dim=3, hidden=4, seed=7, name="a")
    gru_b = GruParams.create(input_dim=3, hidden=4, seed=8, name="b")
    frames = rng.normal(size=(2, 5, 2, 4, 4))

    lsta_desc, gru_desc = run_lsta_gru(Tensor(frames), lsta, gru_a, gru_b)
    assert lsta_desc.shape == (2, 3)
    assert gru_desc.shape == (2, 8)

    # A batch of one must agree with the batched rows.
    d0, g0 = run_lsta_gru(Tensor(frames[:1]), lsta, gru_a, gru_b)
    assert d0.shape == (1, 3) and g0.shape == (1, 8)
    assert np.allclose(d0.data[0], lsta_desc.data[0], rtol=1e-12, atol=1e-12)
    assert np.allclose(g0.data[0], gru_desc.data[0], rtol=1e-12, atol=1e-12)


def test_run_lsta_gru_matches_manual_unroll():
    rng = np.random.default_rng(9)
    lsta = random_lsta_params(rng, c=2, d=2)
    gru_a = GruParams.create(input_dim=2, hidden=3, seed=10, name="a")
    gru_b = GruParams.create(input_dim=2, hidden=3, seed=11, name="b")
    frames = rng.normal(size=(1, 3, 2, 4, 4))

    state = LstaState.zeros((1, 2, 4, 4))
    ha, hb = np.zeros(3), np.zeros(3)
    pa = {k: getattr(gru_a, k).data for k in (
        "w_update", "b_update", "w_reset", "b_reset", "w_cand", "b_cand")}
    pb = {k: getattr(gru_b, k).data for k in (
        "w_update", "b_update", "w_reset", "b_reset", "w_cand", "b_cand")}
    for t in range(3):
        state, _ = lsta_step(Tensor(frames[:, t]), state, lsta)
        pooled = state.h.data[0].mean(axis=(-2, -1))
        ha = gru_oracle(pooled, ha, pa)
        hb = gru_oracle(pooled, hb, pb)

    lsta_desc, gru_desc = run_lsta_gru(Tensor(frames), lsta, gru_a, gru_b)
    assert np.allclose(lsta_desc.data, state.c.data.mean(axis=(-2, -1)), rtol=1e-12, atol=1e-12)
    assert np.allclose(gru_desc.data[0], np.concatenate([ha, hb]), rtol=1e-12, atol=1e-12)


def test_run_lsta_gru_rejects_empty_and_bad_rank():
    rng = np.random.default_rng(12)
    lsta = random_lsta_params(rng, c=2, d=2)
    gru_a = GruParams.create(input_dim=2, hidden=2, seed=12, name="a")
    gru_b = GruParams.create(input_dim=2, hidden=2, seed=13, name="b")
    with pytest.raises(ShapeError):
        run_lsta_gru(Tensor(np.zeros((2, 4, 4))), lsta, gru_a, gru_b)
    with pytest.raises(ShapeError):  # an unbatched clip
        run_lsta_gru(Tensor(np.zeros((3, 2, 4, 4))), lsta, gru_a, gru_b)
    with pytest.raises(ShapeError):
        run_lsta_gru(Tensor(np.zeros((1, 0, 2, 4, 4))), lsta, gru_a, gru_b)


# ---------------------------------------------------------------------------
# gradients through full steps


def test_lsta_step_gradients():
    rng = np.random.default_rng(13)
    c, d, hw = 2, 2, 4
    x = rng.normal(size=(c, hw, hw))
    c0, h0 = rng.normal(size=(d, hw, hw)) * 0.5, rng.normal(size=(d, hw, hw)) * 0.5
    probe_c = rng.normal(size=(d, hw, hw))
    probe_h = rng.normal(size=(d, hw, hw))
    params = {
        "attn_kernel": Tensor(rng.normal(size=(1, c + d, 3, 3)) * 0.3),
        "gate_kernel": Tensor(rng.normal(size=(4 * d, c + d, 3, 3)) * 0.3),
        "gate_bias": Tensor(rng.normal(size=4 * d) * 0.3),
        "pool_kernel": Tensor(rng.normal(size=(d, d, 1, 1)) * 0.3),
        "x": Tensor(x),
        "c0": Tensor(c0),
        "h0": Tensor(h0),
    }

    def forward(p):
        cell = LstaParams(p["attn_kernel"], p["gate_kernel"], p["gate_bias"], p["pool_kernel"])
        state, _ = lsta_step(p["x"], LstaState(p["c0"], p["h0"]), cell)
        return mean_along(
            add(hadamard(state.c, Tensor(probe_c)), hadamard(state.h, Tensor(probe_h))), None
        )

    report = grad_check(forward, params)
    assert report.passed, [e for e in report.entries if not e.passed]


def test_gru_step_gradients():
    rng = np.random.default_rng(14)
    params = {
        "w_update": Tensor(rng.normal(size=(5, 2)) * 0.4),
        "b_update": Tensor(rng.normal(size=2) * 0.4),
        "w_reset": Tensor(rng.normal(size=(5, 2)) * 0.4),
        "b_reset": Tensor(rng.normal(size=2) * 0.4),
        "w_cand": Tensor(rng.normal(size=(5, 2)) * 0.4),
        "b_cand": Tensor(rng.normal(size=2) * 0.4),
        "x": Tensor(rng.normal(size=(2, 3))),
        "h": Tensor(rng.normal(size=(2, 2))),
    }
    probe = rng.normal(size=(2, 2))

    def forward(p):
        cell = GruParams(p["w_update"], p["b_update"], p["w_reset"], p["b_reset"],
                         p["w_cand"], p["b_cand"])
        out = gru_step(p["x"], p["h"], cell)
        return mean_along(hadamard(out, Tensor(probe)), None)

    report = grad_check(forward, params)
    assert report.passed, [e for e in report.entries if not e.passed]


def test_gate_output_rule_needs_no_other_node():
    """A loss on the hidden map alone reaches z, the gate bias, the external
    bias and m through the gate_output node's own rule: no gate_update node
    is recorded, and nothing waits for one."""
    rng = np.random.default_rng(15)
    d = 2
    params = {"z": Tensor(rng.normal(size=(2, 4 * d, 3, 3))),
              "gate_bias": Tensor(rng.normal(size=4 * d)),
              "bias": Tensor(rng.normal(size=(2, 4 * d, 3, 3))),
              "m": Tensor(rng.normal(size=(2, d, 3, 3)))}
    probe = Tensor(rng.normal(size=(2, d, 3, 3)))

    def forward(p):
        h = gate_output(p["z"], p["gate_bias"], p["bias"], p["m"])
        return mean_along(hadamard(h, probe), None)

    report = grad_check(forward, params)
    assert report.passed, [e for e in report.entries if not e.passed]


def gate_inputs(rng, biased, b=2, d=3, hw=(3, 4)):
    """Gate pre-activations, per-gate bias, optional per-sample bias map and a
    (B, D, H, W) state, with -0.0 entries in the state."""
    z = Tensor(rng.normal(size=(b, 4 * d, *hw)), grad_enabled=True)
    gate_bias = Tensor(rng.normal(size=4 * d), grad_enabled=True)
    bias = Tensor(rng.normal(size=z.shape), grad_enabled=True) if biased else None
    state = rng.normal(size=(b, d, *hw))
    state[0, 0, 0] = -0.0
    state[1, :, 1, 2] = -0.0
    return z, gate_bias, bias, Tensor(state, grad_enabled=True), d


def reference_gates(z, gate_bias, bias, d):
    """The per-op tape's pre-activations: bias add, external bias, then the
    four gate slices, each contiguous."""
    zd = z.data + gate_bias.data.reshape(4 * d, 1, 1)
    if bias is not None:
        zd = zd + bias.data
    return [np.ascontiguousarray(zd[:, k * d:(k + 1) * d]) for k in range(4)]


def reference_pre_adjoints(dz, bias):
    """What the per-op tape handed z, the gate bias and the bias map."""
    gb = dz.sum(axis=0).sum(axis=(1, 2), keepdims=True).reshape(-1)
    return (dz, gb) + ((dz,) if bias is not None else ())


def node_adjoints(out, tape, g):
    return tape.nodes[tape.node_of(out)].backward(g)


@pytest.mark.parametrize("biased", [False, True])
def test_gate_output_keeps_the_per_op_bits(biased):
    """Forward and every adjoint of gate_output equal, byte for byte, the
    per-op output gate (sigmoid of its slice), tanh and product, and the
    per-op rules' expressions in that tape's order; -0.0 in gh and m included."""
    rng = np.random.default_rng(16)
    z, gate_bias, bias, m, d = gate_inputs(rng, biased)
    gh = rng.normal(size=m.shape)
    gh[0, 1] = -0.0
    with Tape() as tape:
        h = gate_output(z, gate_bias, bias, m)
    o = expit(reference_gates(z, gate_bias, bias, d)[3])
    tm = np.tanh(m.data)
    assert h.data.tobytes() == (o * tm).tobytes()

    go, gt = gh * tm, gh * o  # the product's rule
    dz = np.zeros(z.shape)
    dz[:, 3 * d:] += go * o * (1.0 - o)  # the output gate's rule
    expected = reference_pre_adjoints(dz, bias) + (gt * (1.0 - tm * tm),)  # then tanh's
    got = node_adjoints(h, tape, gh)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("biased", [False, True])
def test_gate_update_keeps_the_per_op_bits(biased):
    rng = np.random.default_rng(17)
    z, gate_bias, bias, c, d = gate_inputs(rng, biased)
    gc = rng.normal(size=c.shape)
    gc[1, 2] = -0.0
    with Tape() as tape:
        c_next = gate_update(z, gate_bias, c, bias)
    zi, zf, zg, _ = reference_gates(z, gate_bias, bias, d)
    i, f, g = expit(zi), expit(zf), np.tanh(zg)
    assert c_next.data.tobytes() == (f * c.data + i * g).tobytes()

    dz = np.zeros(z.shape)
    dz[:, 2 * d:3 * d] += gc * i * (1.0 - g * g)
    dz[:, d:2 * d] += gc * c.data * f * (1.0 - f)
    dz[:, :d] += gc * g * i * (1.0 - i)
    expected = (gc * f,) + reference_pre_adjoints(dz, bias)
    got = node_adjoints(c_next, tape, gc)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_gate_rules_take_exact_shapes_only():
    """The bias map must have z's shape (a (4D, H, W) map shared by a batch is
    refused), z must have 4D channels, and c or m one gate slice's shape."""
    rng = np.random.default_rng(18)
    z, gate_bias, _, c, d = gate_inputs(rng, False)
    shared = Tensor(rng.normal(size=z.shape[1:]))
    with pytest.raises(ShapeError):
        gate_update(z, gate_bias, c, shared)
    with pytest.raises(ShapeError):
        gate_output(z, gate_bias, shared, c)
    wide = Tensor(rng.normal(size=(2, d + 1, 3, 4)))
    with pytest.raises(ShapeError):
        gate_update(z, gate_bias, wide, None)
    with pytest.raises(ShapeError):
        gate_output(z, gate_bias, None, wide)
    with pytest.raises(ShapeError):  # c of one sample for a batch of two
        gate_update(z, gate_bias, Tensor(c.data[:1]), None)
    narrow = Tensor(rng.normal(size=4 * d - 4))
    with pytest.raises(ShapeError):  # z has 4D channels, the gate bias 4(D - 1)
        gate_update(z, narrow, c, None)
    with pytest.raises(ShapeError):
        gate_output(z, Tensor(np.zeros(4 * d + 1)), None, c)


DESK_STAGES = {"stage_channels": [8, 12, 16], "memory": 16}


@pytest.mark.parametrize("family, limit", [("lsta_gru", 185), ("hf_tsn", 51), ("two_stream", 216)])
def test_desk_training_step_records_few_tape_nodes(monkeypatch, family, limit):
    """One training step at the desk configuration (T=8, 16x16 frames,
    stages 8/12/16, memory 16): a cell step's memory and its hidden map are
    one node each, a GRU step is one node, and so is each HF block and each
    stage's bias and relu."""
    space = default_label_space(6, 8, 12, seed=0)
    if family == "lsta_gru":
        model = create_model(family, {"input_channels": 3, "gru_hidden": 16, **DESK_STAGES},
                             space, seed=1)
        data = make_synthetic(space, 2, 8, 3, 16, 16, 0.5, seed=2)
        schedule = apply_overrides(PRESETS["lsta_stage1"], {
            "epochs": 1, "frames_T": 8, "batch_size": 2,
            "trainable_groups": ("heads", "lsta", "grus", "backbone", "backbone_last_stage")})
    elif family == "hf_tsn":
        model = create_model(family, {"input_channels": 3, "segments": 8, "hf_positions": [0, 1, 2],
                                      "stage_channels": DESK_STAGES["stage_channels"]},
                             space, seed=1)
        data = make_synthetic(space, 2, 8, 3, 16, 16, 0.5, seed=2)
        schedule = apply_overrides(PRESETS["hf_tsn"], {"epochs": 1, "frames_T": 8, "batch_size": 2})
    else:
        model = create_model(family, {"app": {"input_channels": 3, **DESK_STAGES},
                                      "motion": {"flow_channels": 4, **DESK_STAGES}},
                             space, seed=1)
        data = make_two_stream_synthetic(space, 2, 8, 3, 4, 16, 16, 0.5, seed=2)
        schedule = apply_overrides(PRESETS["two_stream"],
                                   {"epochs": 1, "frames_T": 8, "batch_size": 2})
    sizes = []
    true_backward = Tape.backward

    def counting(tape, loss):
        sizes.append(len(tape.nodes))
        return true_backward(tape, loss)

    monkeypatch.setattr(Tape, "backward", counting)
    run_stage(model, data, schedule, aug=AugmentationConfig(), seed=3)
    assert len(sizes) == 1 and sizes[0] <= limit
