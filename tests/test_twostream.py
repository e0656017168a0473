"""Cross-modal coupling: motion attention, gated fusion rollout, score fusion."""

import numpy as np
import pytest

from vnact.cells import ConvLstmParams, LstaParams, LstaState, convlstm_step, lsta_step
from vnact.errors import ShapeError
from vnact.gradcheck import grad_check
from vnact.ops import index_select, mean_along
from vnact.tensor import Tensor, add, hadamard
from vnact.twostream import (
    FusionParams,
    MotionAttentionParams,
    cross_modal_rollout,
    fuse_scores,
    motion_spatial_attention,
)
from vnact.heads import ScoreTriple


def random_lsta(rng, c, d, k=3):
    return LstaParams(
        attn_kernel=Tensor(rng.normal(size=(1, c + d, k, k)) * 0.3),
        gate_kernel=Tensor(rng.normal(size=(4 * d, c + d, k, k)) * 0.3),
        gate_bias=Tensor(rng.normal(size=4 * d) * 0.3),
        pool_kernel=Tensor(rng.normal(size=(d, d, 1, 1)) * 0.3),
    )


def random_clstm(rng, c, d, k=3):
    return ConvLstmParams(
        gate_kernel=Tensor(rng.normal(size=(4 * d, c + d, k, k)) * 0.3),
        gate_bias=Tensor(rng.normal(size=4 * d) * 0.3),
    )


# ---------------------------------------------------------------------------
# motion attention


def test_motion_attention_zero_kernel_is_bitwise_identity():
    rng = np.random.default_rng(3)
    feats = rng.normal(size=(2, 4, 6, 6))
    out = motion_spatial_attention(Tensor(feats), MotionAttentionParams.create(4))
    assert np.array_equal(out.data, feats)


def test_motion_attention_map_averages_to_one():
    rng = np.random.default_rng(4)
    from vnact.ops import conv2d, softmax_spatial

    feats = rng.normal(size=(3, 6, 6))
    params = MotionAttentionParams(kernel=Tensor(rng.normal(size=(1, 3, 1, 1))))
    out = motion_spatial_attention(Tensor(feats), params)
    alpha = softmax_spatial(conv2d(Tensor(feats), params.kernel), 36.0).data
    assert abs(alpha.mean() - 1.0) <= 1e-12
    assert np.allclose(out.data, feats * alpha, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# fusion rollout


def test_zero_fusion_matches_uncoupled_streams_bitwise():
    rng = np.random.default_rng(5)
    b, t, ca, cm, hw, da, dm = 2, 3, 3, 2, 5, 2, 3
    lsta = random_lsta(rng, ca, da)
    clstm = random_clstm(rng, cm, dm)
    fusion = FusionParams.create(ca, cm, da, dm, 3, 3)
    fa = Tensor(rng.normal(size=(b, t, ca, hw, hw)))
    fm = Tensor(rng.normal(size=(b, t, cm, hw, hw)))

    app_desc, mot_desc = cross_modal_rollout(fa, fm, lsta, clstm, fusion)

    app_state = LstaState.zeros((b, da, hw, hw))
    mot_state = LstaState.zeros((b, dm, hw, hw))
    for step in range(t):
        app_state, _ = lsta_step(index_select(fa, 1, step), app_state, lsta, bias=None)
        mot_state = convlstm_step(index_select(fm, 1, step), mot_state, clstm, bias=None)
    assert np.array_equal(app_desc.data, mean_along(app_state.c, (-2, -1)).data)
    assert np.array_equal(mot_desc.data, mean_along(mot_state.c, (-2, -1)).data)


def test_nonzero_fusion_couples_both_streams():
    rng = np.random.default_rng(6)
    b, t, ca, cm, hw, da, dm = 1, 2, 2, 2, 4, 2, 2
    lsta = random_lsta(rng, ca, da)
    clstm = random_clstm(rng, cm, dm)
    zero = FusionParams.create(ca, cm, da, dm, 3, 3)
    live = FusionParams(
        app_to_motion=Tensor(rng.normal(size=zero.app_to_motion.shape) * 0.3),
        motion_to_app=Tensor(rng.normal(size=zero.motion_to_app.shape) * 0.3),
    )
    fa = Tensor(rng.normal(size=(b, t, ca, hw, hw)))
    fm = Tensor(rng.normal(size=(b, t, cm, hw, hw)))
    a0, m0 = cross_modal_rollout(fa, fm, lsta, clstm, zero)
    a1, m1 = cross_modal_rollout(fa, fm, lsta, clstm, live)
    assert not np.allclose(a0.data, a1.data)
    assert not np.allclose(m0.data, m1.data)


def test_cross_modal_rollout_unbatched_squeeze():
    # The rollout takes batched streams only: a batch of one matches the
    # batched rows, and an unbatched (T, C, H, W) clip is rejected.
    rng = np.random.default_rng(7)
    t, ca, cm, hw, da, dm = 3, 2, 2, 4, 2, 2
    lsta = random_lsta(rng, ca, da)
    clstm = random_clstm(rng, cm, dm)
    fusion = FusionParams.create(ca, cm, da, dm, 3, 3)
    fa = rng.normal(size=(2, t, ca, hw, hw))
    fm = rng.normal(size=(2, t, cm, hw, hw))
    a_one, m_one = cross_modal_rollout(Tensor(fa[:1]), Tensor(fm[:1]), lsta, clstm, fusion)
    a_batch, m_batch = cross_modal_rollout(Tensor(fa), Tensor(fm), lsta, clstm, fusion)
    assert a_one.shape == (1, da) and m_one.shape == (1, dm)
    assert np.array_equal(a_one.data[0], a_batch.data[0])
    assert np.array_equal(m_one.data[0], m_batch.data[0])
    with pytest.raises(ShapeError):
        cross_modal_rollout(Tensor(fa[0]), Tensor(fm[0]), lsta, clstm, fusion)


def test_cross_modal_rollout_layout_checks():
    rng = np.random.default_rng(8)
    lsta = random_lsta(rng, 2, 2)
    clstm = random_clstm(rng, 2, 2)
    fusion = FusionParams.create(2, 2, 2, 2, 3, 3)
    fa = Tensor(rng.normal(size=(1, 3, 2, 4, 4)))
    with pytest.raises(ShapeError):
        cross_modal_rollout(fa, Tensor(rng.normal(size=(1, 2, 2, 4, 4))), lsta, clstm, fusion)
    with pytest.raises(ShapeError):
        cross_modal_rollout(fa, Tensor(rng.normal(size=(1, 3, 2, 5, 5))), lsta, clstm, fusion)


def test_cross_modal_rollout_gradients():
    rng = np.random.default_rng(9)
    b, t, ca, cm, hw, da, dm = 1, 2, 2, 2, 3, 2, 2
    fa = rng.normal(size=(b, t, ca, hw, hw))
    fm = rng.normal(size=(b, t, cm, hw, hw))
    probe_a = rng.normal(size=(b, da))
    probe_m = rng.normal(size=(b, dm))
    params = {
        "attn_kernel": Tensor(rng.normal(size=(1, ca + da, 3, 3)) * 0.3),
        "gate_kernel": Tensor(rng.normal(size=(4 * da, ca + da, 3, 3)) * 0.3),
        "gate_bias": Tensor(rng.normal(size=4 * da) * 0.3),
        "pool_kernel": Tensor(rng.normal(size=(da, da, 1, 1)) * 0.3),
        "m_gate_kernel": Tensor(rng.normal(size=(4 * dm, cm + dm, 3, 3)) * 0.3),
        "m_gate_bias": Tensor(rng.normal(size=4 * dm) * 0.3),
        "app_to_motion": Tensor(rng.normal(size=(4 * dm, ca, 3, 3, 3)) * 0.2),
        "motion_to_app": Tensor(rng.normal(size=(4 * da, cm, 3, 3)) * 0.2),
    }

    def forward(p):
        lsta = LstaParams(p["attn_kernel"], p["gate_kernel"], p["gate_bias"], p["pool_kernel"])
        clstm = ConvLstmParams(p["m_gate_kernel"], p["m_gate_bias"])
        fusion = FusionParams(p["app_to_motion"], p["motion_to_app"])
        a, m = cross_modal_rollout(Tensor(fa), Tensor(fm), lsta, clstm, fusion)
        return mean_along(add(hadamard(a, Tensor(probe_a)), hadamard(m, Tensor(probe_m))), None)

    report = grad_check(forward, params)
    assert report.passed, [e for e in report.entries if not e.passed]


# ---------------------------------------------------------------------------
# score fusion


def test_fuse_scores_is_elementwise_mean():
    rng = np.random.default_rng(10)
    a = ScoreTriple(*(Tensor(rng.normal(size=(3, 4))) for _ in range(3)))
    b = ScoreTriple(*(Tensor(rng.normal(size=(3, 4))) for _ in range(3)))
    out = fuse_scores(a, b)
    assert np.array_equal(out.verb.data, (a.verb.data + b.verb.data) * 0.5)
    assert np.array_equal(out.action.data, (a.action.data + b.action.data) * 0.5)


def test_fuse_scores_identical_inputs_fixed_point():
    rng = np.random.default_rng(11)
    vals = [rng.normal(size=5) for _ in range(3)]
    a = ScoreTriple(*(Tensor(v) for v in vals))
    out = fuse_scores(a, a)
    for got, want in zip((out.verb, out.noun, out.action), vals):
        assert np.array_equal(got.data, want)


def test_fuse_scores_shape_mismatch():
    a = ScoreTriple(Tensor(np.ones(3)), Tensor(np.ones(2)), Tensor(np.ones(4)))
    with pytest.raises(ShapeError):
        fuse_scores(a, ScoreTriple(Tensor(np.zeros(4)), Tensor(np.zeros(2)), Tensor(np.zeros(4))))
