"""Temporal-interaction blocks, backbone stack, and consensus scoring."""

import numpy as np
import pytest

from vnact.errors import ShapeError, ValidationError
from vnact.gradcheck import grad_check
from vnact.heads import StructuredHeadParams, build_label_space
from vnact.hftsn import (
    BackboneParams,
    HfBlockParams,
    HfTsnConfig,
    backbone_forward,
    consensus,
    hf_block,
    hf_tsn_forward,
)
from vnact.ops import mean_all
from vnact.tensor import Tensor, hadamard


def random_block(rng, c):
    return HfBlockParams(w0=Tensor(rng.normal(size=c)), w1=Tensor(rng.normal(size=c)))


# ---------------------------------------------------------------------------
# temporal interaction block


def test_hf_block_matches_successor_oracle():
    rng = np.random.default_rng(0)
    t, c, hw = 5, 3, 4
    f = rng.normal(size=(t, c, hw, hw))
    params = random_block(rng, c)
    out = hf_block(Tensor(f[None]), params).data[0]
    w0 = params.w0.data.reshape(c, 1, 1)
    w1 = params.w1.data.reshape(c, 1, 1)
    for i in range(t - 1):
        assert np.allclose(out[i], w0 * f[i] + w1 * f[i + 1], rtol=1e-14, atol=1e-14)
    assert np.allclose(out[-1], w0 * f[-1], rtol=1e-14, atol=1e-14)


def test_hf_block_identity_init_is_bitwise_noop():
    rng = np.random.default_rng(1)
    f = rng.normal(size=(2, 6, 4, 5, 5))
    out = hf_block(Tensor(f), HfBlockParams.create(4))
    assert np.array_equal(out.data, f)


def test_hf_block_single_frame_keeps_own_term_only():
    rng = np.random.default_rng(2)
    f = rng.normal(size=(1, 1, 2, 3, 3))
    params = random_block(rng, 2)
    out = hf_block(Tensor(f), params).data
    assert np.allclose(out[0, 0], params.w0.data.reshape(2, 1, 1) * f[0, 0], rtol=1e-14, atol=1e-14)


def test_hf_block_shape_checks():
    rng = np.random.default_rng(3)
    with pytest.raises(ShapeError):
        hf_block(Tensor(rng.normal(size=(3, 4, 4))), random_block(rng, 4))
    with pytest.raises(ShapeError):
        hf_block(Tensor(rng.normal(size=(1, 2, 3, 4, 4))), random_block(rng, 4))
    with pytest.raises(ShapeError):  # an unbatched clip
        hf_block(Tensor(rng.normal(size=(2, 4, 4, 4))), random_block(rng, 4))


def test_hf_block_gradients():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(1, 3, 2, 3, 3))
    probe = rng.normal(size=(1, 3, 2, 3, 3))
    params = {"w0": Tensor(rng.normal(size=2)), "w1": Tensor(rng.normal(size=2)),
              "f": Tensor(f)}

    def forward(p):
        out = hf_block(p["f"], HfBlockParams(p["w0"], p["w1"]))
        return mean_all(hadamard(out, Tensor(probe)))

    report = grad_check(forward, params)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# backbone


def test_backbone_stage_geometry():
    params = BackboneParams.create(in_channels=3, stage_channels=[4, 6, 8], seed=0)
    assert params.num_stages == 3 and params.feature_dim == 8
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 3, 16, 16)))
    out = backbone_forward(x, params)
    # Two inter-stage 2x2 pools: 16 -> 8 -> 4.
    assert out.shape == (2, 3, 8, 4, 4)


def test_backbone_identity_blocks_change_nothing_bitwise():
    rng = np.random.default_rng(6)
    params = BackboneParams.create(in_channels=2, stage_channels=[3, 4], seed=1)
    x = Tensor(rng.normal(size=(1, 3, 2, 8, 8)))
    plain = backbone_forward(x, params)
    with_blocks = backbone_forward(
        x, params, hf={0: HfBlockParams.create(2), 1: HfBlockParams.create(3)})
    assert np.array_equal(plain.data, with_blocks.data)


def test_backbone_rejects_bad_block_positions():
    params = BackboneParams.create(in_channels=2, stage_channels=[3], seed=2)
    x = Tensor(np.zeros((1, 2, 2, 4, 4)))
    with pytest.raises(ValidationError, match="interaction positions"):
        backbone_forward(x, params, hf={1: HfBlockParams.create(3)})
    # One unbatched (T, C, H, W) clip is not a batch.
    with pytest.raises(ShapeError):
        backbone_forward(Tensor(np.zeros((2, 2, 4, 4))), params)


def test_backbone_params_round_trip():
    params = BackboneParams.create(in_channels=3, stage_channels=[4, 5], seed=3)
    d = params.as_dict("bb")
    assert sorted(d) == ["bb.stage0.bias", "bb.stage0.kernel", "bb.stage1.bias", "bb.stage1.kernel"]
    back = BackboneParams.from_dict("bb", d)
    assert back.num_stages == 2
    assert np.array_equal(back.kernels[1].data, params.kernels[1].data)
    with pytest.raises(ValidationError):
        BackboneParams.from_dict("missing", d)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    with pytest.raises(ValidationError):
        HfTsnConfig(segments=0, stages=(4,))
    with pytest.raises(ValidationError):
        HfTsnConfig(segments=2, stages=())
    with pytest.raises(ValidationError):
        HfTsnConfig(segments=2, stages=(4,), hf_positions=(0, 0))
    with pytest.raises(ValidationError):
        HfTsnConfig(segments=2, stages=(4,), hf_positions=(1,))


# ---------------------------------------------------------------------------
# consensus


def test_consensus_is_time_mean():
    rng = np.random.default_rng(7)
    s = rng.normal(size=(5, 7))
    assert np.array_equal(consensus(Tensor(s[None])).data[0], s.mean(axis=0))
    sb = rng.normal(size=(2, 5, 7))
    assert np.array_equal(consensus(Tensor(sb)).data, sb.mean(axis=1))
    with pytest.raises(ShapeError):
        consensus(Tensor(np.zeros(3)))
    with pytest.raises(ShapeError):  # unbatched (T, K) scores
        consensus(Tensor(s))


def test_consensus_constant_segments_fixed_point():
    row = np.array([0.5, -1.25, 2.0])
    stacked = np.tile(row, (1, 6, 1))
    assert np.array_equal(consensus(Tensor(stacked)).data[0], row)


# ---------------------------------------------------------------------------
# full clip scoring


def small_setup(rng, t=3):
    space = build_label_space(
        [("s0", 0, 0), ("s1", 0, 1), ("s2", 1, 2)],
        verbs=["v0", "v1"], nouns=["n0", "n1", "n2"])
    cfg = HfTsnConfig(segments=t, stages=(3, 4), hf_positions=(0, 1))
    backbone = BackboneParams.create(in_channels=2, stage_channels=cfg.stages, seed=4)
    hf = {0: HfBlockParams.create(2), 1: HfBlockParams.create(3)}
    head = StructuredHeadParams.create(feature_dim=4, space=space, seed=5)
    return space, cfg, backbone, hf, head


def test_hf_tsn_forward_shapes_and_batch_row_equivalence():
    rng = np.random.default_rng(8)
    space, cfg, backbone, hf, head = small_setup(rng)
    frames = rng.normal(size=(2, 3, 2, 8, 8))
    out = hf_tsn_forward(Tensor(frames), cfg, backbone, hf, head, space)
    assert out.verb.shape == (2, 2) and out.noun.shape == (2, 3) and out.action.shape == (2, 3)
    one = hf_tsn_forward(Tensor(frames[1:2]), cfg, backbone, hf, head, space)
    assert one.verb.shape == (1, 2)
    assert np.allclose(one.verb.data[0], out.verb.data[1], rtol=1e-12, atol=1e-12)
    assert np.allclose(one.action.data[0], out.action.data[1], rtol=1e-12, atol=1e-12)
    with pytest.raises(ShapeError):  # an unbatched clip
        hf_tsn_forward(Tensor(frames[1]), cfg, backbone, hf, head, space)


def test_hf_tsn_forward_is_consensus_of_per_segment_scores():
    rng = np.random.default_rng(9)
    space, cfg, backbone, hf, head = small_setup(rng)
    # With interaction weights at identity each frame scores independently,
    # so the clip score is the mean of single-segment clip scores.
    frames = rng.normal(size=(1, 3, 2, 8, 8))
    clip = hf_tsn_forward(Tensor(frames), cfg, backbone, hf, head, space)
    cfg1 = HfTsnConfig(segments=1, stages=cfg.stages, hf_positions=cfg.hf_positions)
    per = [hf_tsn_forward(Tensor(frames[:, t : t + 1]), cfg1, backbone, hf, head, space)
           for t in range(3)]
    mean_verb = np.mean([p.verb.data for p in per], axis=0)
    mean_action = np.mean([p.action.data for p in per], axis=0)
    assert np.allclose(clip.verb.data, mean_verb, rtol=1e-12, atol=1e-12)
    assert np.allclose(clip.action.data, mean_action, rtol=1e-12, atol=1e-12)


def test_hf_tsn_forward_segment_count_check():
    rng = np.random.default_rng(10)
    space, cfg, backbone, hf, head = small_setup(rng)
    with pytest.raises(ShapeError):
        hf_tsn_forward(Tensor(rng.normal(size=(1, 4, 2, 8, 8))), cfg, backbone, hf, head, space)


def test_hf_tsn_end_to_end_gradients():
    rng = np.random.default_rng(11)
    space, cfg, backbone, hf, head = small_setup(rng, t=2)
    frames = rng.normal(size=(2, 2, 2, 8, 8))
    probe = rng.normal(size=(2, 3))

    params = dict(backbone.as_dict("bb"))
    params.update(hf[0].as_dict("hf0"))
    params.update(hf[1].as_dict("hf1"))
    params.update(head.as_dict("head"))
    # Nudge the identity/zero initialisations off their saddle points.
    params = {k: Tensor(v.data + 0.05 * rng.normal(size=v.shape)) for k, v in params.items()}

    def forward(p):
        bb = BackboneParams.from_dict("bb", p)
        blocks = {0: HfBlockParams.from_dict("hf0", p), 1: HfBlockParams.from_dict("hf1", p)}
        hd = StructuredHeadParams.from_dict("head", p)
        out = hf_tsn_forward(Tensor(frames), cfg, bb, blocks, hd, space)
        return mean_all(hadamard(out.action, Tensor(probe)))

    report = grad_check(forward, params)
    assert report.passed, report.summary()
