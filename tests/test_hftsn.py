"""Temporal-interaction blocks, backbone stack, and consensus scoring."""

import numpy as np
import pytest

from vnact.errors import ShapeError, ValidationError
from vnact.gradcheck import grad_check
from vnact.heads import build_label_space
from vnact.hftsn import HfBlockParams, StageParams, backbone_forward, consensus, hf_block
from vnact.models import create_model
from vnact.ops import mean_along
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
    with pytest.raises(ShapeError):  # a successor weight per channel
        hf_block(Tensor(rng.normal(size=(1, 2, 4, 4, 4))),
                 HfBlockParams(w0=Tensor(np.ones(4)), w1=Tensor(np.zeros(3))))


def test_hf_block_gradients():
    rng = np.random.default_rng(4)
    f = rng.normal(size=(1, 3, 2, 3, 3))
    probe = rng.normal(size=(1, 3, 2, 3, 3))
    params = {"w0": Tensor(rng.normal(size=2)), "w1": Tensor(rng.normal(size=2)),
              "f": Tensor(f)}

    def forward(p):
        out = hf_block(p["f"], HfBlockParams(p["w0"], p["w1"]))
        return mean_along(hadamard(out, Tensor(probe)), None)

    report = grad_check(forward, params)
    assert report.passed, report.summary()


# ---------------------------------------------------------------------------
# backbone


def backbone_stages(in_channels, stage_channels, seed):
    """Stages drawn under the names a model gives them, backbone.stage<s>."""
    widths = [in_channels, *stage_channels]
    return [StageParams.create(widths[s], widths[s + 1], seed, f"backbone.stage{s}")
            for s in range(len(stage_channels))]


def test_backbone_stage_geometry():
    stages = backbone_stages(in_channels=3, stage_channels=[4, 6, 8], seed=0)
    assert len(stages) == 3 and stages[-1].kernel.shape == (8, 6, 3, 3)
    x = Tensor(np.random.default_rng(5).normal(size=(2, 3, 3, 16, 16)))
    out = backbone_forward(x, stages)
    # Two inter-stage 2x2 pools: 16 -> 8 -> 4.
    assert out.shape == (2, 3, 8, 4, 4)


def test_backbone_identity_blocks_change_nothing_bitwise():
    rng = np.random.default_rng(6)
    stages = backbone_stages(in_channels=2, stage_channels=[3, 4], seed=1)
    x = Tensor(rng.normal(size=(1, 3, 2, 8, 8)))
    plain = backbone_forward(x, stages)
    with_blocks = backbone_forward(
        x, stages, hf={0: HfBlockParams.create(2), 1: HfBlockParams.create(3)})
    assert np.array_equal(plain.data, with_blocks.data)


def test_backbone_rejects_bad_block_positions():
    stages = backbone_stages(in_channels=2, stage_channels=[3], seed=2)
    x = Tensor(np.zeros((1, 2, 2, 4, 4)))
    with pytest.raises(ValidationError, match="interaction positions"):
        backbone_forward(x, stages, hf={1: HfBlockParams.create(3)})
    # One unbatched (T, C, H, W) clip is not a batch.
    with pytest.raises(ShapeError):
        backbone_forward(Tensor(np.zeros((2, 2, 4, 4))), stages)


def test_backbone_params_round_trip():
    stage = backbone_stages(in_channels=3, stage_channels=[4, 5], seed=3)[1]
    d = stage.as_dict("bb.stage1")
    assert list(d) == ["bb.stage1.kernel", "bb.stage1.bias"]
    back = StageParams.from_dict("bb.stage1", d)
    assert back.kernel is stage.kernel and back.bias is stage.bias
    # A model missing a backbone stage's parameter is refused by name.
    space = build_label_space([("s0", 0, 0)], verbs=["v0"], nouns=["n0"])
    model = create_model("hf_tsn", {"input_channels": 3, "stage_channels": [4, 5], "segments": 2,
                                    "hf_positions": []}, space, seed=3)
    params = model.params()
    del params["backbone.stage1.bias"]
    with pytest.raises(ValidationError, match="backbone.stage1.bias"):
        model.set_params(params)


# ---------------------------------------------------------------------------
# config


def test_config_validation():
    space = build_label_space([("s0", 0, 0)], verbs=["v0"], nouns=["n0"])

    def create(**config):
        return create_model("hf_tsn", {"input_channels": 2, "hf_positions": [], **config},
                            space, seed=0)

    with pytest.raises(ValidationError):
        create(segments=0, stage_channels=[4])
    with pytest.raises(ValidationError):
        create(segments=2, stage_channels=[])
    with pytest.raises(ValidationError, match=r"distinct stage indices below 1, got \[0, 0\]"):
        create(segments=2, stage_channels=[4], hf_positions=[0, 0])
    with pytest.raises(ValidationError, match=r"distinct stage indices below 1, got \[1\]"):
        create(segments=2, stage_channels=[4], hf_positions=[1])


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


def small_setup(t=3):
    space = build_label_space(
        [("s0", 0, 0), ("s1", 0, 1), ("s2", 1, 2)],
        verbs=["v0", "v1"], nouns=["n0", "n1", "n2"])
    config = {"input_channels": 2, "stage_channels": [3, 4], "segments": t,
              "hf_positions": [0, 1]}
    return create_model("hf_tsn", config, space, seed=4)


def test_hf_tsn_forward_shapes_and_batch_row_equivalence():
    rng = np.random.default_rng(8)
    model = small_setup()
    frames = rng.normal(size=(2, 3, 2, 8, 8))
    out = model.forward({"frames": frames})
    assert out.verb.shape == (2, 2) and out.noun.shape == (2, 3) and out.action.shape == (2, 3)
    one = model.forward({"frames": frames[1:2]})
    assert one.verb.shape == (1, 2)
    assert np.allclose(one.verb.data[0], out.verb.data[1], rtol=1e-12, atol=1e-12)
    assert np.allclose(one.action.data[0], out.action.data[1], rtol=1e-12, atol=1e-12)
    with pytest.raises(ShapeError):  # an unbatched clip
        model.forward({"frames": frames[1]})


def test_hf_tsn_forward_is_consensus_of_per_segment_scores():
    rng = np.random.default_rng(9)
    model = small_setup()
    # With interaction weights at identity each frame scores independently,
    # so the clip score is the mean of single-segment clip scores.
    frames = rng.normal(size=(1, 3, 2, 8, 8))
    clip = model.forward({"frames": frames})
    single = create_model("hf_tsn", dict(model.config, segments=1), model.space, seed=0)
    single.set_params(model.params())
    per = [single.forward({"frames": frames[:, t : t + 1]}) for t in range(3)]
    mean_verb = np.mean([p.verb.data for p in per], axis=0)
    mean_action = np.mean([p.action.data for p in per], axis=0)
    assert np.allclose(clip.verb.data, mean_verb, rtol=1e-12, atol=1e-12)
    assert np.allclose(clip.action.data, mean_action, rtol=1e-12, atol=1e-12)


def test_hf_tsn_forward_segment_count_check():
    rng = np.random.default_rng(10)
    model = small_setup()
    with pytest.raises(ShapeError):
        model.forward({"frames": rng.normal(size=(1, 4, 2, 8, 8))})


def test_hf_tsn_end_to_end_gradients():
    rng = np.random.default_rng(11)
    model = small_setup(t=2)
    frames = rng.normal(size=(2, 2, 2, 8, 8))
    probe = rng.normal(size=(2, 3))
    # Nudge the identity/zero initialisations off their saddle points.
    params = {k: Tensor(v.data + 0.05 * rng.normal(size=v.shape))
              for k, v in model.params().items()}

    def forward(p):
        model.set_params(dict(p))
        out = model.forward({"frames": frames})
        return mean_along(hadamard(out.action, Tensor(probe)), None)

    report = grad_check(forward, params)
    assert report.passed, report.summary()
