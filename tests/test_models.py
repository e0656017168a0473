"""Model families: construction, parameter groups, forward, persistence."""

import json

import numpy as np
import pytest

from vnact.battery import _FAMILY_CONFIGS
from vnact.errors import ShapeError, ValidationError
from vnact.heads import LabelSpace
from vnact.models import (
    FAMILIES,
    HfTsnModel,
    LstaGruModel,
    LstaModel,
    MotionModel,
    TwoStreamModel,
    create_model,
    load_model,
)
from vnact.synthetic import default_label_space
from vnact.tensor import Tensor


SPACE = default_label_space(3, 4, 5, seed=0)


def lsta_config():
    return {"input_channels": 2, "stage_channels": [3, 4], "memory": 3}


def lsta_gru_config():
    return {"input_channels": 2, "stage_channels": [3, 4], "memory": 3, "gru_hidden": 4}


def hf_config():
    return {"input_channels": 2, "stage_channels": [3, 4], "segments": 3,
            "hf_positions": [0, 1]}


def motion_config():
    return {"flow_channels": 4, "stage_channels": [3, 4], "memory": 3}


def rand_inputs(rng, b=2, t=3, c=2, hw=8):
    return {"frames": rng.normal(size=(b, t, c, hw, hw))}


# ---------------------------------------------------------------------------
# registry


def test_family_registry():
    assert set(FAMILIES) == {"lsta", "lsta_gru", "hf_tsn", "motion", "two_stream"}
    with pytest.raises(ValidationError):
        create_model("resnet", {}, SPACE, seed=0)


# ---------------------------------------------------------------------------
# groups


def test_lsta_gru_groups_cover_schedule_names():
    model = LstaGruModel.create(lsta_gru_config(), SPACE, seed=1)
    assert model.groups() == {"backbone", "backbone_last_stage", "lsta", "grus", "heads"}
    assert model.group_of("backbone.stage0.kernel") == "backbone"
    assert model.group_of("backbone.stage1.kernel") == "backbone_last_stage"
    assert model.group_of("lsta.gate_kernel") == "lsta"
    assert model.group_of("gru_a.w_update") == "grus"
    assert model.group_of("head_gru.w_act") == "heads"
    with pytest.raises(ValidationError):
        model.group_of("mystery.w")


def test_hf_tsn_groups():
    model = HfTsnModel.create(hf_config(), SPACE, seed=2)
    assert model.groups() == {"backbone", "backbone_last_stage", "hf", "heads"}
    assert model.group_of("hf.0.w0") == "hf"


def test_motion_groups():
    model = MotionModel.create(motion_config(), SPACE, seed=3)
    assert model.groups() == {"backbone", "backbone_last_stage", "motion_attn",
                              "convlstm", "heads"}


def test_two_stream_groups_strip_stream_prefixes():
    model = TwoStreamModel.create(
        {"app": lsta_config(), "motion": motion_config()}, SPACE, seed=4)
    assert model.groups() == {"backbone", "backbone_last_stage", "lsta", "motion_attn",
                              "convlstm", "heads", "fusion"}
    assert model.group_of("app.lsta.gate_kernel") == "lsta"
    assert model.group_of("motion.convlstm.gate_kernel") == "convlstm"
    assert model.group_of("app.backbone.stage1.kernel") == "backbone_last_stage"
    assert model.group_of("fusion.app_to_motion") == "fusion"


# ---------------------------------------------------------------------------
# parameter dict discipline


def test_set_params_validates_names_and_shapes():
    model = LstaModel.create(lsta_config(), SPACE, seed=5)
    params = model.params()
    model.set_params(params)  # round trip is fine

    missing = dict(params)
    missing.pop("lsta.gate_bias")
    with pytest.raises(ValidationError):
        model.set_params(missing)

    wrong = dict(params)
    wrong["lsta.gate_bias"] = Tensor(np.zeros(5))
    with pytest.raises(ShapeError):
        model.set_params(wrong)


def test_params_returns_a_copy():
    model = LstaModel.create(lsta_config(), SPACE, seed=6)
    p = model.params()
    p.clear()
    assert model.params()  # internal dict untouched


# ---------------------------------------------------------------------------
# forward shapes


def test_forward_shapes_per_family():
    rng = np.random.default_rng(7)
    v, n, a = SPACE.num_verbs, SPACE.num_nouns, SPACE.num_actions

    lsta = LstaModel.create(lsta_config(), SPACE, seed=8)
    out = lsta.forward(rand_inputs(rng))
    assert out.verb.shape == (2, v) and out.noun.shape == (2, n) and out.action.shape == (2, a)

    gru = LstaGruModel.create(lsta_gru_config(), SPACE, seed=9)
    out = gru.forward(rand_inputs(rng))
    assert out.action.shape == (2, a)

    hf = HfTsnModel.create(hf_config(), SPACE, seed=10)
    out = hf.forward(rand_inputs(rng))
    assert out.action.shape == (2, a)

    motion = MotionModel.create(motion_config(), SPACE, seed=11)
    out = motion.forward({"flow": rng.normal(size=(2, 3, 4, 8, 8))})
    assert out.action.shape == (2, a)

    two = TwoStreamModel.create({"app": lsta_config(), "motion": motion_config()}, SPACE, seed=12)
    out = two.forward({"frames": rng.normal(size=(2, 3, 2, 8, 8)),
                       "flow": rng.normal(size=(2, 3, 4, 8, 8))})
    assert out.action.shape == (2, a)


def test_forward_input_validation():
    model = LstaModel.create(lsta_config(), SPACE, seed=15)
    with pytest.raises(ValidationError):
        model.forward({"flow": np.zeros((3, 2, 8, 8))})
    with pytest.raises(ShapeError):
        model.forward({"frames": np.zeros((2, 8, 8))})
    # One unbatched (T, C, H, W) clip is not a batch.
    with pytest.raises(ShapeError):
        model.forward({"frames": np.zeros((3, 2, 8, 8))})
    two = TwoStreamModel.create({"app": lsta_config(), "motion": motion_config()}, SPACE, seed=15)
    with pytest.raises(ShapeError):
        two.forward({"frames": np.zeros((1, 3, 2, 8, 8)), "flow": np.zeros((3, 4, 8, 8))})


# ---------------------------------------------------------------------------
# two-stream construction


def test_from_streams_preserves_stream_parameters_and_zero_fusion():
    rng = np.random.default_rng(16)
    app = LstaModel.create(lsta_config(), SPACE, seed=17)
    motion = MotionModel.create(motion_config(), SPACE, seed=18)
    two = TwoStreamModel.from_streams(app, motion)
    P = two.params()
    for name, t in app.params().items():
        assert np.array_equal(P[f"app.{name}"].data, t.data)
    for name, t in motion.params().items():
        assert np.array_equal(P[f"motion.{name}"].data, t.data)
    assert np.array_equal(P["fusion.app_to_motion"].data,
                          np.zeros(P["fusion.app_to_motion"].shape))

    # At zero fusion the joint model scores exactly the stream average.
    frames = rng.normal(size=(1, 3, 2, 8, 8))
    flow = rng.normal(size=(1, 3, 4, 8, 8))
    fused = two.forward({"frames": frames, "flow": flow})
    a = app.forward({"frames": frames})
    m = motion.forward({"flow": flow})
    assert np.array_equal(fused.action.data, (a.action.data + m.action.data) * 0.5)
    assert np.array_equal(fused.verb.data, (a.verb.data + m.verb.data) * 0.5)


def test_from_streams_requires_matching_label_space():
    app = LstaModel.create(lsta_config(), SPACE, seed=19)
    other = LabelSpace(verbs=("v",), nouns=("n",), actions=((0, 0),))
    motion = MotionModel.create(motion_config(), other, seed=20)
    with pytest.raises(ValidationError):
        TwoStreamModel.from_streams(app, motion)


def test_from_streams_config_names_both_streams_and_the_default_fusion(tmp_path):
    app = LstaModel.create(lsta_config(), SPACE, seed=19)
    motion = MotionModel.create(motion_config(), SPACE, seed=20)
    two = TwoStreamModel.from_streams(app, motion)
    assert two.config == {"app": lsta_config(), "motion": motion_config(),
                          "fusion_kernel": 3, "fusion_temporal_width": 3}
    assert two.params()["fusion.app_to_motion"].shape == (4 * 3, 4, 3, 3, 3)
    two.save(tmp_path / "two")
    back = load_model(tmp_path / "two")
    assert back.config == two.config
    assert sorted(back.params()) == sorted(two.params())


def test_from_streams_requires_an_lsta_and_a_motion_stream():
    app = LstaModel.create(lsta_config(), SPACE, seed=19)
    gru = LstaGruModel.create(lsta_gru_config(), SPACE, seed=19)
    motion = MotionModel.create(motion_config(), SPACE, seed=20)
    for pair in ((gru, motion), (motion, app), (app, app)):
        with pytest.raises(ValidationError, match="needs an lsta and a motion stream"):
            TwoStreamModel.from_streams(*pair)


# ---------------------------------------------------------------------------
# persistence


@pytest.mark.parametrize("family, config, inputs_key, channels", [
    ("lsta", {"input_channels": 2, "stage_channels": [3, 4], "memory": 3}, "frames", 2),
    ("lsta_gru", {"input_channels": 2, "stage_channels": [3, 4], "memory": 3,
                  "gru_hidden": 4}, "frames", 2),
    ("hf_tsn", {"input_channels": 2, "stage_channels": [3, 4], "segments": 3,
                "hf_positions": [1]}, "frames", 2),
    ("motion", {"flow_channels": 4, "stage_channels": [3, 4], "memory": 3}, "flow", 4),
])
def test_save_load_round_trip_is_value_exact(tmp_path, family, config, inputs_key, channels):
    rng = np.random.default_rng(21)
    model = create_model(family, config, SPACE, seed=22)
    clip = rng.normal(size=(2, 3, channels, 8, 8))
    before = model.forward({inputs_key: clip})

    model.save(tmp_path / family)
    back = load_model(tmp_path / family)
    assert back.family == family
    after = back.forward({inputs_key: clip})
    assert np.array_equal(before.verb.data, after.verb.data)
    assert np.array_equal(before.noun.data, after.noun.data)
    assert np.array_equal(before.action.data, after.action.data)
    for name, t in model.params().items():
        assert np.array_equal(back.params()[name].data, t.data)


def test_save_load_two_stream(tmp_path):
    rng = np.random.default_rng(23)
    model = TwoStreamModel.create({"app": lsta_config(), "motion": motion_config()},
                                  SPACE, seed=24)
    inputs = {"frames": rng.normal(size=(2, 3, 2, 8, 8)),
              "flow": rng.normal(size=(2, 3, 4, 8, 8))}
    before = model.forward(inputs)
    model.save(tmp_path / "two")
    back = load_model(tmp_path / "two")
    after = back.forward(inputs)
    assert np.array_equal(before.action.data, after.action.data)


_HEAD = ["b_act", "b_noun", "b_verb", "bias_noun", "bias_verb", "w_act", "w_noun", "w_verb"]
_BACKBONE = ["stage0.bias", "stage0.kernel", "stage1.bias", "stage1.kernel"]
_LSTA = ["attn_kernel", "gate_bias", "gate_kernel", "pool_kernel"]
_GRU = ["b_cand", "b_reset", "b_update", "w_cand", "w_reset", "w_update"]


def _under(prefix, fields):
    return [f"{prefix}.{f}" for f in fields]


def test_checkpoint_names_are_pinned():
    """The manifest namespace of every family at the battery configs."""
    lsta = _under("backbone", _BACKBONE) + _under("head", _HEAD) + _under("lsta", _LSTA)
    motion = (["attn.kernel"] + _under("backbone", _BACKBONE)
              + ["convlstm.gate_bias", "convlstm.gate_kernel"] + _under("head", _HEAD))
    expected = {
        "lsta": lsta,
        "lsta_gru": (_under("backbone", _BACKBONE) + _under("gru_a", _GRU) + _under("gru_b", _GRU)
                     + _under("head_gru", _HEAD) + _under("head_lsta", _HEAD)
                     + _under("lsta", _LSTA)),
        "hf_tsn": (_under("backbone", _BACKBONE) + _under("head", _HEAD)
                   + ["hf.0.w0", "hf.0.w1", "hf.1.w0", "hf.1.w1"]),
        "motion": motion,
        "two_stream": (_under("app", lsta) + ["fusion.app_to_motion", "fusion.motion_to_app"]
                       + _under("motion", motion)),
    }
    space = default_label_space(3, 4, 6, seed=0)
    assert {family: sorted(create_model(family, config, space, seed=0).params())
            for family, config in _FAMILY_CONFIGS.items()} == expected


def _grouped(group, names):
    return dict.fromkeys(names, group)


def test_schedule_group_of_every_parameter_is_pinned():
    """group_of for every parameter of every family at the battery configs,
    and groups() as the set of those groups."""
    backbone = {**_grouped("backbone", ["backbone.stage0.bias", "backbone.stage0.kernel"]),
                **_grouped("backbone_last_stage", ["backbone.stage1.bias", "backbone.stage1.kernel"])}
    lsta = {**backbone, **_grouped("lsta", _under("lsta", _LSTA)),
            **_grouped("heads", _under("head", _HEAD))}
    motion = {**backbone, "attn.kernel": "motion_attn",
              "convlstm.gate_bias": "convlstm", "convlstm.gate_kernel": "convlstm",
              **_grouped("heads", _under("head", _HEAD))}
    expected = {
        "lsta": lsta,
        "lsta_gru": {**backbone, **_grouped("lsta", _under("lsta", _LSTA)),
                     **_grouped("grus", _under("gru_a", _GRU) + _under("gru_b", _GRU)),
                     **_grouped("heads", _under("head_lsta", _HEAD) + _under("head_gru", _HEAD))},
        "hf_tsn": {**backbone, **_grouped("hf", ["hf.0.w0", "hf.0.w1", "hf.1.w0", "hf.1.w1"]),
                   **_grouped("heads", _under("head", _HEAD))},
        "motion": motion,
        "two_stream": {**{f"app.{name}": group for name, group in lsta.items()},
                       **{f"motion.{name}": group for name, group in motion.items()},
                       **_grouped("fusion", ["fusion.app_to_motion", "fusion.motion_to_app"])},
    }
    space = default_label_space(3, 4, 6, seed=0)
    for family, config in _FAMILY_CONFIGS.items():
        model = create_model(family, config, space, seed=0)
        assert {name: model.group_of(name) for name in model.params()} == expected[family]
        assert model.groups() == set(expected[family].values())


@pytest.mark.parametrize("family, config, key", [
    ("lsta", lsta_config(), "memory"),
    ("lsta_gru", lsta_gru_config(), "gru_hidden"),
    ("hf_tsn", hf_config(), "segments"),
    ("motion", motion_config(), "flow_channels"),
    ("two_stream", {"app": lsta_config(), "motion": motion_config()}, "motion"),
])
def test_create_model_names_a_missing_config_key(family, config, key):
    config.pop(key)
    with pytest.raises(ValidationError, match=f"lacks key '{key}'"):
        create_model(family, config, SPACE, seed=0)


@pytest.mark.parametrize("family, config, key", [
    ("lsta", dict(lsta_config(), memroy=8), "memroy"),
    ("lsta_gru", dict(lsta_gru_config(), gru_hiden=4), "gru_hiden"),
    ("hf_tsn", dict(hf_config(), memory=3), "memory"),
    ("motion", dict(motion_config(), input_channels=2), "input_channels"),
    ("two_stream", {"app": lsta_config(), "motion": motion_config(), "fusion_kernal": 1},
     "fusion_kernal"),
    ("two_stream", {"app": dict(lsta_config(), flow_channels=4), "motion": motion_config()},
     "flow_channels"),
])
def test_create_model_rejects_an_unknown_config_key(family, config, key):
    with pytest.raises(ValidationError) as info:
        create_model(family, config, SPACE, seed=0)
    assert str(info.value) == f"unknown model config keys ['{key}']"


def test_load_model_rejects_an_unknown_config_key(tmp_path):
    create_model("lsta", lsta_config(), SPACE, seed=25).save(tmp_path / "m")
    meta = json.loads((tmp_path / "m" / "model.json").read_text())
    meta["config"]["memroy"] = 8
    (tmp_path / "m" / "model.json").write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="unknown model config keys"):
        load_model(tmp_path / "m")


@pytest.mark.parametrize("family, config, message", [
    ("lsta", dict(lsta_config(), stage_channels=4), "'stage_channels' must be list of int"),
    ("lsta", dict(lsta_config(), memory=[3]), "'memory' must be int"),
    ("hf_tsn", dict(hf_config(), hf_positions=1), "'hf_positions' must be list of int"),
    ("two_stream", {"app": lsta_config(), "motion": motion_config(), "fusion_kernel": [1]},
     "'fusion_kernel' must be int"),
])
def test_create_model_takes_each_config_key_in_one_kind(family, config, message):
    """A size is one int and a list setting a list, whichever the value looks like."""
    with pytest.raises(ValidationError, match=message):
        create_model(family, config, SPACE, seed=0)


def test_create_model_rejects_non_integer_config_values():
    with pytest.raises(ValidationError, match="'memory'"):
        create_model("lsta", dict(lsta_config(), memory="three"), SPACE, seed=0)
    with pytest.raises(ValidationError, match="must be an object"):
        create_model("two_stream", {"app": 5, "motion": motion_config()}, SPACE, seed=0)


@pytest.mark.parametrize("family, config, key", [
    ("lsta", dict(lsta_config(), memory=True), "memory"),
    ("lsta", dict(lsta_config(), stage_channels=[2, 3.7]), "stage_channels"),
    ("hf_tsn", dict(hf_config(), segments=2.9), "segments"),
    ("lsta", dict(lsta_config(), memory=3.0), "memory"),
    ("motion", dict(motion_config(), flow_channels="4"), "flow_channels"),
])
def test_create_model_rejects_bool_and_fractional_config_values(family, config, key):
    with pytest.raises(ValidationError, match=f"config '{key}' must be int"):
        create_model(family, config, SPACE, seed=0)


@pytest.mark.parametrize("family, config, key", [
    ("lsta", dict(lsta_config(), memory=0), "memory"),
    ("lsta", dict(lsta_config(), stage_channels=[2, 0]), "stage_channels"),
    ("lsta", dict(lsta_config(), stage_channels=[]), "stage_channels"),
    ("lsta_gru", dict(lsta_gru_config(), gru_hidden=0), "gru_hidden"),
    ("lsta_gru", dict(lsta_gru_config(), memory=0), "memory"),
    ("lsta_gru", dict(lsta_gru_config(), stage_channels=[2, -3]), "stage_channels"),
    ("hf_tsn", dict(hf_config(), stage_channels=[]), "stage_channels"),
    ("hf_tsn", dict(hf_config(), stage_channels=[2, -3]), "stage_channels"),
    ("hf_tsn", dict(hf_config(), input_channels=0), "input_channels"),
    ("hf_tsn", dict(hf_config(), segments=0), "segments"),
    ("motion", dict(motion_config(), memory=0), "memory"),
    ("motion", dict(motion_config(), stage_channels=[]), "stage_channels"),
    ("motion", dict(motion_config(), flow_channels=0), "flow_channels"),
    ("two_stream", {"app": dict(lsta_config(), memory=0), "motion": motion_config()}, "memory"),
    ("two_stream", {"app": lsta_config(), "motion": dict(motion_config(), stage_channels=[])},
     "stage_channels"),
    ("two_stream", {"app": lsta_config(), "motion": motion_config(), "fusion_kernel": 0},
     "fusion_kernel"),
])
def test_create_model_rejects_sizes_below_one(family, config, key):
    with pytest.raises(ValidationError, match=f"model config '{key}' must hold sizes of at least 1"):
        create_model(family, config, SPACE, seed=0)


def test_load_model_config_without_stage_channels(tmp_path):
    model = create_model("lsta", lsta_config(), SPACE, seed=25)
    model.save(tmp_path / "m")
    meta = json.loads((tmp_path / "m" / "model.json").read_text())
    del meta["config"]["stage_channels"]
    (tmp_path / "m" / "model.json").write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match="lacks key 'stage_channels'"):
        load_model(tmp_path / "m")


def test_load_model_missing_or_bad_metadata(tmp_path):
    with pytest.raises(ValidationError):
        load_model(tmp_path / "nowhere")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "model.json").write_text("{\"family\": \"lsta\"}")
    with pytest.raises(ValidationError):
        load_model(bad)


@pytest.mark.parametrize("text, message", [
    ("5", "must hold an object"),
    ("{\"family\": \"lsta\",", "invalid JSON"),
])
def test_load_model_rejects_a_malformed_model_json(tmp_path, text, message):
    create_model("lsta", lsta_config(), SPACE, seed=25).save(tmp_path / "m")
    (tmp_path / "m" / "model.json").write_text(text)
    with pytest.raises(ValidationError, match=message):
        load_model(tmp_path / "m")


def test_create_model_rejects_a_non_string_family():
    for family in (["lsta"], {"lsta": 1}):
        with pytest.raises(ValidationError, match="unknown model family"):
            create_model(family, lsta_config(), SPACE, seed=0)


@pytest.mark.parametrize("label_space, message", [
    (5, "must be an object"),
    (["verbs", "nouns", "actions"], "must be an object"),
    ({"verbs": [], "nouns": [], "actions": [[0]]}, "config 'actions' must be"),
])
def test_load_model_rejects_a_malformed_label_space(tmp_path, label_space, message):
    create_model("lsta", lsta_config(), SPACE, seed=25).save(tmp_path / "m")
    meta = json.loads((tmp_path / "m" / "model.json").read_text())
    meta["label_space"] = label_space
    (tmp_path / "m" / "model.json").write_text(json.dumps(meta))
    with pytest.raises(ValidationError, match=message):
        load_model(tmp_path / "m")
