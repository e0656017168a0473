"""Schedules, sampling, augmentation, optimizers, and the stage loop."""

import csv

import numpy as np
import pytest

from vnact.errors import NonFiniteError, ShapeError, ValidationError
from vnact.init import derive_seed
from vnact.models import LstaModel
from vnact.synthetic import default_label_space, make_synthetic
from vnact.tensor import Tensor
from vnact.training import (
    PRESETS,
    AugmentationConfig,
    CropSpec,
    OptimizerState,
    StageSchedule,
    TrainingLog,
    _prepare_batch,
    apply_overrides,
    augment_clip,
    bilinear_resize,
    eval_multiview,
    evaluate,
    lr_at,
    optimizer_step,
    run_stage,
    sample_frames,
)


def tiny_schedule(**kw):
    base = dict(name="t", epochs=4, base_lr=0.01, decay_epochs=(), decay_factor=1.0,
                optimizer="sgd", dropout_p=0.0, batch_size=4, frames_T=3,
                trainable_groups=("heads",))
    base.update(kw)
    return StageSchedule(**base)


# ---------------------------------------------------------------------------
# schedule validation


@pytest.mark.parametrize("kw", [
    {"epochs": -1},
    {"base_lr": 0.0},
    {"optimizer": "rmsprop"},
    {"dropout_p": 1.0},
    {"dropout_p": -0.1},
    {"batch_size": 0},
    {"frames_T": 0},
    {"decay_epochs": (3, 2)},
    {"decay_epochs": (2, 2)},
    {"decay_epochs": (0, 2)},
    {"decay_epochs": (4,)},           # not strictly before the end
    {"decay_factor": 0.0},
    {"per_epoch_decay": 1.5},
    {"per_epoch_decay": 0.9, "decay_epochs": (2,)},  # two decay styles at once
    {"trainable_groups": ()},
])
def test_schedule_validation(kw):
    with pytest.raises(ValidationError):
        tiny_schedule(**kw)


def test_presets_are_verbatim():
    s = PRESETS["lsta_stage1"]
    assert (s.epochs, s.base_lr, s.decay_epochs, s.decay_factor) == (200, 1e-3, (25, 75, 150), 0.1)
    assert (s.optimizer, s.dropout_p, s.batch_size, s.frames_T) == ("adam", 0.7, 32, 20)
    assert s.trainable_groups == ("heads", "lsta", "grus")

    s = PRESETS["lsta_stage2"]
    assert (s.epochs, s.base_lr, s.decay_epochs) == (150, 1e-4, (25, 75))
    assert s.trainable_groups == ("heads", "lsta", "grus", "backbone_last_stage")

    s = PRESETS["hf_tsn"]
    assert (s.epochs, s.base_lr, s.decay_epochs, s.optimizer) == (120, 0.01, (50, 100), "sgd")
    assert (s.dropout_p, s.frames_T) == (0.5, 16)
    assert s.trainable_groups == ("backbone", "backbone_last_stage", "hf", "heads")

    s = PRESETS["flow_pretrain"]
    assert (s.epochs, s.base_lr, s.decay_epochs, s.decay_factor) == (700, 0.01, (75, 150, 250, 500), 0.5)
    assert s.loss_tasks == ("verb",)

    s = PRESETS["flow_stage2"]
    assert (s.epochs, s.decay_epochs, s.decay_factor) == (500, (50, 100), 0.5)
    assert s.loss_tasks == ("verb", "noun", "action")

    s = PRESETS["two_stream"]
    assert (s.epochs, s.base_lr, s.per_epoch_decay, s.optimizer) == (100, 0.01, 0.99, "adam")
    assert s.decay_epochs == ()
    assert "fusion" in s.trainable_groups


def test_apply_overrides_rejects_unknown_keys_and_name():
    with pytest.raises(ValidationError):
        apply_overrides(PRESETS["lsta_stage1"], {"learning_rate": 0.1})
    with pytest.raises(ValidationError):
        apply_overrides(PRESETS["lsta_stage1"], {"name": "other"})


@pytest.mark.parametrize("overrides", [
    {"batch_size": 2.5}, {"epochs": True, "dropout_p": False}, {"dropout_p": False},
    {"frames_T": 8.0}, {"base_lr": True},
    {"decay_epochs": [True, 2.5]}, {"decay_epochs": [50, 60.5]},
    {"decay_epochs": [], "per_epoch_decay": True},
])
def test_apply_overrides_rejects_bools_and_fractions_for_numbers(overrides):
    with pytest.raises(ValidationError, match="must be"):
        apply_overrides(PRESETS["hf_tsn"], overrides)
    assert apply_overrides(PRESETS["hf_tsn"], {"dropout_p": 0, "batch_size": 3}).batch_size == 3


@pytest.mark.parametrize("overrides, message", [
    ({"trainable_groups": "heads"}, "config 'trainable_groups' must be list of str, got 'heads'"),
    ({"loss_tasks": "verb"}, "config 'loss_tasks' must be list of str, got 'verb'"),
    ({"epochs": "30"}, "config 'epochs' must be int, got '30'"),
    ({"epochs": 30.0}, "config 'epochs' must be int, got 30.0"),
    ({"optimizer": 1}, "config 'optimizer' must be str, got 1"),
])
def test_apply_overrides_takes_no_string_for_a_list_and_no_stand_in_for_an_int(overrides, message):
    with pytest.raises(ValidationError) as info:
        apply_overrides(PRESETS["lsta_stage1"], overrides)
    assert str(info.value) == message


def test_apply_overrides_filters_unreachable_decay_points():
    out = apply_overrides(PRESETS["lsta_stage1"], {"epochs": 30})
    assert out.epochs == 30 and out.decay_epochs == (25,)
    out = apply_overrides(PRESETS["hf_tsn"], {"epochs": 40})
    assert out.decay_epochs == ()
    # explicit decay override wins over the filter
    out = apply_overrides(PRESETS["lsta_stage1"], {"epochs": 30, "decay_epochs": [10, 20]})
    assert out.decay_epochs == (10, 20)
    # growing epochs keeps the preset's plan
    out = apply_overrides(PRESETS["hf_tsn"], {"epochs": 300})
    assert out.decay_epochs == (50, 100)


def test_apply_overrides_preserves_preset_objects():
    before = PRESETS["hf_tsn"]
    apply_overrides(before, {"epochs": 10, "batch_size": 4})
    assert PRESETS["hf_tsn"] is before
    assert PRESETS["hf_tsn"].epochs == 120


# ---------------------------------------------------------------------------
# learning-rate plan


def test_lr_at_stepped_plan():
    s = PRESETS["lsta_stage1"]
    assert lr_at(s, 1) == 1e-3
    assert lr_at(s, 25) == 1e-3          # decay applies after the decay epoch
    assert lr_at(s, 26) == pytest.approx(1e-4)
    assert lr_at(s, 76) == pytest.approx(1e-5)
    assert lr_at(s, 151) == pytest.approx(1e-6)
    assert lr_at(s, 200) == pytest.approx(1e-6)


def test_lr_at_halving_plan():
    s = PRESETS["flow_pretrain"]
    assert lr_at(s, 75) == 0.01
    assert lr_at(s, 76) == 0.01 * 0.5
    assert lr_at(s, 501) == 0.01 * 0.5 ** 4
    assert lr_at(s, 700) == 0.01 * 0.5 ** 4


def test_lr_at_per_epoch_plan():
    s = PRESETS["two_stream"]
    assert lr_at(s, 1) == 0.01
    assert lr_at(s, 2) == 0.01 * 0.99
    assert lr_at(s, 100) == pytest.approx(0.01 * 0.99 ** 99)


def test_lr_at_is_nonincreasing_and_bounded():
    for s in PRESETS.values():
        rates = [lr_at(s, e) for e in range(1, s.epochs + 1)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
        assert rates[0] == s.base_lr
    with pytest.raises(ValidationError):
        lr_at(PRESETS["hf_tsn"], 0)
    with pytest.raises(ValidationError):
        lr_at(PRESETS["hf_tsn"], 121)


# ---------------------------------------------------------------------------
# frame sampling


def test_sample_frames_eval_centers():
    assert sample_frames(20, 20) == list(range(20))
    assert sample_frames(40, 20) == list(range(1, 40, 2))
    assert sample_frames(5, 10) == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]
    assert sample_frames(1, 4) == [0, 0, 0, 0]


def test_sample_frames_train_stays_within_segments():
    rng = np.random.default_rng(0)
    for n, t in [(20, 4), (7, 3), (16, 16), (5, 8)]:
        for _ in range(50):
            idx = sample_frames(n, t, rng)
            assert len(idx) == t
            assert all(0 <= i < n for i in idx)
            assert all(a <= b for a, b in zip(idx, idx[1:]))
            for k, i in enumerate(idx):
                lo = int(np.floor(k * n / t))
                hi = max(lo, int(np.ceil((k + 1) * n / t)) - 1)
                assert lo <= i <= hi


def test_sample_frames_validation():
    with pytest.raises(ValidationError):
        sample_frames(0, 4)
    with pytest.raises(ValidationError):
        sample_frames(4, 0)
    with pytest.raises(ValidationError):
        sample_frames(0, 4, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# augmentation and evaluation views


def test_bilinear_resize_identity_and_ramp():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 5, 7))
    assert np.array_equal(bilinear_resize(x, 5, 7), x)
    ramp = np.arange(6.0)[None, :] * np.ones((4, 1))
    up = bilinear_resize(ramp, 4, 11)
    assert np.allclose(up[0], np.linspace(0.0, 5.0, 11), atol=1e-12)


def test_augment_clip_flip_and_identity_jitter():
    rng = np.random.default_rng(2)
    clip = rng.normal(size=(3, 2, 6, 6))
    flipped = augment_clip(clip, None, flip=True)
    assert np.array_equal(flipped, clip[..., ::-1])
    same = augment_clip(clip, (0, 0, 6, 6), flip=False)
    assert np.array_equal(same, clip)
    corner = augment_clip(clip, (2, 3, 1, 1), flip=False)
    assert np.array_equal(corner, np.broadcast_to(clip[..., 2:3, 3:4], clip.shape))


def test_paired_modalities_share_each_samples_draws():
    """Frames and flow of one sample get the same frame indices, crop box and
    flip: both encode the time index along t and the column index along x,
    so any draw that differs between them shows as unequal outputs."""
    b, t, h, w = 6, 16, 8, 10
    ramp = np.arange(t, dtype=float)[:, None, None, None] * 100.0 + np.arange(w, dtype=float)
    ramp = np.broadcast_to(ramp, (b, t, 1, h, w))
    inputs = {"frames": np.repeat(ramp, 3, axis=2), "flow": np.repeat(ramp, 2, axis=2)}
    aug = AugmentationConfig(scale_jitter=(0.5, 1.0), horizontal_flip=0.5, temporal_jitter=True)
    out = _prepare_batch(inputs, 4, aug, np.random.default_rng(7))
    for i in range(b):
        assert np.array_equal(out["frames"][i, :, :2], out["flow"][i])
    # The draws are not all the identity: some sample is jittered, cropped or flipped.
    plain = inputs["frames"][:, sample_frames(t, 4)]
    assert not np.array_equal(out["frames"], plain)


def test_prepare_batch_rejects_modalities_of_different_extents():
    aug = AugmentationConfig()
    for flow_shape in ((2, 5, 2, 4, 4), (2, 4, 2, 4, 6)):
        inputs = {"frames": np.zeros((2, 4, 3, 4, 4)), "flow": np.zeros(flow_shape)}
        with pytest.raises(ValidationError, match="modalities disagree on T or HxW"):
            _prepare_batch(inputs, 2, aug, np.random.default_rng(0))


def test_augmentation_config_validation():
    with pytest.raises(ValidationError):
        AugmentationConfig(horizontal_flip=1.5)
    with pytest.raises(ValidationError):
        AugmentationConfig(scale_jitter=(0.9, 0.5))
    with pytest.raises(ValidationError):
        AugmentationConfig(scale_jitter=(0.0, 0.5))


@pytest.mark.parametrize("kw, message", [
    ({"horizontal_flip": "x"}, "config 'horizontal_flip' must be float, got 'x'"),
    ({"temporal_jitter": 1}, "config 'temporal_jitter' must be bool, got 1"),
    ({"scale_jitter": (0.5,)}, "config 'scale_jitter' must be [float, float], got (0.5,)"),
    ({"scale_jitter": "ab"}, "config 'scale_jitter' must be [float, float], got 'ab'"),
])
def test_augmentation_config_checks_its_field_types(kw, message):
    with pytest.raises(ValidationError) as info:
        AugmentationConfig(**kw)
    assert str(info.value) == message
    assert AugmentationConfig(scale_jitter=[1, 1], horizontal_flip=1).scale_jitter == (1.0, 1.0)


def test_eval_multiview_anchor_order():
    frame = np.arange(9.0).reshape(1, 3, 3)
    views = eval_multiview(frame, CropSpec("lsta_10view"), 2)
    assert len(views) == 10
    assert np.array_equal(views[0], frame[:, 0:2, 0:2])  # top-left
    assert np.array_equal(views[1], frame[:, 0:2, 1:3])  # top-right
    assert np.array_equal(views[2], frame[:, 1:3, 0:2])  # bottom-left
    assert np.array_equal(views[3], frame[:, 1:3, 1:3])  # bottom-right
    assert np.array_equal(views[4], frame[:, 0:2, 0:2])  # center of 3x3 with crop 2
    for i in range(5):
        assert np.array_equal(views[5 + i], views[i][..., ::-1])


def test_eval_multiview_full_crop_collapses_anchors():
    rng = np.random.default_rng(3)
    frame = rng.normal(size=(2, 4, 4))
    views = eval_multiview(frame, CropSpec("lsta_10view"), 4)
    for v in views[:5]:
        assert np.array_equal(v, frame)
    for v in views[5:]:
        assert np.array_equal(v, frame[..., ::-1])
    only = eval_multiview(frame, CropSpec("center"), 4)
    assert len(only) == 1 and np.array_equal(only[0], frame)


def test_eval_multiview_validation():
    for mode in ("grid", "tsn_10crop"):
        with pytest.raises(ValidationError):
            CropSpec(mode)
    with pytest.raises(ValidationError):
        eval_multiview(np.zeros((1, 3, 3)), CropSpec("center"), 4)


def test_eval_multiview_views_share_the_frame():
    frame = np.random.default_rng(5).normal(size=(2, 3, 2, 6, 7))
    for mode, count in (("lsta_10view", 10), ("center", 1)):
        views = eval_multiview(frame, CropSpec(mode), 4)
        assert len(views) == count
        assert all(np.shares_memory(v, frame) for v in views)


def test_tenview_evaluate_keeps_the_bits_of_copied_crops(monkeypatch, tmp_path):
    """The model copies each view into its input tensor, so a two-stream
    ``lsta_10view`` table from crop views writes the same bytes as one from
    contiguous copies of the same crops, for frames and flow alike."""
    from vnact import training
    from vnact.models import create_model
    from vnact.scores import write_score_json
    from vnact.synthetic import make_two_stream_synthetic

    space = default_label_space(3, 4, 6, seed=0)
    data = make_two_stream_synthetic(space, 5, 4, 2, 4, 8, 8, 0.5, 11, split_tag="test")
    small = {"stage_channels": [2, 3], "memory": 2}
    model = create_model("two_stream", {"app": {"input_channels": 2, **small},
                                        "motion": {"flow_channels": 4, **small}}, space, 3)
    views = training.eval_multiview
    written = []
    for copied in (False, True):
        if copied:
            monkeypatch.setattr(training, "eval_multiview", lambda *args: [
                np.ascontiguousarray(v) for v in views(*args)])
        table = evaluate(model, data, frames_t=3, batch_size=4, crop=CropSpec("lsta_10view"),
                         crop_size=6)
        write_score_json(tmp_path / "scores.json", table)
        written.append((tmp_path / "scores.json").read_bytes())
    assert written[0] == written[1]


# ---------------------------------------------------------------------------
# optimizers


def test_sgd_first_step_is_plain_descent():
    # The velocity starts at zero, so momentum only acts from the second step.
    p = {"w": Tensor(np.array([1.0, -2.0]), grad_enabled=True)}
    g = {"w": np.array([0.5, 0.25])}
    new, _ = optimizer_step("sgd", p, g, lr=0.1)
    assert np.array_equal(new["w"].data, np.array([1.0 - 0.05, -2.0 - 0.025]))


def test_sgd_momentum_accumulates_velocity():
    p = {"w": Tensor(np.array([0.0]), grad_enabled=True)}
    state = None
    vel = 0.0
    x = 0.0
    for g in [1.0, -0.5, 2.0]:
        p, state = optimizer_step("sgd", p, {"w": np.array([g])}, lr=0.1, state=state)
        vel = 0.9 * vel + g
        x = x - 0.1 * vel
        assert np.allclose(p["w"].data, [x], atol=1e-15)


def test_adam_first_step_is_signed_lr():
    p = {"w": Tensor(np.array([1.0, 1.0]), grad_enabled=True)}
    g = {"w": np.array([3.0, -0.004])}
    new, _ = optimizer_step("adam", p, g, lr=0.01)
    expect = 1.0 - 0.01 * g["w"] / (np.abs(g["w"]) + 1e-8)
    assert np.allclose(new["w"].data, expect, atol=1e-15)


def test_adam_twenty_step_scalar_trace():
    # gradient of f(x) = x^2 at the current iterate, traced by hand
    p = {"x": Tensor(np.array([1.5]), grad_enabled=True)}
    state = None
    x = 1.5
    m = v = 0.0
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.05
    for t in range(1, 21):
        g = 2.0 * x
        p, state = optimizer_step("adam", p, {"x": np.array([2.0 * p["x"].data[0]])},
                                  lr=lr, state=state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1 ** t)) / (np.sqrt(v / (1 - b2 ** t)) + eps)
        assert abs(p["x"].data[0] - x) < 1e-12
    assert abs(x) < 1.5  # moved toward the minimum


def test_optimizer_respects_trainable_subset():
    p = {"a": Tensor(np.ones(2), grad_enabled=True),
         "b": Tensor(np.ones(2), grad_enabled=True)}
    # run_stage hands over gradients of the trainable subset only.
    new, _ = optimizer_step("sgd", p, {"a": np.ones(2)}, lr=0.1)
    assert new["b"] is p["b"]  # entries without a gradient keep the exact object
    assert not np.array_equal(new["a"].data, p["a"].data)


def test_optimizer_validation():
    p = {"w": Tensor(np.ones(2), grad_enabled=True)}
    with pytest.raises(ValidationError):
        optimizer_step("lbfgs", p, {}, lr=0.1)
    with pytest.raises(ValidationError):
        optimizer_step("sgd", p, {"z": np.ones(2)}, lr=0.1)
    with pytest.raises(ShapeError):
        optimizer_step("sgd", p, {"w": np.ones(3)}, lr=0.1)
    with pytest.raises(NonFiniteError):
        optimizer_step("sgd", p, {"w": np.array([1.0, np.nan])}, lr=0.1)
    with pytest.raises(ValidationError):
        optimizer_step("adam", p, {"w": np.ones(2)}, lr=0.1,
                       state=OptimizerState(kind="sgd"))


# ---------------------------------------------------------------------------
# the stage loop


SPACE = default_label_space(3, 4, 5, seed=7)


def small_model(seed=30):
    return LstaModel.create({"input_channels": 2, "stage_channels": [4, 6], "memory": 6},
                            SPACE, seed=seed)


def small_data(seed=31, n=24):
    return make_synthetic(SPACE, n_samples=n, t_len=4, channels=2, height=8, width=8,
                          noise_sigma=0.25, seed=seed)


def test_run_stage_zero_epochs_leaves_params_untouched():
    model = small_model()
    before = {k: v.data.copy() for k, v in model.params().items()}
    log = run_stage(model, small_data(), tiny_schedule(epochs=0), aug=AugmentationConfig(), seed=1)
    assert log.rows == []
    for k, v in model.params().items():
        assert np.array_equal(v.data, before[k])


def test_run_stage_updates_only_trainable_groups():
    model = small_model()
    before = {k: v.data.copy() for k, v in model.params().items()}
    run_stage(model, small_data(), tiny_schedule(epochs=1, trainable_groups=("heads",)),
              aug=AugmentationConfig(), seed=2)
    after = model.params()
    changed = {k for k in after if not np.array_equal(after[k].data, before[k])}
    assert changed  # the heads moved
    for k in changed:
        assert model.group_of(k) == "heads"
    for k in after:
        if model.group_of(k) != "heads":
            assert np.array_equal(after[k].data, before[k])


def test_run_stage_rejects_unknown_group():
    with pytest.raises(ValidationError):
        run_stage(small_model(), small_data(), tiny_schedule(trainable_groups=("fusion",)),
                  aug=AugmentationConfig())


def test_run_stage_rejects_a_negative_eval_every():
    data = small_data()
    with pytest.raises(ValidationError, match="eval_every must be nonnegative"):
        run_stage(small_model(), data, tiny_schedule(), aug=AugmentationConfig(),
                  eval_dataset=data, eval_every=-1)


def test_run_stage_needs_an_eval_dataset_to_evaluate():
    with pytest.raises(ValidationError, match="eval_every 1 needs an eval dataset, got none"):
        run_stage(small_model(), small_data(), tiny_schedule(), aug=AugmentationConfig(),
                  eval_every=1)


def _trained(model, train, test, monkeypatch):
    """log.rows and final parameters of a 2-epoch stage with an eval every
    epoch, and the input keys ``_prepare_batch`` and the model were handed."""
    from vnact import training

    handed = {"prepare": set(), "forward": set()}
    prepare, forward = training._prepare_batch, model.forward

    def recording_prepare(inputs, *args):
        handed["prepare"] |= {tuple(sorted(inputs))}
        return prepare(inputs, *args)

    def recording_forward(inputs, **kwargs):
        handed["forward"] |= {tuple(sorted(inputs))}
        return forward(inputs, **kwargs)

    monkeypatch.setattr(training, "_prepare_batch", recording_prepare)
    monkeypatch.setattr(model, "forward", recording_forward)
    schedule = tiny_schedule(epochs=2, trainable_groups=tuple(sorted(model.groups())))
    aug = AugmentationConfig(scale_jitter=(0.6, 1.0), horizontal_flip=0.5)
    log = run_stage(model, train, schedule, aug=aug, seed=5, eval_dataset=test, eval_every=1)
    monkeypatch.undo()
    return log.rows, {k: v.data.tobytes() for k, v in model.params().items()}, handed


@pytest.mark.parametrize("family, config, key", [
    ("motion", {"flow_channels": 4, "stage_channels": [3], "memory": 3}, "flow"),
    ("lsta", {"input_channels": 2, "stage_channels": [3], "memory": 3}, "frames"),
])
def test_training_prepares_only_the_inputs_the_model_reads(monkeypatch, family, config, key):
    """On frames+flow data a one-stream model is handed only its declared
    input, by ``_prepare_batch`` and in training and evaluation alike, and
    trains to the bits it trains to on that data with the other input
    dropped: every draw is made per sample, not per input."""
    from dataclasses import replace

    from vnact.models import create_model
    from vnact.synthetic import make_two_stream_synthetic

    train, test = (make_two_stream_synthetic(SPACE, n, 5, 2, 4, 8, 8, 0.5, seed, split_tag=tag)
                   for n, seed, tag in ((10, 50, "train"), (6, 51, "test")))
    rows, params, handed = _trained(create_model(family, config, SPACE, 52), train, test,
                                    monkeypatch)
    assert handed == {"prepare": {(key,)}, "forward": {(key,)}}
    alone = [replace(ds, inputs={key: ds.inputs[key]}) for ds in (train, test)]
    rows_alone, params_alone, _ = _trained(create_model(family, config, SPACE, 52), *alone,
                                           monkeypatch)
    assert rows == rows_alone
    assert params == params_alone


def test_a_dataset_without_the_models_input_is_refused_before_the_first_batch(monkeypatch):
    from vnact import training
    from vnact.models import create_model
    from vnact.synthetic import make_two_stream_synthetic

    model = create_model("motion", {"flow_channels": 4, "stage_channels": [3], "memory": 3},
                         SPACE, 0)
    monkeypatch.setattr(training, "_prepare_batch", lambda *args: pytest.fail("batch prepared"))
    frames_only = small_data(n=4)
    both = make_two_stream_synthetic(SPACE, 4, 4, 2, 4, 8, 8, 0.5, 53)
    for train, test in ((frames_only, None), (both, frames_only)):
        with pytest.raises(ValidationError, match=r"dataset has no \['flow'\] input"):
            run_stage(model, train, tiny_schedule(), aug=AugmentationConfig(),
                      eval_dataset=test, eval_every=0 if test is None else 1)
    with pytest.raises(ValidationError, match=r"dataset has no \['flow'\] input"):
        evaluate(model, frames_only)


def test_run_stage_is_deterministic():
    results = []
    for _ in range(2):
        model = small_model(seed=33)
        run_stage(model, small_data(seed=34),
                  tiny_schedule(epochs=2, trainable_groups=("heads", "lsta")),
                  seed=35, aug=AugmentationConfig(horizontal_flip=0.5))
        results.append({k: v.data for k, v in model.params().items()})
    for k in results[0]:
        assert np.array_equal(results[0][k], results[1][k])


def test_run_stage_reduces_training_loss():
    model = small_model(seed=36)
    sched = tiny_schedule(epochs=5, optimizer="adam", base_lr=1e-3,
                          trainable_groups=("heads", "lsta", "backbone",
                                            "backbone_last_stage"))
    log = run_stage(model, small_data(seed=37, n=32), sched, aug=AugmentationConfig(), seed=38)
    losses = [r["train_loss"] for r in log.rows]
    assert len(losses) == 5
    assert losses[-1] < losses[0]


@pytest.mark.parametrize("fail_at_step", [None, 2])
def test_run_stage_restores_frozen_parameters(monkeypatch, fail_at_step):
    """Frozen entries are swapped for constants only while the stage runs:
    afterwards they are the original objects again, also when the stage
    raises, and every parameter is grad-enabled."""
    import vnact.training as training

    model = small_model(seed=42)
    before = model.params()
    trainable = ("heads", "lsta")
    steps = []
    true_step = training.optimizer_step

    def step(kind, params, *args, **kwargs):
        steps.append({n: t.grad_enabled for n, t in params.items()})
        if len(steps) == fail_at_step:
            raise NonFiniteError("injected")
        return true_step(kind, params, *args, **kwargs)

    monkeypatch.setattr(training, "optimizer_step", step)
    schedule = tiny_schedule(epochs=2, trainable_groups=trainable)
    if fail_at_step is None:
        run_stage(model, small_data(seed=43), schedule, aug=AugmentationConfig(), seed=44)
    else:
        with pytest.raises(NonFiniteError, match="injected"):
            run_stage(model, small_data(seed=43), schedule, aug=AugmentationConfig(), seed=44)
    after = model.params()
    assert all(t.grad_enabled for t in after.values())
    for name, t in after.items():
        if model.group_of(name) in trainable:
            assert t is not before[name]
        else:
            assert t is before[name]
    # While the stage ran, exactly the frozen entries were constants.
    assert all(enabled == (model.group_of(name) in trainable)
               for seen in steps for name, enabled in seen.items())


def test_run_stage_log_and_csv(tmp_path):
    model = small_model(seed=39)
    data = small_data(seed=40, n=16)
    log = run_stage(model, data, tiny_schedule(epochs=2), aug=AugmentationConfig(), seed=41,
                    eval_dataset=data, eval_every=2)
    assert [r["epoch"] for r in log.rows] == [1, 2]
    assert "eval_acc_action" in log.rows[1]
    assert "eval_acc_action" not in log.rows[0]
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == list(TrainingLog.COLUMNS)
    assert len(rows) == 2
    assert float(rows[0]["lr"]) == log.rows[0]["lr"]
    assert rows[0]["eval_acc_action"] == ""


# ---------------------------------------------------------------------------
# evaluation


def test_evaluate_is_deterministic_and_complete():
    model = small_model(seed=42)
    data = small_data(seed=43, n=10)
    t1 = evaluate(model, data, frames_t=3)
    t2 = evaluate(model, data, frames_t=3)
    assert t1.segments() == t2.segments() == data.segment_ids
    for seg in t1.segments():
        for task in ("verb", "noun", "action"):
            assert np.array_equal(t1.results[seg][task], t2.results[seg][task])


def test_evaluate_full_center_crop_matches_plain():
    model = small_model(seed=44)
    data = small_data(seed=45, n=6)
    plain = evaluate(model, data, frames_t=3)
    crop = evaluate(model, data, frames_t=3, crop=CropSpec("center"), crop_size=8)
    for seg in plain.segments():
        for task in ("verb", "noun", "action"):
            assert np.allclose(plain.results[seg][task], crop.results[seg][task],
                               rtol=0, atol=1e-12)


def test_evaluate_tenview_averages_views():
    model = small_model(seed=46)
    data = small_data(seed=47, n=4)
    table = evaluate(model, data, frames_t=3, crop=CropSpec("lsta_10view"), crop_size=6)
    assert table.segments() == data.segment_ids
    with pytest.raises(ValidationError):
        evaluate(model, data, crop=CropSpec("lsta_10view"))


def test_evaluate_rejects_a_frame_count_below_one():
    model = small_model(seed=48)
    data = small_data(seed=49, n=2)
    for frames_t in (0, -1):
        with pytest.raises(ValidationError, match=f"frames_t must be positive, got {frames_t}"):
            evaluate(model, data, frames_t=frames_t)
    assert evaluate(model, data, frames_t=None).segments() == data.segment_ids
