"""Synthetic data: determinism, label feasibility, signature separability."""

import numpy as np
import pytest

from vnact.errors import ValidationError
from vnact.synthetic import (
    SyntheticDataset,
    clean_clip,
    default_label_space,
    make_synthetic,
    make_two_stream_synthetic,
    noun_template,
    verb_template,
)


SPACE = default_label_space(4, 4, 8, seed=5)


def test_same_seed_same_bits():
    a = make_synthetic(SPACE, 6, 4, 2, 8, 8, 0.5, seed=11)
    b = make_synthetic(SPACE, 6, 4, 2, 8, 8, 0.5, seed=11)
    assert np.array_equal(a.inputs["frames"], b.inputs["frames"])
    assert np.array_equal(a.verbs, b.verbs)
    assert a.segment_ids == b.segment_ids
    c = make_synthetic(SPACE, 6, 4, 2, 8, 8, 0.5, seed=12)
    assert not np.array_equal(a.inputs["frames"], c.inputs["frames"])


def test_labels_always_feasible():
    data = make_synthetic(SPACE, 200, 2, 1, 4, 4, 1.0, seed=13)
    pairs = set(SPACE.actions)
    for v, n, a in zip(data.verbs, data.nouns, data.actions):
        assert SPACE.actions[a] == (v, n)
        assert (int(v), int(n)) in pairs


def nearest_template_labels(clip, space, t_len, h, w):
    """Classify one clip by least-squares match against the clean signatures."""
    wave = clip[:, 0].mean(axis=(1, 2))
    verb = int(np.argmin([np.sum((wave - verb_template(v, space.num_verbs, t_len)) ** 2)
                          for v in range(space.num_verbs)]))
    plane = clip[:, 1].mean(axis=0)
    noun = int(np.argmin([np.sum((plane - noun_template(n, h, w)) ** 2)
                          for n in range(space.num_nouns)]))
    return verb, noun


def test_noiseless_clips_match_templates_exactly():
    data = make_synthetic(SPACE, 24, 6, 2, 12, 12, 0.0, seed=14)
    for i in range(len(data)):
        clip = data.inputs["frames"][i]
        expect = clean_clip(int(data.verbs[i]), int(data.nouns[i]), SPACE, 6, 2, 12, 12)
        assert np.array_equal(clip, expect)
        v, n = nearest_template_labels(clip, SPACE, 6, 12, 12)
        assert (v, n) == (int(data.verbs[i]), int(data.nouns[i]))


def test_template_classifier_survives_acceptance_noise():
    # the acceptance-scale geometry: 16x16 frames, sigma 0.5, T=8
    space = default_label_space(6, 8, 12, seed=42)
    data = make_synthetic(space, 120, 8, 3, 16, 16, 0.5, seed=15)
    hits_v = hits_n = 0
    for i in range(len(data)):
        v, n = nearest_template_labels(data.inputs["frames"][i], space, 8, 16, 16)
        hits_v += v == int(data.verbs[i])
        hits_n += n == int(data.nouns[i])
    assert hits_v / len(data) >= 0.9
    assert hits_n / len(data) >= 0.9


def test_flow_modality_rescales_signatures():
    data = make_two_stream_synthetic(SPACE, 4, 4, 2, 2, 8, 8, 0.0, seed=16)
    for i in range(len(data)):
        expect = clean_clip(int(data.verbs[i]), int(data.nouns[i]), SPACE, 4, 2, 8, 8,
                            verb_gain=1.5, noun_gain=0.4)
        assert np.array_equal(data.inputs["flow"][i], expect)


def test_two_stream_shares_labels_across_modalities():
    data = make_two_stream_synthetic(SPACE, 10, 4, 2, 4, 8, 8, 0.3, seed=17)
    assert set(data.inputs) == {"frames", "flow"}
    assert data.inputs["frames"].shape == (10, 4, 2, 8, 8)
    assert data.inputs["flow"].shape == (10, 4, 4, 8, 8)
    solo = make_synthetic(SPACE, 10, 4, 2, 8, 8, 0.3, seed=17)
    assert np.array_equal(data.verbs, solo.verbs)
    assert np.array_equal(data.inputs["frames"], solo.inputs["frames"])
    with pytest.raises(ValidationError):
        make_two_stream_synthetic(SPACE, 4, 4, 2, 3, 8, 8, 0.3, seed=18)


def test_make_synthetic_validation():
    with pytest.raises(ValidationError):
        make_synthetic(SPACE, 0, 4, 2, 8, 8, 0.5, seed=19)
    with pytest.raises(ValidationError):
        make_synthetic(SPACE, 4, 4, 2, 8, 8, -0.5, seed=19)


def test_default_label_space_covers_both_vocabularies():
    for v, n, a in [(6, 8, 12), (3, 3, 9), (5, 2, 10), (4, 7, 28)]:
        space = default_label_space(v, n, a, seed=20)
        assert space.num_actions == a
        assert {p[0] for p in space.actions} == set(range(v))
        assert {p[1] for p in space.actions} == set(range(n))
        assert len(set(space.actions)) == a  # no duplicate pairs
    same = default_label_space(6, 8, 12, seed=20)
    again = default_label_space(6, 8, 12, seed=20)
    assert same.actions == again.actions


def test_default_label_space_validation():
    with pytest.raises(ValidationError):
        default_label_space(4, 4, 3, seed=0)   # cannot cover both
    with pytest.raises(ValidationError):
        default_label_space(2, 2, 5, seed=0)   # more actions than pairs


def test_dataset_batch_and_labels_by_segment():
    data = make_synthetic(SPACE, 8, 3, 2, 6, 6, 0.1, seed=21, split_tag="train")
    inputs, (v, n, a) = data.batch([2, 5])
    assert inputs["frames"].shape == (2, 3, 2, 6, 6)
    assert np.array_equal(inputs["frames"][0], data.inputs["frames"][2])
    assert v[1] == data.verbs[5]
    by_seg = data.labels_by_segment()
    assert by_seg["train_00002"] == (int(data.verbs[2]), int(data.nouns[2]), int(data.actions[2]))


def test_dataset_save_load_round_trip(tmp_path):
    data = make_two_stream_synthetic(SPACE, 5, 3, 2, 4, 6, 6, 0.2, seed=22, split_tag="t")
    data.save(tmp_path / "ds")
    back = SyntheticDataset.load(tmp_path / "ds")
    assert back.split_tag == "t"
    assert back.segment_ids == data.segment_ids
    assert back.space.actions == data.space.actions
    for key in data.inputs:
        assert np.array_equal(back.inputs[key], data.inputs[key])
    assert np.array_equal(back.actions, data.actions)
    with pytest.raises(ValidationError):
        SyntheticDataset.load(tmp_path / "missing")


@pytest.mark.parametrize("fname, content", [
    ("meta.json", "[1]"),
    ("meta.json", "not json {"),
    ("meta.json", "{}"),
    ("meta.json", '{"segment_ids": "abc", "split_tag": "t"}'),
    ("meta.json", '{"segment_ids": [1, 2, 3], "split_tag": "t"}'),
    ("meta.json", '{"segment_ids": ["a", "b", "c"], "split_tag": 5}'),
    ("data.npz", "garbage"),
])
def test_dataset_load_rejects_malformed_files(tmp_path, fname, content):
    make_synthetic(SPACE, 3, 2, 1, 4, 4, 0.0, seed=24).save(tmp_path / "ds")
    (tmp_path / "ds" / fname).write_text(content)
    with pytest.raises(ValidationError, match=fname):
        SyntheticDataset.load(tmp_path / "ds")


def test_dataset_validation():
    data = make_synthetic(SPACE, 3, 2, 1, 4, 4, 0.0, seed=23)
    with pytest.raises(ValidationError):
        SyntheticDataset(space=SPACE, segment_ids=["a", "a", "b"], inputs=data.inputs,
                         verbs=data.verbs, nouns=data.nouns, actions=data.actions)
    with pytest.raises(ValidationError):
        SyntheticDataset(space=SPACE, segment_ids=data.segment_ids,
                         inputs={"frames": data.inputs["frames"][:, 0]},
                         verbs=data.verbs, nouns=data.nouns, actions=data.actions)
    with pytest.raises(ValidationError):
        SyntheticDataset(space=SPACE, segment_ids=data.segment_ids, inputs=data.inputs,
                         verbs=data.verbs[:2], nouns=data.nouns, actions=data.actions)


def _swap_noun(nouns):
    out = nouns.copy()
    out[0] = (out[0] + 1) % SPACE.num_nouns
    return out


@pytest.mark.parametrize("name, change, message", [
    ("verbs", lambda a: a.astype(np.float64), "must hold"),
    ("verbs", lambda a: a + 0.5, "must hold"),
    ("actions", lambda a: a > 2, "must hold"),
    ("actions", lambda a: np.full_like(a, -1), "outside the 8 actions"),
    ("actions", lambda a: a + SPACE.num_actions, "outside the 8 actions"),
    ("verbs", lambda a: a + SPACE.num_verbs, "are not action"),
    ("nouns", _swap_noun, "are not action"),
], ids=["integral-floats", "fractions", "bools", "negative-action", "action-past-the-end",
        "verb-past-the-end", "foreign-pair"])
def test_dataset_rejects_labels_that_are_not_their_actions_ids(tmp_path, name, change, message):
    data = make_synthetic(SPACE, 6, 2, 1, 4, 4, 0.0, seed=25)
    labels = {"verbs": data.verbs, "nouns": data.nouns, "actions": data.actions}
    labels[name] = change(labels[name])
    with pytest.raises(ValidationError, match=message):
        SyntheticDataset(space=SPACE, segment_ids=data.segment_ids, inputs=data.inputs, **labels)
    data.save(tmp_path / "ds")
    with np.load(tmp_path / "ds" / "data.npz") as saved:
        arrays = {k: saved[k] for k in saved.files}
    np.savez(tmp_path / "ds" / "data.npz", **{**arrays, name: labels[name]})
    with pytest.raises(ValidationError, match=message):
        SyntheticDataset.load(tmp_path / "ds")
