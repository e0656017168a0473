"""Label space construction and the coupled verb/noun/action head."""

import json

import numpy as np
import pytest

from vnact.errors import ShapeError, ValidationError
from vnact.gradcheck import grad_check
from vnact.heads import (
    TASKS,
    LabelSpace,
    ScoreTriple,
    StructuredHeadParams,
    build_label_space,
    cross_entropy,
    derive_pair,
    multi_task_loss,
    structured_forward,
)
from vnact.ops import affine
from vnact.tensor import Tensor, hadamard


def toy_space():
    return LabelSpace(
        verbs=("take", "put"),
        nouns=("cup", "plate", "pan"),
        actions=((0, 0), (0, 2), (1, 1)),
    )


# ---------------------------------------------------------------------------
# label space


def test_space_counts_and_pair_map():
    space = toy_space()
    assert (space.num_verbs, space.num_nouns, space.num_actions) == (2, 3, 3)
    assert space.pair_to_action == {(0, 0): 0, (0, 2): 1, (1, 1): 2}
    assert derive_pair(1, space) == (0, 2)
    with pytest.raises(ValidationError):
        derive_pair(3, space)


def test_space_rejects_bad_pairs():
    with pytest.raises(ValidationError):
        LabelSpace(verbs=("a",), nouns=("b",), actions=((0, 1),))
    with pytest.raises(ValidationError):
        LabelSpace(verbs=("a",), nouns=("b", "c"), actions=((0, 0), (0, 0)))


def test_space_json_round_trip_and_hash():
    space = toy_space()
    back = LabelSpace.from_json(space.to_json())
    assert back == space
    assert back.space_hash() == space.space_hash()
    other = LabelSpace(verbs=("take", "put"), nouns=("cup", "plate", "pan"),
                       actions=((0, 0), (0, 2), (1, 2)))
    assert other.space_hash() != space.space_hash()
    with pytest.raises(ValidationError):
        LabelSpace.from_json("{\"verbs\": []}")
    with pytest.raises(ValidationError):
        LabelSpace.from_json("nope")


@pytest.mark.parametrize("pair", [[0.9, True], [0.9, 0], [0, True]])
def test_space_json_rejects_bool_and_fractional_ids(pair):
    text = json.dumps({"verbs": ["a"], "nouns": ["b"], "actions": [pair]})
    with pytest.raises(ValidationError, match="must be int"):
        LabelSpace.from_json(text)


@pytest.mark.parametrize("payload, message", [
    ({"verbs": "abc", "nouns": ["x"], "actions": [[0, 0]]}, "config 'verbs' must be list of str"),
    ({"verbs": ["a"], "nouns": ["x", [1, 2]], "actions": [[0, 0]]}, "config 'nouns' must be str"),
    ({"verbs": ["a"], "nouns": ["x"], "actions": [[0, 0, 0]]}, "config 'actions' must be"),
    ({"verbs": ["a"], "nouns": ["x"], "actions": {"0": [0, 0]}}, "config 'actions' must be"),
])
def test_space_json_rejects_a_string_or_mapping_where_a_list_belongs(payload, message):
    with pytest.raises(ValidationError, match=message):
        LabelSpace.from_json(json.dumps(payload))


def test_build_label_space_first_occurrence_order():
    annotations = [
        ("s0", 1, 0),
        ("s1", 0, 2),
        ("s2", 1, 0),  # repeat — must not add a second action
        ("s3", 0, 0),
    ]
    space = build_label_space(annotations)
    assert space.actions == ((1, 0), (0, 2), (0, 0))
    assert space.verbs == ("verb_0", "verb_1")
    assert space.nouns == ("noun_0", "noun_1", "noun_2")


def test_build_label_space_validates_ids():
    with pytest.raises(ValidationError):
        build_label_space([("s0", -1, 0)])
    with pytest.raises(ValidationError):
        build_label_space([("s0", 2, 0)], verbs=["v0", "v1"])
    with pytest.raises(ValidationError):
        build_label_space([("s0", 0, 5)], nouns=["n0"])


# ---------------------------------------------------------------------------
# score triple


def test_score_triple_task_and_detach():
    st = ScoreTriple(verb=Tensor([1.0]), noun=Tensor([2.0]), action=np.array([3.0]))
    assert ScoreTriple._fields == TASKS == ("verb", "noun", "action")
    assert tuple(st) == (st.verb, st.noun, st.action)
    det = st.detached()
    assert isinstance(det.verb, np.ndarray) and det.verb.dtype == np.float64
    assert np.array_equal(det.action, np.array([3.0]))


# ---------------------------------------------------------------------------
# structured head


def test_structured_forward_matches_affine_oracle():
    rng = np.random.default_rng(0)
    space = toy_space()
    head = StructuredHeadParams.create(feature_dim=5, space=space, seed=1)
    # Give the bias maps real values so the coupling is exercised.
    d = {k: Tensor(rng.normal(size=v.shape) * 0.3) for k, v in head.as_dict("h").items()}
    head = StructuredHeadParams.from_dict("h", d)
    x = rng.normal(size=(4, 5))
    out = structured_forward(Tensor(x), head, space)
    act = x @ head.w_act.data + head.b_act.data
    verb = x @ head.w_verb.data + head.b_verb.data + act @ head.bias_verb.data
    noun = x @ head.w_noun.data + head.b_noun.data + act @ head.bias_noun.data
    assert np.allclose(out.action.data, act, rtol=1e-13, atol=1e-13)
    assert np.allclose(out.verb.data, verb, rtol=1e-13, atol=1e-13)
    assert np.allclose(out.noun.data, noun, rtol=1e-13, atol=1e-13)


def test_structured_forward_zero_bias_maps_decouple_bitwise():
    rng = np.random.default_rng(1)
    space = toy_space()
    head = StructuredHeadParams.create(feature_dim=4, space=space, seed=2)
    assert np.array_equal(head.bias_verb.data, np.zeros((3, 2)))
    x = Tensor(rng.normal(size=(3, 4)))
    out = structured_forward(x, head, space)
    plain_verb = affine(x, head.w_verb, head.b_verb)
    plain_noun = affine(x, head.w_noun, head.b_noun)
    assert np.array_equal(out.verb.data, plain_verb.data)
    assert np.array_equal(out.noun.data, plain_noun.data)


def test_structured_forward_validation():
    space = toy_space()
    head = StructuredHeadParams.create(feature_dim=4, space=space, seed=4)
    with pytest.raises(ShapeError):
        structured_forward(Tensor(np.zeros((2, 5))), head, space)
    # One unbatched feature vector is not a batch.
    with pytest.raises(ShapeError):
        structured_forward(Tensor(np.zeros(4)), head, space)
    with pytest.raises(ValidationError):
        structured_forward(Tensor(np.zeros((2, 4))), head, space, train=True, dropout_p=0.5)
    bigger = LabelSpace(verbs=("a", "b", "c"), nouns=("x",), actions=((0, 0), (1, 0)))
    with pytest.raises(ShapeError):
        structured_forward(Tensor(np.zeros((2, 4))), head, bigger, train=False)


def test_structured_forward_dropout_determinism():
    rng_data = np.random.default_rng(3)
    space = toy_space()
    head = StructuredHeadParams.create(feature_dim=6, space=space, seed=5)
    x = Tensor(rng_data.normal(size=(4, 6)))
    a = structured_forward(x, head, space, train=True,
                           rng=np.random.default_rng(11), dropout_p=0.5)
    b = structured_forward(x, head, space, train=True,
                           rng=np.random.default_rng(11), dropout_p=0.5)
    assert np.array_equal(a.action.data, b.action.data)
    c = structured_forward(x, head, space, train=False)
    assert not np.array_equal(a.action.data, c.action.data)


# ---------------------------------------------------------------------------
# losses


def test_cross_entropy_matches_log_softmax_oracle():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(5, 4)) * 2.0
    labels = rng.integers(0, 4, size=5)
    loss = cross_entropy(Tensor(logits), labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expect = -logp[np.arange(5), labels].mean()
    assert np.allclose(loss.item(), expect, rtol=1e-12, atol=1e-12)


def test_cross_entropy_uniform_logits_is_log_k():
    loss = cross_entropy(Tensor(np.zeros((3, 7))), np.array([0, 3, 6]))
    assert np.isclose(loss.item(), np.log(7.0), rtol=0, atol=1e-15)


def test_cross_entropy_label_range_check():
    with pytest.raises(ValidationError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))
    with pytest.raises(ValidationError):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([-1, 0]))
    # One unbatched logit row is not a batch.
    with pytest.raises(ShapeError):
        cross_entropy(Tensor(np.zeros(3)), np.array([0]))


def test_multi_task_loss_sums_per_task_terms():
    rng = np.random.default_rng(5)
    space = toy_space()
    scores = ScoreTriple(
        verb=Tensor(rng.normal(size=(4, 2))),
        noun=Tensor(rng.normal(size=(4, 3))),
        action=Tensor(rng.normal(size=(4, 3))),
    )
    labels = (np.array([0, 1, 0, 1]), np.array([0, 1, 2, 0]), np.array([0, 2, 1, 0]))
    total = multi_task_loss(scores, labels)
    parts = [cross_entropy(logits, y).item() for logits, y in zip(scores, labels)]
    assert np.isclose(total.item(), sum(parts), rtol=1e-14, atol=1e-14)
    verb_only = multi_task_loss(scores, labels, tasks=("verb",))
    assert np.isclose(verb_only.item(), parts[0], rtol=0, atol=0)
    with pytest.raises(ValidationError):
        multi_task_loss(scores, labels, tasks=("verb", "pair"))
    with pytest.raises(ValidationError):
        multi_task_loss(scores, labels, tasks=())


def test_structured_head_gradients_through_loss():
    rng = np.random.default_rng(6)
    space = toy_space()
    base = StructuredHeadParams.create(feature_dim=4, space=space, seed=7)
    params = {k: Tensor(v.data + 0.1 * rng.normal(size=v.shape))
              for k, v in base.as_dict("head").items()}
    params["x"] = Tensor(rng.normal(size=(3, 4)))
    labels = (np.array([0, 1, 1]), np.array([0, 2, 1]), np.array([0, 1, 2]))

    def forward(p):
        head = StructuredHeadParams.from_dict("head", p)
        out = structured_forward(p["x"], head, space)
        return multi_task_loss(out, labels)

    report = grad_check(forward, params)
    assert report.passed, report.summary()


def test_head_params_round_trip():
    space = toy_space()
    head = StructuredHeadParams.create(feature_dim=4, space=space, seed=8)
    d = head.as_dict("h")
    assert len(d) == 8
    back = StructuredHeadParams.from_dict("h", d)
    assert np.array_equal(back.w_act.data, head.w_act.data)
