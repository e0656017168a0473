"""Structured verb/noun/action prediction.

Actions are the verb-noun pairs observed in the annotations, so the
action classifier can only name feasible combinations. Its raw logits are
fed through two linear maps and added to the verb and noun logits as an
instance-specific bias, coupling the three tasks.

A ScoreTriple's fields name the three tasks once: ``TASKS`` is their
tuple, and every loop over tasks (loss, fusion, score tables, metrics)
walks a triple in that order. Scores are logits; wherever a class is
predicted from them (training accuracy, metrics, decoding), a tie goes
to the lower class index.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ShapeError, ValidationError, _check_fields
from .init import ParamStruct, uniform_fan_in, zeros_param
from .ops import affine, cross_entropy, dropout, matmul
from .tensor import Tensor, add


@dataclass(frozen=True)
class LabelSpace:
    """Verb and noun vocabularies plus the observed action vocabulary.

    ``actions[a]`` is the (verb_id, noun_id) pair of action ``a``; the
    reverse map is injective and covers exactly the observed pairs.
    """

    verbs: Tuple[str, ...]
    nouns: Tuple[str, ...]
    actions: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        _check_fields(self)
        seen = {}
        for a, (v, n) in enumerate(self.actions):
            if not (0 <= v < len(self.verbs)) or not (0 <= n < len(self.nouns)):
                raise ValidationError(f"action {a} pair ({v},{n}) outside vocabularies")
            if (v, n) in seen:
                raise ValidationError(f"duplicate action pair ({v},{n})")
            seen[(v, n)] = a

    @property
    def num_verbs(self) -> int:
        return len(self.verbs)

    @property
    def num_nouns(self) -> int:
        return len(self.nouns)

    @property
    def num_actions(self) -> int:
        return len(self.actions)

    @property
    def pair_to_action(self) -> dict:
        return {(v, n): a for a, (v, n) in enumerate(self.actions)}

    def to_json(self) -> str:
        payload = {
            "verbs": list(self.verbs),
            "nouns": list(self.nouns),
            "actions": [list(p) for p in self.actions],
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "LabelSpace":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"label space: invalid JSON ({exc})") from exc
        if not isinstance(payload, dict):
            raise ValidationError(f"label space must be an object, got {type(payload).__name__}")
        for key in ("verbs", "nouns", "actions"):
            if key not in payload:
                raise ValidationError(f"label space: missing key '{key}'")
        return cls(verbs=payload["verbs"], nouns=payload["nouns"], actions=payload["actions"])

    def space_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


def build_label_space(
    annotations: Iterable[tuple],
    verbs: Optional[Sequence[str]] = None,
    nouns: Optional[Sequence[str]] = None,
) -> LabelSpace:
    """Enumerate observed verb-noun pairs, in first-occurrence order.

    ``annotations`` yields (segment_id, verb_id, noun_id). When the
    vocabulary name lists are omitted they default to generated names
    sized by the largest id seen.
    """
    pairs: list[tuple] = []
    seen = set()
    max_v = max_n = -1
    for seg, v, n in annotations:
        v, n = int(v), int(n)
        if v < 0 or n < 0:
            raise ValidationError(f"segment {seg}: negative label id ({v},{n})")
        if verbs is not None and v >= len(verbs):
            raise ValidationError(f"segment {seg}: verb id {v} outside vocabulary of {len(verbs)}")
        if nouns is not None and n >= len(nouns):
            raise ValidationError(f"segment {seg}: noun id {n} outside vocabulary of {len(nouns)}")
        max_v, max_n = max(max_v, v), max(max_n, n)
        if (v, n) not in seen:
            seen.add((v, n))
            pairs.append((v, n))
    if verbs is None:
        verbs = [f"verb_{i}" for i in range(max_v + 1)]
    if nouns is None:
        nouns = [f"noun_{i}" for i in range(max_n + 1)]
    return LabelSpace(verbs=tuple(verbs), nouns=tuple(nouns), actions=tuple(pairs))


def derive_pair(action_id: int, space: LabelSpace) -> tuple:
    """Recover the (verb_id, noun_id) pair an action was built from."""
    if not 0 <= action_id < space.num_actions:
        raise ValidationError(f"action id {action_id} outside vocabulary of {space.num_actions}")
    return space.actions[action_id]


class ScoreTriple(NamedTuple):
    """Verb, noun and action logits: the unit of prediction and fusion.
    Code that handles every task iterates the triple in this field order."""

    verb: object
    noun: object
    action: object

    def detached(self) -> "ScoreTriple":
        return ScoreTriple(*(np.asarray(x.data if isinstance(x, Tensor) else x, dtype=np.float64)
                             for x in self))


TASKS = ScoreTriple._fields


@dataclass
class StructuredHeadParams(ParamStruct):
    """Three linear classifiers plus the two action-to-bias maps."""

    w_verb: Tensor
    b_verb: Tensor
    w_noun: Tensor
    b_noun: Tensor
    w_act: Tensor
    b_act: Tensor
    bias_verb: Tensor  # (A, V)
    bias_noun: Tensor  # (A, N)

    @classmethod
    def create(cls, feature_dim: int, space: LabelSpace, seed: int, name: str):
        f = feature_dim
        return cls(
            w_verb=uniform_fan_in((f, space.num_verbs), f, seed, f"{name}.w_verb"),
            b_verb=zeros_param((space.num_verbs,)),
            w_noun=uniform_fan_in((f, space.num_nouns), f, seed, f"{name}.w_noun"),
            b_noun=zeros_param((space.num_nouns,)),
            w_act=uniform_fan_in((f, space.num_actions), f, seed, f"{name}.w_act"),
            b_act=zeros_param((space.num_actions,)),
            # Zero bias maps: training starts at the unbiased multi-task point.
            bias_verb=zeros_param((space.num_actions, space.num_verbs)),
            bias_noun=zeros_param((space.num_actions, space.num_nouns)),
        )


def structured_forward(
    feature: Tensor,
    params: StructuredHeadParams,
    space: LabelSpace,
    train: bool = False,
    rng: Optional[np.random.Generator] = None,
    dropout_p: float = 0.0,
) -> ScoreTriple:
    """Score a batch of features (B, ..., F) against all three tasks.

    Action logits double as an instance-specific bias on the verb and noun
    classifiers through the two linear bias maps. Dropout, when training,
    is applied to the features ahead of all three classifiers.
    """
    f = feature
    if f.ndim < 2 or f.shape[-1] != params.w_verb.shape[0]:
        raise ShapeError(f"feature shape {f.shape} is not (B, ..., {params.w_verb.shape[0]})")
    if params.w_verb.shape[1] != space.num_verbs or params.w_act.shape[1] != space.num_actions:
        raise ShapeError("head extents do not match the label space")
    if train and dropout_p > 0.0:
        if rng is None:
            raise ValidationError("dropout requires an rng in training mode")
        f = dropout(f, dropout_p, rng)
    act = affine(f, params.w_act, params.b_act)
    verb = add(affine(f, params.w_verb, params.b_verb), matmul(act, params.bias_verb))
    noun = add(affine(f, params.w_noun, params.b_noun), matmul(act, params.bias_noun))
    return ScoreTriple(verb=verb, noun=noun, action=act)


def multi_task_loss(scores: ScoreTriple, labels: tuple, tasks: Sequence[str] = TASKS) -> Tensor:
    """Equal-weight sum of the per-task cross-entropies of (B, K) scores.

    ``labels`` is (verb_ids, noun_ids, action_ids), each an integer array
    of B ids. ``tasks`` restricts the sum (the flow stream pretrains on
    verbs alone).
    """
    by_name = dict(zip(TASKS, labels))
    total = None
    for t in tasks:
        if t not in by_name:
            raise ValidationError(f"unknown task '{t}'")
        term = cross_entropy(getattr(scores, t), by_name[t])
        total = term if total is None else add(total, term)
    if total is None:
        raise ValidationError("multi_task_loss needs at least one task")
    return total
