"""Synthetic labeled video surrogate.

Each sample is a T×C×H×W clip whose verb plants a temporal signature (a
class-phased sinusoid added uniformly over channel 0) and whose noun
plants a spatial one (a corner blob on channel 1 whose corner and
amplitude encode the class), plus i.i.d. Gaussian noise. The sinusoid
frequency is deliberately non-integer so the sampled values of two
different phases never form shifted copies of one another, keeping the
verb classes separable even for consensus models that only see the
per-frame value distribution.

Labels are always drawn from the observed-action vocabulary, so every
generated (verb, noun) pair is feasible.
"""

from __future__ import annotations

import json
import os
import zipfile
from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

import numpy as np

from .errors import ValidationError, _typed
from .heads import LabelSpace
from .init import rng_for

# Signature constants; gains below are per-modality multipliers on these.
VERB_FREQ = 1.5  # cycles per clip; non-integer on purpose (see module docstring)
VERB_AMP = 1.0
NOUN_AMP = 1.2
NOUN_LEVEL_STEP = 0.9  # amplitude gap between corner reuse levels
BLOB_SIGMA_FRAC = 1 / 6  # blob width as a fraction of frame height

# Per-modality signature gains: the motion modality carries a stronger
# temporal cue and a weaker spatial one, mirroring what displacement
# fields would preserve.
MODALITY_GAINS = {
    "appearance": {"verb": 1.0, "noun": 1.0},
    "flow": {"verb": 1.5, "noun": 0.4},
}


def verb_template(verb: int, num_verbs: int, t_len: int) -> np.ndarray:
    """Noiseless temporal signature (T,) of a verb class."""
    t = np.arange(t_len)
    phase = 2.0 * np.pi * verb / num_verbs
    return VERB_AMP * np.sin(2.0 * np.pi * VERB_FREQ * (t + 0.5) / t_len + phase)


def noun_template(noun: int, height: int, width: int) -> np.ndarray:
    """Noiseless spatial signature (H, W) of a noun class.

    The class picks one of the four corners and an amplitude level, so
    position and magnitude jointly encode it.
    """
    corner = noun % 4
    level = 1.0 + NOUN_LEVEL_STEP * (noun // 4)
    m = max(1, height // 5)
    centers = [(m, m), (m, width - 1 - m), (height - 1 - m, m), (height - 1 - m, width - 1 - m)]
    cy, cx = centers[corner]
    yy, xx = np.mgrid[0:height, 0:width]
    sigma = max(1.0, height * BLOB_SIGMA_FRAC)
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma * sigma))
    return NOUN_AMP * level * blob


def clean_clip(verb: int, noun: int, space: LabelSpace, t_len: int, channels: int,
               height: int, width: int, verb_gain: float = 1.0, noun_gain: float = 1.0) -> np.ndarray:
    """Noiseless clip (T, C, H, W) for a (verb, noun) pair."""
    clip = np.zeros((t_len, channels, height, width))
    wave = verb_gain * verb_template(verb, space.num_verbs, t_len)
    clip[:, 0] += wave[:, None, None]
    if channels > 1:
        clip[:, 1] += noun_gain * noun_template(noun, height, width)
    return clip


@dataclass
class SyntheticDataset:
    """Labeled clips for one or more modalities, all sharing the labels: integer
    ids, each (verb, noun) the pair of its action in ``space``."""

    space: LabelSpace
    segment_ids: List[str]
    inputs: Dict[str, np.ndarray]  # modality key -> (n, T, C, H, W)
    verbs: np.ndarray
    nouns: np.ndarray
    actions: np.ndarray
    split_tag: str = "custom"

    def __post_init__(self):
        n = len(self.segment_ids)
        if len(set(self.segment_ids)) != n:
            raise ValidationError("duplicate segment ids")
        for key, arr in self.inputs.items():
            if arr.ndim != 5 or arr.shape[0] != n:
                raise ValidationError(f"input '{key}' must be (n, T, C, H, W) with n={n}, got {arr.shape}")
        for name, arr in (("verbs", self.verbs), ("nouns", self.nouns), ("actions", self.actions)):
            if arr.shape != (n,) or arr.dtype.kind not in "iu":
                raise ValidationError(f"label array '{name}' must hold ({n},) integers, "
                                      f"got {arr.dtype} {arr.shape}")
        if np.any((self.actions < 0) | (self.actions >= self.space.num_actions)):
            raise ValidationError(f"an action id lies outside the {self.space.num_actions} actions")
        pairs = np.asarray(self.space.actions, dtype=np.int64).reshape(-1, 2)[self.actions]
        wrong = (pairs[:, 0] != self.verbs) | (pairs[:, 1] != self.nouns)
        if wrong.any():
            i = int(np.argmax(wrong))
            raise ValidationError(f"segment '{self.segment_ids[i]}': verb {self.verbs[i]} and noun "
                                  f"{self.nouns[i]} are not action {self.actions[i]}'s pair")

    def __len__(self) -> int:
        return len(self.segment_ids)

    def batch(self, indices):
        idx = np.asarray(indices, dtype=np.int64)
        inputs = {k: arr[idx] for k, arr in self.inputs.items()}
        return inputs, (self.verbs[idx], self.nouns[idx], self.actions[idx])

    def view(self, modalities) -> "SyntheticDataset":
        """The same samples holding only the inputs named in ``modalities``
        (shared, not copied); naming one this dataset lacks is a ValidationError."""
        missing = sorted(set(modalities) - set(self.inputs))
        if missing:
            raise ValidationError(f"dataset has no {missing} input (it holds {sorted(self.inputs)})")
        return replace(self, inputs={k: self.inputs[k] for k in modalities})

    def labels_by_segment(self) -> Dict[str, tuple]:
        return {seg: (int(self.verbs[i]), int(self.nouns[i]), int(self.actions[i]))
                for i, seg in enumerate(self.segment_ids)}

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        with open(os.path.join(directory, "label_space.json"), "w") as fh:
            fh.write(self.space.to_json())
        meta = {"split_tag": self.split_tag, "segment_ids": self.segment_ids,
                "modalities": sorted(self.inputs)}
        with open(os.path.join(directory, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        arrays = {f"input_{k}": v for k, v in self.inputs.items()}
        np.savez(os.path.join(directory, "data.npz"), verbs=self.verbs, nouns=self.nouns,
                 actions=self.actions, **arrays)

    @classmethod
    def load(cls, directory) -> "SyntheticDataset":
        """Read a saved dataset; a missing or malformed file is a ValidationError."""
        for fname in ("label_space.json", "meta.json", "data.npz"):
            if not os.path.exists(os.path.join(directory, fname)):
                raise ValidationError(f"dataset directory {directory} is missing {fname}")
        with open(os.path.join(directory, "label_space.json")) as fh:
            space = LabelSpace.from_json(fh.read())
        try:
            with open(os.path.join(directory, "meta.json")) as fh:
                meta = json.load(fh)
            segment_ids = list(_typed(meta["segment_ids"], Tuple[str, ...], "segment_ids"))
            split_tag = _typed(meta["split_tag"], str, "split_tag")
        except (OSError, ValueError, TypeError, KeyError, ValidationError) as exc:
            raise ValidationError(f"{directory}: malformed meta.json ({exc!r})") from exc
        try:
            with np.load(os.path.join(directory, "data.npz")) as data:
                arrays = {k: data[k] for k in data.files}
            labels = {k: arrays[k] for k in ("verbs", "nouns", "actions")}
        except (OSError, ValueError, TypeError, KeyError, zipfile.BadZipFile) as exc:
            raise ValidationError(f"{directory}: malformed data.npz ({exc!r})") from exc
        inputs = {k[len("input_"):]: v for k, v in arrays.items() if k.startswith("input_")}
        return cls(space=space, segment_ids=segment_ids, inputs=inputs, split_tag=split_tag,
                   **labels)


def _draw_labels(space: LabelSpace, n_samples: int, seed: int):
    rng = rng_for(seed, "labels")
    actions = rng.integers(0, space.num_actions, size=n_samples).astype(np.int64)
    pairs = np.asarray(space.actions, dtype=np.int64)
    return pairs[actions, 0], pairs[actions, 1], actions


def _render_modality(space, verbs, nouns, t_len, channels, height, width,
                     noise_sigma, seed, modality) -> np.ndarray:
    gains = MODALITY_GAINS[modality]
    rng = rng_for(seed, modality)
    n = len(verbs)
    clips = rng.normal(0.0, noise_sigma, size=(n, t_len, channels, height, width)) \
        if noise_sigma > 0 else np.zeros((n, t_len, channels, height, width))
    for i in range(n):
        clips[i] += clean_clip(int(verbs[i]), int(nouns[i]), space, t_len, channels,
                               height, width, gains["verb"], gains["noun"])
    return clips


def make_synthetic(space: LabelSpace, n_samples: int, t_len: int, channels: int,
                   height: int, width: int, noise_sigma: float, seed: int,
                   split_tag: str = "custom") -> SyntheticDataset:
    """Generate labeled appearance clips (input key ``frames``); same seed, same bits."""
    if space.num_actions == 0:
        raise ValidationError("label space has no actions")
    if min(n_samples, t_len, channels, height, width) < 1:
        raise ValidationError("all extents must be positive")
    if noise_sigma < 0:
        raise ValidationError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    verbs, nouns, actions = _draw_labels(space, n_samples, seed)
    clips = _render_modality(space, verbs, nouns, t_len, channels, height, width,
                             noise_sigma, seed, "appearance")
    ids = [f"{split_tag}_{i:05d}" for i in range(n_samples)]
    return SyntheticDataset(space=space, segment_ids=ids, inputs={"frames": clips},
                            verbs=verbs, nouns=nouns, actions=actions, split_tag=split_tag)


def make_two_stream_synthetic(space: LabelSpace, n_samples: int, t_len: int,
                              channels: int, flow_channels: int, height: int, width: int,
                              noise_sigma: float, seed: int,
                              split_tag: str = "custom") -> SyntheticDataset:
    """:func:`make_synthetic`'s appearance clips, checked and drawn the same way,
    plus flow clips (input key ``flow``) sharing their labels."""
    if flow_channels < 2 or flow_channels % 2:
        raise ValidationError(f"flow channel count must be a positive even number (x/y pairs), "
                              f"got {flow_channels}")
    ds = make_synthetic(space, n_samples, t_len, channels, height, width, noise_sigma, seed,
                        split_tag)
    flow = _render_modality(space, ds.verbs, ds.nouns, t_len, flow_channels, height, width,
                            noise_sigma, seed, "flow")
    return replace(ds, inputs={**ds.inputs, "flow": flow})


def default_label_space(num_verbs: int = 6, num_nouns: int = 8, num_actions: int = 12,
                        seed: int = 0) -> LabelSpace:
    """A label space whose actions cover every verb and noun at least once."""
    if num_actions < max(num_verbs, num_nouns):
        raise ValidationError("need at least max(V, N) actions to cover both vocabularies")
    if num_actions > num_verbs * num_nouns:
        raise ValidationError("more actions than distinct (verb, noun) pairs")
    rng = rng_for(seed, "label-space")
    # (i mod V, i mod N) for i < max(V, N) covers both vocabularies and stays
    # duplicate-free because max(V, N) ≤ lcm(V, N); the rest is random fill.
    pairs = [(i % num_verbs, i % num_nouns) for i in range(max(num_verbs, num_nouns))]
    seen = set(pairs)
    while len(pairs) < num_actions:
        v = int(rng.integers(0, num_verbs))
        n = int(rng.integers(0, num_nouns))
        if (v, n) not in seen:
            pairs.append((v, n))
            seen.add((v, n))
    verbs = [f"verb_{i}" for i in range(num_verbs)]
    nouns = [f"noun_{i}" for i in range(num_nouns)]
    return LabelSpace(verbs=tuple(verbs), nouns=tuple(nouns), actions=tuple(pairs[:num_actions]))
