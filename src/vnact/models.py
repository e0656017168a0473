"""Model families built from the cells, backbone and heads.

Every model owns a flat name->Tensor parameter dict (the manifest
namespace used for checkpoints), exposes group_of(name) for schedule
group selection, and scores inputs into a verb/noun/action triple via
forward(). Inputs arrive as a dict of batched (B, T, C, H, W) arrays:
"frames" for appearance clips, "flow" for stacked-displacement clips; the
scores come back as (B, K) logits per task. There is no unbatched form: a
single clip is a batch of one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Tuple

import numpy as np

from .cells import ConvLstmParams, GruParams, LstaParams, rollout, run_lsta_gru
from .errors import ShapeError, ValidationError, _known_keys, _typed
from .heads import LabelSpace, ScoreTriple, StructuredHeadParams, structured_forward
from .hftsn import BackboneParams, HfBlockParams, backbone_forward, consensus
from .ops import mean_along, reshape
from .tensor import Tensor
from .tnsf import load_bundle, save_bundle
from .twostream import (
    FusionParams,
    MotionAttentionParams,
    cross_modal_rollout,
    fuse_scores,
    motion_spatial_attention,
)

# Schedule group of each parameter-name prefix (the part before the first
# dot). Two-stream names are looked up without their "app."/"motion."
# stream prefix; each backbone's last stage is "backbone_last_stage".
_GROUP_OF_PREFIX = {
    "backbone": "backbone",
    "lsta": "lsta",
    "gru_a": "grus",
    "gru_b": "grus",
    "hf": "hf",
    "attn": "motion_attn",
    "convlstm": "convlstm",
    "fusion": "fusion",
    "head": "heads",
    "head_lsta": "heads",
    "head_gru": "heads",
}
_STREAMS = ("app.", "motion.")


def _group_map(names) -> Dict[str, str]:
    """name -> schedule group for every parameter name of one model."""
    parts = {}
    for name in names:
        stream, inner = name.split(".", 1) if name.startswith(_STREAMS) else ("", name)
        parts[name] = (stream, inner.split("."))
    last_stage = {}
    for stream, (prefix, *rest) in parts.values():
        if prefix == "backbone":
            last_stage[stream] = max(last_stage.get(stream, 0), int(rest[0][len("stage"):]))
    groups = {}
    for name, (stream, (prefix, *rest)) in parts.items():
        if prefix not in _GROUP_OF_PREFIX:
            raise ValidationError(f"parameter '{name}' belongs to no schedule group")
        last = prefix == "backbone" and int(rest[0][len("stage"):]) == last_stage[stream]
        groups[name] = "backbone_last_stage" if last else _GROUP_OF_PREFIX[prefix]
    return groups


_FUSION_DEFAULTS = {"fusion_kernel": 3, "fusion_temporal_width": 3}


def _read_config(config: dict, *keys) -> list:
    """Values of ``keys`` in a family config, which may hold no other key:
    ``stage_channels`` a nonempty list of sizes (ints of at least 1), ``hf_positions``
    a list of stage indices, ``app`` and ``motion`` stream configs (their families
    read them), every other key one size. Only the fusion widths may be absent
    (they default to 3); anything else is a ValidationError."""
    if not isinstance(config, dict):
        raise ValidationError(f"model config must be an object, got {type(config).__name__}")
    _known_keys(config, keys, "model config keys")
    values = []
    for key in keys:
        if key not in config and key not in _FUSION_DEFAULTS:
            raise ValidationError(f"model config lacks key '{key}'")
        v = config.get(key, _FUSION_DEFAULTS.get(key))
        if key not in ("app", "motion"):
            listed = key in ("stage_channels", "hf_positions")
            v = _typed(v, Tuple[int, ...] if listed else int, key)
            if key != "hf_positions" and min(v if listed else (v,), default=0) < 1:
                raise ValidationError(
                    f"model config '{key}' must hold sizes of at least 1, got {config[key]}")
        values.append(v)
    return values


def _get_input(inputs: Dict, key: str) -> Tensor:
    if key not in inputs:
        raise ValidationError(f"model expects input '{key}', got {sorted(inputs)}")
    x = inputs[key]
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.ndim != 5:
        raise ShapeError(f"input '{key}' must be (B, T, C, H, W), got {t.shape}")
    return t


class ModelBase:
    """Shared parameter-dict plumbing for all families. Each family class
    defines ``forward(inputs, train=False, rng=None, dropout_p=0.0)``."""

    family = "base"

    def __init__(self, config: dict, space: LabelSpace, params: Dict[str, Tensor]):
        self.config = dict(config)
        self.space = space
        self._params = dict(params)
        self._groups = _group_map(self._params)

    def params(self) -> Dict[str, Tensor]:
        return dict(self._params)

    def set_params(self, params: Dict[str, Tensor]) -> None:
        if set(params) != set(self._params):
            missing = set(self._params) - set(params)
            extra = set(params) - set(self._params)
            raise ValidationError(f"parameter names changed (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, t in params.items():
            if t.shape != self._params[name].shape:
                raise ShapeError(
                    f"parameter '{name}' extent changed: {self._params[name].shape} -> {t.shape}")
        self._params = dict(params)

    def groups(self) -> set:
        return set(self._groups.values())

    def group_of(self, name: str) -> str:
        if name not in self._groups:
            raise ValidationError(f"unknown parameter '{name}'")
        return self._groups[name]

    def _head(self, prefix: str, desc: Tensor, train, rng, dropout_p) -> ScoreTriple:
        return structured_forward(desc, StructuredHeadParams.from_dict(prefix, self._params),
                                  self.space, train=train, rng=rng, dropout_p=dropout_p)

    def save(self, directory) -> None:
        os.makedirs(directory, exist_ok=True)
        meta = {
            "family": self.family,
            "config": self.config,
            "label_space": json.loads(self.space.to_json()),
        }
        with open(os.path.join(directory, "model.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
        save_bundle(os.path.join(directory, "params"),
                    {name: t.data for name, t in self._params.items()})


class LstaModel(ModelBase):
    """Appearance stream: backbone features rolled through the attentive cell."""

    family = "lsta"

    @classmethod
    def create(cls, config: dict, space: LabelSpace, seed: int) -> "LstaModel":
        cin, stages, d = _read_config(config, "input_channels", "stage_channels", "memory")
        params = {}
        params.update(BackboneParams.create(cin, stages, seed, "backbone").as_dict("backbone"))
        params.update(LstaParams.create(stages[-1], d, seed, "lsta").as_dict("lsta"))
        params.update(StructuredHeadParams.create(d, space, seed, "head").as_dict("head"))
        return cls(config, space, params)

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        feats = backbone_forward(_get_input(inputs, "frames"),
                                 BackboneParams.from_dict("backbone", self._params))
        *_, state = rollout(feats, LstaParams.from_dict("lsta", self._params))
        return self._head("head", mean_along(state.c, (-2, -1)), train, rng, dropout_p)


class LstaGruModel(ModelBase):
    """Attentive cell plus two gated aggregators over its pooled hidden maps.

    The pooled final memory and the concatenated aggregator states are
    scored by separate heads and the two triples averaged.
    """

    family = "lsta_gru"

    @classmethod
    def create(cls, config: dict, space: LabelSpace, seed: int) -> "LstaGruModel":
        cin, stages, d, g = _read_config(
            config, "input_channels", "stage_channels", "memory", "gru_hidden")
        params = {}
        params.update(BackboneParams.create(cin, stages, seed, "backbone").as_dict("backbone"))
        params.update(LstaParams.create(stages[-1], d, seed, "lsta").as_dict("lsta"))
        params.update(GruParams.create(d, g, seed, "gru_a").as_dict("gru_a"))
        params.update(GruParams.create(d, g, seed, "gru_b").as_dict("gru_b"))
        params.update(StructuredHeadParams.create(d, space, seed, "head_lsta").as_dict("head_lsta"))
        params.update(StructuredHeadParams.create(2 * g, space, seed, "head_gru").as_dict("head_gru"))
        return cls(config, space, params)

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        feats = backbone_forward(_get_input(inputs, "frames"),
                                 BackboneParams.from_dict("backbone", self._params))
        lsta_desc, gru_desc = run_lsta_gru(
            feats,
            LstaParams.from_dict("lsta", self._params),
            GruParams.from_dict("gru_a", self._params),
            GruParams.from_dict("gru_b", self._params),
        )
        return fuse_scores(self._head("head_lsta", lsta_desc, train, rng, dropout_p),
                           self._head("head_gru", gru_desc, train, rng, dropout_p))


class HfTsnModel(ModelBase):
    """Segment consensus network with temporal-interaction blocks."""

    family = "hf_tsn"

    @classmethod
    def create(cls, config: dict, space: LabelSpace, seed: int) -> "HfTsnModel":
        cin, stages, _, positions = _read_config(
            config, "input_channels", "stage_channels", "segments", "hf_positions")
        if sorted(positions) != sorted(set(positions) & set(range(len(stages)))):
            raise ValidationError(
                f"hf_positions must be distinct stage indices below {len(stages)}, got {list(positions)}")
        params = {}
        params.update(BackboneParams.create(cin, stages, seed, "backbone").as_dict("backbone"))
        widths = [cin] + list(stages)
        for p in positions:
            params.update(HfBlockParams.create(widths[p]).as_dict(f"hf.{p}"))
        params.update(StructuredHeadParams.create(stages[-1], space, seed, "head").as_dict("head"))
        return cls(config, space, params)

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        frames = _get_input(inputs, "frames")
        b, t_len = frames.shape[:2]
        if t_len != self.config["segments"]:
            raise ShapeError(f"clip has {t_len} segments, config expects {self.config['segments']}")
        feats = backbone_forward(
            frames, BackboneParams.from_dict("backbone", self._params),
            hf={p: HfBlockParams.from_dict(f"hf.{p}", self._params)
                for p in self.config["hf_positions"]})
        pooled = mean_along(feats, (-2, -1))  # (B, T, F)
        per_seg = self._head("head", reshape(pooled, (b * t_len, pooled.shape[-1])),
                             train, rng, dropout_p)
        return ScoreTriple(*(consensus(reshape(logits, (b, t_len, logits.shape[-1])))
                             for logits in per_seg))


class MotionModel(ModelBase):
    """Motion stream: attention-sharpened flow features into a ConvLSTM."""

    family = "motion"

    @classmethod
    def create(cls, config: dict, space: LabelSpace, seed: int) -> "MotionModel":
        cin, stages, d = _read_config(config, "flow_channels", "stage_channels", "memory")
        params = {}
        params.update(BackboneParams.create(cin, stages, seed, "backbone").as_dict("backbone"))
        params.update(MotionAttentionParams.create(stages[-1]).as_dict("attn"))
        params.update(ConvLstmParams.create(stages[-1], d, seed, "convlstm").as_dict("convlstm"))
        params.update(StructuredHeadParams.create(d, space, seed, "head").as_dict("head"))
        return cls(config, space, params)

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        feats = motion_spatial_attention(
            backbone_forward(_get_input(inputs, "flow"),
                             BackboneParams.from_dict("backbone", self._params)),
            MotionAttentionParams.from_dict("attn", self._params))
        *_, state = rollout(feats, ConvLstmParams.from_dict("convlstm", self._params))
        return self._head("head", mean_along(state.c, (-2, -1)), train, rng, dropout_p)


class TwoStreamModel(ModelBase):
    """Appearance and motion streams coupled by cross-modal gate biases.

    Stream parameters live under the "app." and "motion." prefixes; the
    fusion kernels under "fusion." start at zero, so a freshly fused model
    scores exactly like the average of its two source streams.
    """

    family = "two_stream"

    @classmethod
    def create(cls, config: dict, space: LabelSpace, seed: int) -> "TwoStreamModel":
        app_cfg, motion_cfg, kernel, width = _read_config(config, "app", "motion", *_FUSION_DEFAULTS)
        return cls._fuse(LstaModel.create(app_cfg, space, seed),
                         MotionModel.create(motion_cfg, space, seed), kernel, width)

    @classmethod
    def from_streams(cls, app: LstaModel, motion: MotionModel) -> "TwoStreamModel":
        """Couple two trained streams through zero fusion kernels of the default widths."""
        if not (isinstance(app, LstaModel) and isinstance(motion, MotionModel)):
            raise ValidationError(f"two-stream fusion needs an lsta and a motion stream, "
                                  f"got {app.family} and {motion.family}")
        if app.space.space_hash() != motion.space.space_hash():
            raise ValidationError("streams disagree on the label space")
        return cls._fuse(app, motion, *_FUSION_DEFAULTS.values())

    @classmethod
    def _fuse(cls, app: LstaModel, motion: MotionModel, kernel: int, width: int) -> "TwoStreamModel":
        params = {f"app.{name}": t for name, t in app.params().items()}
        params.update({f"motion.{name}": t for name, t in motion.params().items()})
        # Both stream configs were read when their models were built.
        fusion = FusionParams.create(
            app_channels=app.config["stage_channels"][-1],
            motion_channels=motion.config["stage_channels"][-1],
            app_memory=app.config["memory"], motion_memory=motion.config["memory"],
            kernel_size=kernel, temporal_width=width)
        params.update(fusion.as_dict("fusion"))
        config = {"app": dict(app.config), "motion": dict(motion.config),
                  "fusion_kernel": kernel, "fusion_temporal_width": width}
        return cls(config, app.space, params)

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        frames, flow = _get_input(inputs, "frames"), _get_input(inputs, "flow")
        app_feats = backbone_forward(frames, BackboneParams.from_dict("app.backbone", self._params))
        mot_feats = motion_spatial_attention(
            backbone_forward(flow, BackboneParams.from_dict("motion.backbone", self._params)),
            MotionAttentionParams.from_dict("motion.attn", self._params))
        app_desc, mot_desc = cross_modal_rollout(
            app_feats, mot_feats,
            LstaParams.from_dict("app.lsta", self._params),
            ConvLstmParams.from_dict("motion.convlstm", self._params),
            FusionParams.from_dict("fusion", self._params))
        return fuse_scores(self._head("app.head", app_desc, train, rng, dropout_p),
                           self._head("motion.head", mot_desc, train, rng, dropout_p))


FAMILIES = {
    cls.family: cls for cls in (LstaModel, LstaGruModel, HfTsnModel, MotionModel, TwoStreamModel)
}


def create_model(family: str, config: dict, space: LabelSpace, seed: int) -> ModelBase:
    if not isinstance(family, str) or family not in FAMILIES:
        raise ValidationError(f"unknown model family '{family}' (have {sorted(FAMILIES)})")
    return FAMILIES[family].create(config, space, seed)


def load_model(directory) -> ModelBase:
    meta_path = os.path.join(directory, "model.json")
    if not os.path.exists(meta_path):
        raise ValidationError(f"no model.json under {directory}")
    with open(meta_path) as fh:
        try:
            meta = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"model.json: invalid JSON ({exc})") from exc
    if not isinstance(meta, dict):
        raise ValidationError(f"model.json must hold an object, got {type(meta).__name__}")
    for key in ("family", "config", "label_space"):
        if key not in meta:
            raise ValidationError(f"model.json: missing key '{key}'")
    space = LabelSpace.from_json(json.dumps(meta["label_space"]))
    model = create_model(meta["family"], meta["config"], space, seed=0)
    stored = load_bundle(os.path.join(directory, "params"))
    model.set_params({name: Tensor(arr, grad_enabled=True) for name, arr in stored.items()})
    return model
