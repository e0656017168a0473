"""Model families built from the cells, backbone and heads.

A family's ``create`` registers every layer once, as (prefix, schedule
group, parameter struct); a backbone registers one struct per stage, its
last stage in the group "backbone_last_stage". The struct fields make
the model's flat name->Tensor parameter dict, ``<prefix>.<field>`` (the
manifest namespace used for checkpoints), and each name's schedule
group, which group_of(name) returns. forward() reads the structs and
scores inputs into a verb/noun/action triple. Inputs arrive as a dict of batched (B, T, C, H, W) arrays:
"frames" for appearance clips, "flow" for stacked-displacement clips; the
scores come back as (B, K) logits per task. There is no unbatched form: a
single clip is a batch of one.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Tuple

import numpy as np

from .cells import ConvLstmParams, GruParams, LstaParams, rollout, run_lsta_gru
from .errors import ShapeError, ValidationError, _known_keys, _typed
from .heads import LabelSpace, ScoreTriple, StructuredHeadParams, structured_forward
from .hftsn import HfBlockParams, StageParams, backbone_forward, consensus
from .init import ParamStruct
from .ops import mean_along
from .tensor import Tensor
from .tnsf import load_bundle, save_bundle
from .twostream import (
    FusionParams,
    MotionAttentionParams,
    cross_modal_rollout,
    fuse_scores,
    motion_spatial_attention,
)

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


def _backbone_layers(in_channels: int, stage_channels, seed: int) -> list:
    """Registrations of the backbone stages; the last stage is its own group."""
    widths = [in_channels, *stage_channels]
    last = len(stage_channels) - 1
    return [(f"backbone.stage{s}", "backbone_last_stage" if s == last else "backbone",
             StageParams.create(widths[s], widths[s + 1], seed, f"backbone.stage{s}"))
            for s in range(len(stage_channels))]


def _get_input(inputs: Dict, key: str) -> Tensor:
    if key not in inputs:
        raise ValidationError(f"model expects input '{key}', got {sorted(inputs)}")
    x = inputs[key]
    t = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if t.ndim != 5:
        raise ShapeError(f"input '{key}' must be (B, T, C, H, W), got {t.shape}")
    return t


class ModelBase:
    """Shared parameter plumbing for all families. Each family class
    defines ``forward(inputs, train=False, rng=None, dropout_p=0.0)``, which
    reads the layer structs.

    ``layers`` registers every layer once, in checkpoint order, as
    (prefix, schedule group, struct): the struct's fields are the parameters
    ``<prefix>.<field>``, all in that group."""

    family = "base"

    def __init__(self, config: dict, space: LabelSpace, layers: List[Tuple[str, str, ParamStruct]]):
        self.config = dict(config)
        self.space = space
        self._layer_groups = {prefix: group for prefix, group, _ in layers}
        self._layers = {prefix: struct for prefix, _, struct in layers}
        self._params = {name: t for prefix, struct in self._layers.items()
                        for name, t in struct.as_dict(prefix).items()}
        self._groups = {name: group for prefix, group, struct in layers
                        for name in struct.as_dict(prefix)}

    def _registrations(self) -> List[Tuple[str, str, ParamStruct]]:
        return [(prefix, self._layer_groups[prefix], struct)
                for prefix, struct in self._layers.items()]

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
        self._layers = {prefix: type(struct).from_dict(prefix, params)
                        for prefix, struct in self._layers.items()}

    def groups(self) -> set:
        return set(self._groups.values())

    def group_of(self, name: str) -> str:
        if name not in self._groups:
            raise ValidationError(f"unknown parameter '{name}'")
        return self._groups[name]

    def _backbone(self, prefix: str, config: dict) -> list:
        return [self._layers[f"{prefix}.stage{s}"] for s in range(len(config["stage_channels"]))]

    def _head(self, prefix: str, desc: Tensor, train, rng, dropout_p) -> ScoreTriple:
        return structured_forward(desc, self._layers[prefix], self.space,
                                  train=train, rng=rng, dropout_p=dropout_p)

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
        return cls(config, space, _backbone_layers(cin, stages, seed) + [
            ("lsta", "lsta", LstaParams.create(stages[-1], d, seed, "lsta")),
            ("head", "heads", StructuredHeadParams.create(d, space, seed, "head")),
        ])

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        feats = backbone_forward(_get_input(inputs, "frames"), self._backbone("backbone", self.config))
        *_, state = rollout(feats, self._layers["lsta"])
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
        return cls(config, space, _backbone_layers(cin, stages, seed) + [
            ("lsta", "lsta", LstaParams.create(stages[-1], d, seed, "lsta")),
            ("gru_a", "grus", GruParams.create(d, g, seed, "gru_a")),
            ("gru_b", "grus", GruParams.create(d, g, seed, "gru_b")),
            ("head_lsta", "heads", StructuredHeadParams.create(d, space, seed, "head_lsta")),
            ("head_gru", "heads", StructuredHeadParams.create(2 * g, space, seed, "head_gru")),
        ])

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        feats = backbone_forward(_get_input(inputs, "frames"), self._backbone("backbone", self.config))
        lsta_desc, gru_desc = run_lsta_gru(
            feats, self._layers["lsta"], self._layers["gru_a"], self._layers["gru_b"])
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
        widths = [cin, *stages]
        blocks = [(f"hf.{p}", "hf", HfBlockParams.create(widths[p])) for p in positions]
        return cls(config, space, _backbone_layers(cin, stages, seed) + blocks + [
            ("head", "heads", StructuredHeadParams.create(stages[-1], space, seed, "head")),
        ])

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        frames = _get_input(inputs, "frames")
        t_len = frames.shape[1]
        if t_len != self.config["segments"]:
            raise ShapeError(f"clip has {t_len} segments, config expects {self.config['segments']}")
        feats = backbone_forward(
            frames, self._backbone("backbone", self.config),
            hf={p: self._layers[f"hf.{p}"] for p in self.config["hf_positions"]})
        per_seg = self._head("head", mean_along(feats, (-2, -1)), train, rng, dropout_p)
        return ScoreTriple(*(consensus(logits) for logits in per_seg))


class MotionModel(ModelBase):
    """Motion stream: attention-sharpened flow features into a ConvLSTM."""

    family = "motion"

    @classmethod
    def create(cls, config: dict, space: LabelSpace, seed: int) -> "MotionModel":
        cin, stages, d = _read_config(config, "flow_channels", "stage_channels", "memory")
        return cls(config, space, _backbone_layers(cin, stages, seed) + [
            ("attn", "motion_attn", MotionAttentionParams.create(stages[-1])),
            ("convlstm", "convlstm", ConvLstmParams.create(stages[-1], d, seed, "convlstm")),
            ("head", "heads", StructuredHeadParams.create(d, space, seed, "head")),
        ])

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        feats = motion_spatial_attention(
            backbone_forward(_get_input(inputs, "flow"), self._backbone("backbone", self.config)),
            self._layers["attn"])
        *_, state = rollout(feats, self._layers["convlstm"])
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
        layers = [(f"{stream}.{prefix}", group, struct)
                  for stream, model in (("app", app), ("motion", motion))
                  for prefix, group, struct in model._registrations()]
        # Both stream configs were read when their models were built.
        fusion = FusionParams.create(
            app_channels=app.config["stage_channels"][-1],
            motion_channels=motion.config["stage_channels"][-1],
            app_memory=app.config["memory"], motion_memory=motion.config["memory"],
            kernel_size=kernel, temporal_width=width)
        config = {"app": dict(app.config), "motion": dict(motion.config),
                  "fusion_kernel": kernel, "fusion_temporal_width": width}
        return cls(config, app.space, layers + [("fusion", "fusion", fusion)])

    def forward(self, inputs, train=False, rng=None, dropout_p=0.0) -> ScoreTriple:
        frames, flow = _get_input(inputs, "frames"), _get_input(inputs, "flow")
        app_feats = backbone_forward(frames, self._backbone("app.backbone", self.config["app"]))
        mot_feats = motion_spatial_attention(
            backbone_forward(flow, self._backbone("motion.backbone", self.config["motion"])),
            self._layers["motion.attn"])
        app_desc, mot_desc = cross_modal_rollout(
            app_feats, mot_feats,
            self._layers["app.lsta"], self._layers["motion.convlstm"], self._layers["fusion"])
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
