"""Standard gradient-check battery.

Each entry is a named deterministic scalar loss over a parameter dict,
sized to keep the full battery under the two-minute budget. Losses probe
the op outputs against fixed random weights so every output coordinate
influences the loss.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from .cells import (
    ConvLstmParams,
    GateBias,
    GruParams,
    LstaParams,
    LstaState,
    convlstm_step,
    gru_step,
    lsta_step,
)
from .gradcheck import GradReport, grad_check
from .heads import StructuredHeadParams, multi_task_loss, structured_forward
from .hftsn import HfBlockParams, consensus, hf_block
from .init import rng_for
from .models import create_model
from .ops import bias_relu, conv2d, conv3d, matmul, mean_along
from .synthetic import default_label_space
from .tensor import Tensor, add, hadamard
from .twostream import FusionParams, MotionAttentionParams, cross_modal_rollout, motion_spatial_attention

Entry = Tuple[str, Callable, Dict[str, Tensor]]


def _param(rng, shape) -> Tensor:
    return Tensor(rng.normal(0.0, 0.5, size=shape), grad_enabled=True)


def _probe_loss(out: Tensor, probe: np.ndarray) -> Tensor:
    return mean_along(hadamard(out, Tensor(probe)), None)


def _entry_matmul(rng) -> Entry:
    params = {"a": _param(rng, (3, 4)), "b": _param(rng, (4, 2))}
    probe = rng.normal(size=(3, 2))
    return "matmul", lambda p: _probe_loss(matmul(p["a"], p["b"]), probe), params


def _entry_conv2d(rng) -> Entry:
    params = {"x": _param(rng, (2, 5, 5)), "k": _param(rng, (3, 2, 3, 3))}
    probe = rng.normal(size=(3, 5, 5))
    return "conv2d", lambda p: _probe_loss(conv2d(p["x"], p["k"]), probe), params


def _entry_conv3d(rng) -> Entry:
    params = {"x": _param(rng, (2, 3, 4, 4)), "k": _param(rng, (2, 2, 3, 3, 3))}
    probe = rng.normal(size=(2, 3, 4, 4))
    return "conv3d", lambda p: _probe_loss(conv3d(p["x"], p["k"]), probe), params


def _cell_entry(rng, step, cls, prefix: str, c: int, d: int, biased: bool) -> Entry:
    """One cell step from a random state. A biased entry runs a batch of 2
    with an external gate-bias map per sample, so the batch sum of the
    gate_bias gradient and the bias-map gradient are checked too."""
    b, h, w = (2 if biased else 1), 4, 4
    base = cls.create(c, d, int(rng.integers(1 << 30)), "g")
    params = {
        "x": _param(rng, (b, c, h, w)),
        "c0": _param(rng, (b, d, h, w)), "h0": _param(rng, (b, d, h, w)),
        **base.as_dict(prefix),
    }
    if biased:
        params["bias"] = _param(rng, (b, 4 * d, h, w))
    pc, ph = rng.normal(size=(b, d, h, w)), rng.normal(size=(b, d, h, w))

    def forward(p):
        state = step(p["x"], LstaState(c=p["c0"], h=p["h0"]), cls.from_dict(prefix, p),
                     GateBias(p["bias"]) if biased else None)
        state = state[0] if step is lsta_step else state
        return add(_probe_loss(state.c, pc), _probe_loss(state.h, ph))

    return step.__name__ + ("_biased" if biased else ""), forward, params


def _entry_lsta_step(rng, biased=False) -> Entry:
    return _cell_entry(rng, lsta_step, LstaParams, "lsta", 3, 3, biased)


def _entry_convlstm_step(rng, biased=False) -> Entry:
    return _cell_entry(rng, convlstm_step, ConvLstmParams, "convlstm", 3, 2, biased)


def _entry_gru_step(rng) -> Entry:
    cin, d = 5, 4
    base = GruParams.create(cin, d, int(rng.integers(1 << 30)), "g")
    params = {"x": _param(rng, (1, cin)), "h": _param(rng, (1, d)), **base.as_dict("gru")}
    probe = rng.normal(size=(1, d))

    def forward(p):
        return _probe_loss(gru_step(p["x"], p["h"], GruParams.from_dict("gru", p)), probe)

    return "gru_step", forward, params


def _entry_bias_relu(rng) -> Entry:
    x, bias = rng.normal(0.0, 0.5, size=(2, 3, 3, 3)), rng.normal(0.0, 0.5, size=3)
    # Every pre-activation sits at least 0.1 from the kink, where central
    # differences hold.
    x[np.abs(x + bias.reshape(3, 1, 1)) < 0.1] += 0.25
    params = {"x": Tensor(x, grad_enabled=True), "bias": Tensor(bias, grad_enabled=True)}
    probe = rng.normal(size=x.shape)
    return "bias_relu", lambda p: _probe_loss(bias_relu(p["x"], p["bias"]), probe), params


def _entry_hf_block(rng, t: int) -> Entry:
    c, h, w = 3, 3, 3
    params = {"f": _param(rng, (1, t, c, h, w))}
    params.update(HfBlockParams(w0=_param(rng, (c,)), w1=_param(rng, (c,))).as_dict("hf"))
    probe = rng.normal(size=(1, t, c, h, w))

    def forward(p):
        return _probe_loss(hf_block(p["f"], HfBlockParams.from_dict("hf", p)), probe)

    return "hf_block" if t > 1 else "hf_block_single_frame", forward, params


def _entry_consensus(rng) -> Entry:
    params = {"s": _param(rng, (1, 5, 7))}
    probe = rng.normal(size=(1, 7))
    return "consensus", lambda p: _probe_loss(consensus(p["s"]), probe), params


def _entry_structured(rng, seed) -> Entry:
    space = default_label_space(3, 4, 6, seed=0)
    feat_dim, batch = 5, 3
    base = StructuredHeadParams.create(feat_dim, space, seed, "h")
    params = {"feat": _param(rng, (batch, feat_dim)), **base.as_dict("head")}
    # Random bias maps so the coupling path gets exercised.
    params["head.bias_verb"] = _param(rng, (space.num_actions, space.num_verbs))
    params["head.bias_noun"] = _param(rng, (space.num_actions, space.num_nouns))
    actions = rng.integers(0, space.num_actions, size=batch)
    pairs = np.asarray(space.actions)
    labels = (pairs[actions, 0], pairs[actions, 1], actions)

    def forward(p):
        head = StructuredHeadParams.from_dict("head", p)
        return multi_task_loss(structured_forward(p["feat"], head, space), labels)

    return "structured_multi_task", forward, params


def _entry_motion_attention(rng) -> Entry:
    c, h, w = 3, 4, 4
    params = {"feat": _param(rng, (1, c, h, w))}
    params.update(MotionAttentionParams(kernel=_param(rng, (1, c, 1, 1))).as_dict("attn"))
    probe = rng.normal(size=(1, c, h, w))

    def forward(p):
        return _probe_loss(
            motion_spatial_attention(p["feat"], MotionAttentionParams.from_dict("attn", p)), probe)

    return "motion_spatial_attention", forward, params


def _entry_cross_modal(rng, seed) -> Entry:
    t, ca, cm, da, dm, h, w = 2, 2, 2, 2, 2, 3, 3
    lsta = LstaParams.create(ca, da, seed, "a")
    clstm = ConvLstmParams.create(cm, dm, seed, "m")
    params = {"app": _param(rng, (1, t, ca, h, w)), "mot": _param(rng, (1, t, cm, h, w))}
    params.update(FusionParams(app_to_motion=_param(rng, (4 * dm, ca, 3, 3, 3)),
                               motion_to_app=_param(rng, (4 * da, cm, 3, 3))).as_dict("fusion"))
    params.update(lsta.as_dict("lsta"))
    params.update(clstm.as_dict("convlstm"))
    pa, pm = rng.normal(size=(1, da)), rng.normal(size=(1, dm))

    def forward(p):
        app_desc, mot_desc = cross_modal_rollout(
            p["app"], p["mot"], LstaParams.from_dict("lsta", p),
            ConvLstmParams.from_dict("convlstm", p), FusionParams.from_dict("fusion", p))
        return add(_probe_loss(app_desc, pa), _probe_loss(mot_desc, pm))

    return "cross_modal_rollout", forward, params


_FAMILY_CONFIGS = {
    "lsta": {"input_channels": 2, "stage_channels": [2, 3], "memory": 2},
    "lsta_gru": {"input_channels": 2, "stage_channels": [2, 3], "memory": 2, "gru_hidden": 2},
    "hf_tsn": {"input_channels": 2, "stage_channels": [2, 3], "segments": 2, "hf_positions": [0, 1]},
    "motion": {"flow_channels": 2, "stage_channels": [2, 3], "memory": 2},
    "two_stream": {"app": {"input_channels": 2, "stage_channels": [2, 3], "memory": 2},
                   "motion": {"flow_channels": 2, "stage_channels": [2, 3], "memory": 2},
                   "fusion_kernel": 1, "fusion_temporal_width": 1},
}


def _entry_family(family: str, seed: int) -> Entry:
    rng = rng_for(seed, f"battery:{family}")
    space = default_label_space(3, 4, 6, seed=0)
    model = create_model(family, _FAMILY_CONFIGS[family], space, seed)
    t, h, w = 2, 4, 4
    # Every input of every battery config has 2 channels.
    inputs = {key: rng.normal(size=(1, t, 2, h, w)) for key in model.modalities}
    actions = rng.integers(0, space.num_actions, size=1)
    pairs = np.asarray(space.actions)
    labels = (pairs[actions, 0], pairs[actions, 1], actions)
    # Zero-initialized fusion/attention kernels sit at softmax saddle points
    # where finite differences are fine but uninformative; nudge them.
    params = model.params()
    for name, tns in params.items():
        if not np.any(tns.data):
            params[name] = Tensor(tns.data + rng.normal(0.0, 0.05, size=tns.shape),
                                  grad_enabled=True)
    model.set_params(params)

    def forward(p):
        model.set_params(p)
        return multi_task_loss(model.forward(inputs), labels)

    return f"family_{family}", forward, model.params()


def standard_battery(seed: int = 0, instances: int = 3) -> List[Entry]:
    """The acceptance battery: op-level entries × instances, one end-to-end
    loss per model family."""
    makers = [
        _entry_matmul, _entry_conv2d, _entry_conv3d, _entry_lsta_step,
        _entry_convlstm_step, _entry_gru_step, lambda rng: _entry_hf_block(rng, 4),
        _entry_consensus, _entry_motion_attention, lambda rng: _entry_lsta_step(rng, biased=True),
        lambda rng: _entry_convlstm_step(rng, biased=True), _entry_bias_relu,
        lambda rng: _entry_hf_block(rng, 1),
    ]
    entries: List[Entry] = []
    for i in range(instances):
        rng = rng_for(seed, f"battery:{i}")
        for make in makers:
            name, fwd, params = make(rng)
            entries.append((f"{name}[{i}]", fwd, params))
        name, fwd, params = _entry_structured(rng, seed + i)
        entries.append((f"{name}[{i}]", fwd, params))
        name, fwd, params = _entry_cross_modal(rng, seed + i)
        entries.append((f"{name}[{i}]", fwd, params))
    for family in sorted(_FAMILY_CONFIGS):
        entries.append(_entry_family(family, seed))
    return entries


def run_battery(seed: int = 0, instances: int = 3) -> List[Tuple[str, GradReport]]:
    return [(name, grad_check(fwd, params))
            for name, fwd, params in standard_battery(seed, instances)]
