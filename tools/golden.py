"""Compare the numerics of two vnact source trees, bit for bit.

    python3 tools/golden.py TREE_A TREE_B

Each tree is imported in its own subprocess with ``PYTHONPATH=<tree>/src``.
For each of the five model families the subprocess records, at batch 2 in
train mode with dropout, the scores, the loss and every parameter gradient,
once at default init and once with every all-zero parameter moved off zero.
Per family it also runs a 2-epoch ``run_stage`` under an SGD preset
(``hf_tsn``, every group trainable) and an Adam preset (``lsta_stage1``, the
backbone frozen), with scale jitter, flips and an eval set at
``eval_every=1``, and records the final parameters and every ``log.rows``
entry.

The comparison prints one line per record: ``equal`` or ``DIFFERENT`` with
the sha256 prefix of each side, and for every gradient
max|g_b - g_a| / max|g_a|. It exits 0 when every record is equal, 1 when
any differs and 2 when a tree fails to run. No hashes are stored: BLAS
builds round differently, so two trees are always compared on one machine.
Only long-standing API is used (``create_model``, ``Tape``,
``multi_task_loss``, ``run_stage``, ``apply_overrides``, ``PRESETS``,
``AugmentationConfig`` and the synthetic-data makers), so a change can be
compared with its parent.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

T, H, W, CHANNELS = 3, 8, 8, 2
SMALL = {"input_channels": CHANNELS, "stage_channels": [2, 3], "memory": 2}
CONFIGS = {
    "lsta": SMALL,
    "lsta_gru": {**SMALL, "gru_hidden": 2},
    "hf_tsn": {"input_channels": CHANNELS, "stage_channels": [2, 3], "segments": T,
               "hf_positions": [0, 1]},
    "motion": {"flow_channels": CHANNELS, "stage_channels": [2, 3], "memory": 2},
    "two_stream": {"app": SMALL,
                   "motion": {"flow_channels": CHANNELS, "stage_channels": [2, 3], "memory": 2}},
}
INPUTS = {"lsta": ("frames",), "lsta_gru": ("frames",), "hf_tsn": ("frames",),
          "motion": ("flow",), "two_stream": ("frames", "flow")}
PRESETS = ("hf_tsn", "lsta_stage1")  # SGD, Adam


def _gradient_records(family, moved, records) -> None:
    import vnact
    from vnact.synthetic import default_label_space

    space = default_label_space(3, 4, 6, seed=0)
    model = vnact.create_model(family, CONFIGS[family], space, 1)
    rng = np.random.default_rng(2)
    if moved:
        model.set_params({
            name: vnact.Tensor(t.data + rng.normal(0.0, 0.05, size=t.shape), grad_enabled=True)
            if not np.any(t.data) else t for name, t in model.params().items()})
    inputs = {key: rng.normal(size=(2, T, CHANNELS, H, W)) for key in INPUTS[family]}
    actions = rng.integers(0, space.num_actions, size=2)
    pairs = np.asarray(space.actions)
    labels = (pairs[actions, 0], pairs[actions, 1], actions)
    params = model.params()
    with vnact.Tape() as tape:
        triple = model.forward(inputs, train=True, rng=rng, dropout_p=0.5)
        loss = vnact.multi_task_loss(triple, labels)
    grads = tape.backward(loss)
    prefix = f"{family}/{'moved' if moved else 'default'}"
    for task in ("verb", "noun", "action"):
        records[f"{prefix}/scores/{task}"] = getattr(triple, task).data
    records[f"{prefix}/loss"] = loss.data
    for name, p in params.items():
        g = grads.get(p.uid)
        # A gradient the tape did not produce is recorded as an empty array.
        records[f"{prefix}/grad/{name}"] = g.data if g is not None else np.zeros(0)


def _stage_records(family, preset, records) -> None:
    import vnact
    from vnact import training
    from vnact.synthetic import default_label_space, make_synthetic, make_two_stream_synthetic

    space = default_label_space(3, 4, 6, seed=0)
    splits = []
    for tag, count in (("train", 8), ("test", 4)):
        seed = 5 if tag == "train" else 6
        if "flow" in INPUTS[family]:
            splits.append(make_two_stream_synthetic(space, count, T + 1, CHANNELS, CHANNELS, H, W,
                                                    0.5, seed, split_tag=tag))
        else:
            splits.append(make_synthetic(space, count, T + 1, CHANNELS, H, W, 0.5, seed,
                                         split_tag=tag))
    model = vnact.create_model(family, CONFIGS[family], space, 3)
    groups = sorted(model.groups())
    if training.PRESETS[preset].optimizer == "adam":
        groups = [g for g in groups if not g.startswith("backbone")]
    schedule = training.apply_overrides(training.PRESETS[preset], {
        "epochs": 2, "frames_T": T, "batch_size": 4, "trainable_groups": groups})
    aug = training.AugmentationConfig(scale_jitter=(0.75, 1.0), horizontal_flip=0.5)
    log = training.run_stage(model, splits[0], schedule, seed=4, aug=aug,
                             eval_dataset=splits[1], eval_every=1)
    prefix = f"{family}/{preset}"
    for name, t in model.params().items():
        records[f"{prefix}/param/{name}"] = t.data
    records[f"{prefix}/log"] = np.array([json.dumps(row, sort_keys=True) for row in log.rows])


def dump(out_path: str, src: str) -> None:
    """Write every record of the vnact under ``src`` to an npz file."""
    import vnact

    if not Path(vnact.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"golden: imported vnact from {vnact.__file__}, not {src}")
    records = {}
    for family in CONFIGS:
        for moved in (False, True):
            _gradient_records(family, moved, records)
        for preset in PRESETS:
            _stage_records(family, preset, records)
    np.savez(out_path, **records)


def _digest(arr: np.ndarray) -> str:
    h = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _relative_difference(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} vs {b.shape}"
    scale = float(np.max(np.abs(a), initial=0.0))
    diff = float(np.max(np.abs(b - a), initial=0.0))
    return f"{diff / scale if scale else diff:.3e}"


def _records_of(tree: str, workdir: str, label: str) -> dict:
    src = str(Path(tree).resolve() / "src")
    out = os.path.join(workdir, f"{label}.npz")
    proc = subprocess.run([sys.executable, __file__, "--dump", out, src],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(2)
    with np.load(out) as data:
        return {k: data[k] for k in data.files}


def compare(tree_a: str, tree_b: str) -> int:
    with tempfile.TemporaryDirectory() as workdir:
        a = _records_of(tree_a, workdir, "a")
        b = _records_of(tree_b, workdir, "b")
    differ = 0
    for key in sorted(set(a) | set(b)):
        da = _digest(a[key]) if key in a else "missing"
        db = _digest(b[key]) if key in b else "missing"
        line = f"{'equal' if da == db else 'DIFFERENT':9s} {da[:16]:16s} {db[:16]:16s} {key}"
        if "/grad/" in key and key in a and key in b:
            line += f"  rel {_relative_difference(a[key], b[key])}"
        print(line)
        differ += da != db
    total = len(set(a) | set(b))
    print(f"{total} records: " + (f"{differ} DIFFERENT" if differ else "all equal"))
    return 1 if differ else 0


def main(argv) -> int:
    if len(argv) == 3 and argv[0] == "--dump":
        dump(argv[1], argv[2])
        return 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(*argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
