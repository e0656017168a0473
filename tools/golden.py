"""Compare the numerics of two vnact source trees, bit for bit.

    python3 tools/golden.py TREE_A TREE_B

Each tree is imported in its own subprocess with ``PYTHONPATH=<tree>/src``.
For each of the five model families the subprocess records, at batch 2 in
train mode with dropout, the scores, the loss and every parameter gradient,
once at default init and once with every all-zero parameter moved off zero.
The same is recorded for a desk-sized ``lsta_gru`` (memory 16, GRUs of 16)
at batch 2 and 3: its head and GRU products have K >= 16 and, on the
3-verb label space, N = 3, where a BLAS may round a row differently with
the row count, so these records show a change to how products are blocked.
An ``hf_tsn`` at batch 32 on T=8 frames of 16×16 (256 frames per batch,
parameters moved off zero) records the same: every convolution of its
backbone splits the batch into several tiles, so these records show a
change to how a convolution tiles its batch or adds up its tiles.
Per family it also runs a 2-epoch ``run_stage`` under an SGD preset
(``hf_tsn``, every group trainable) and an Adam preset (``lsta_stage1``, the
backbone frozen), with scale jitter, flips and an eval set at
``eval_every=1``, and records the final parameters and every ``log.rows``
entry. From the eval table of that run's final model it records the
``compute_metrics`` values, the ``write_score_json`` bytes, ``decode`` in
both modes, and ``average_tables`` of the table at init and that table;
it also records the ``write_score_json`` bytes of the final model's
``lsta_10view`` table (crop 6), which for ``two_stream`` crops frames and
flow alike.
Per family it also records the schedule group of every parameter, in
``params()`` order, and the bytes of every file of the checkpoint that
``save`` writes at init (``model.json``, ``manifest.json``, each ``.tnsf``).

The comparison prints one line per record: ``equal`` or ``DIFFERENT`` with
the sha256 prefix of each side, and for every gradient
max|g_b - g_a| / max|g_a|. It exits 0 when every record is equal, 1 when
any differs and 2 when a tree fails to run. No hashes are stored: BLAS
builds round differently, so two trees are always compared on one machine.
Only long-standing API is used (``create_model``, ``group_of``,
``save``, ``Tape``, ``multi_task_loss``, ``run_stage``, ``evaluate``,
``apply_overrides``, ``PRESETS``, ``AugmentationConfig``, ``CropSpec``, the
synthetic-data makers and the ``vnact.scores`` functions above), so a
change can be compared with its parent.
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
# Desk-sized memory and GRUs; the backbone stays small.
DESK_LSTA_GRU = {**SMALL, "memory": 16, "gru_hidden": 16}
# Desk-sized clips: 8 frames of 16x16, so a batch of 32 spans several conv tiles.
TILED_FRAMES = (8, 16, 16)
TILED_HF_TSN = {**CONFIGS["hf_tsn"], "segments": TILED_FRAMES[0]}
INPUTS = {"lsta": ("frames",), "lsta_gru": ("frames",), "hf_tsn": ("frames",),
          "motion": ("flow",), "two_stream": ("frames", "flow")}
PRESETS = ("hf_tsn", "lsta_stage1")  # SGD, Adam


def _gradient_records(prefix, family, config, batch, moved, records, frames=(T, H, W)) -> None:
    import vnact
    from vnact.synthetic import default_label_space

    space = default_label_space(3, 4, 6, seed=0)
    model = vnact.create_model(family, config, space, 1)
    rng = np.random.default_rng(2)
    if moved:
        model.set_params({
            name: vnact.Tensor(t.data + rng.normal(0.0, 0.05, size=t.shape), grad_enabled=True)
            if not np.any(t.data) else t for name, t in model.params().items()})
    inputs = {key: rng.normal(size=(batch, frames[0], CHANNELS, *frames[1:]))
              for key in INPUTS[family]}
    actions = rng.integers(0, space.num_actions, size=batch)
    pairs = np.asarray(space.actions)
    labels = (pairs[actions, 0], pairs[actions, 1], actions)
    params = model.params()
    with vnact.Tape() as tape:
        triple = model.forward(inputs, train=True, rng=rng, dropout_p=0.5)
        loss = vnact.multi_task_loss(triple, labels)
    grads = tape.backward(loss)
    for task in ("verb", "noun", "action"):
        records[f"{prefix}/scores/{task}"] = getattr(triple, task).data
    records[f"{prefix}/loss"] = loss.data
    for name, p in params.items():
        g = grads.get(p.uid)
        # A gradient the tape did not produce is recorded as an empty array.
        records[f"{prefix}/grad/{name}"] = g.data if g is not None else np.zeros(0)


def _checkpoint_records(family, records) -> None:
    import vnact
    from vnact.synthetic import default_label_space

    model = vnact.create_model(family, CONFIGS[family], default_label_space(3, 4, 6, seed=0), 1)
    groups = {name: model.group_of(name) for name in model.params()}
    records[f"{family}/groups"] = np.array(json.dumps(groups))
    with tempfile.TemporaryDirectory() as workdir:
        model.save(workdir)
        for path in sorted(Path(workdir).rglob("*")):
            if path.is_file():
                key = f"{family}/checkpoint/{path.relative_to(workdir).as_posix()}"
                records[key] = np.frombuffer(path.read_bytes(), dtype=np.uint8)


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
    at_init = training.evaluate(model, splits[1], frames_t=T, batch_size=4)
    log = training.run_stage(model, splits[0], schedule, seed=4, aug=aug,
                             eval_dataset=splits[1], eval_every=1)
    prefix = f"{family}/{preset}"
    for name, t in model.params().items():
        records[f"{prefix}/param/{name}"] = t.data
    records[f"{prefix}/log"] = np.array([json.dumps(row, sort_keys=True) for row in log.rows])
    table = training.evaluate(model, splits[1], frames_t=T, batch_size=4)
    _score_records(prefix, at_init, table, splits[1], records)
    tenview = training.evaluate(model, splits[1], frames_t=T, batch_size=4,
                                crop=training.CropSpec("lsta_10view"), crop_size=6)
    records[f"{prefix}/tenview_score_json"] = _score_json_bytes(tenview)


def _score_json_bytes(table) -> np.ndarray:
    from vnact import scores

    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "scores.json"
        scores.write_score_json(path, table)
        return np.frombuffer(path.read_bytes(), dtype=np.uint8)


def _score_records(prefix, at_init, table, dataset, records) -> None:
    from vnact import scores

    metrics = scores.compute_metrics(table, dataset.labels_by_segment()).values
    records[f"{prefix}/metrics"] = np.array(json.dumps(metrics, sort_keys=True))
    records[f"{prefix}/score_json"] = _score_json_bytes(table)
    for mode in ("direct", "pair"):
        decoded = scores.decode(table, dataset.space, mode=mode)
        records[f"{prefix}/decode/{mode}"] = np.array(json.dumps(decoded, sort_keys=True))
    mean = scores.average_tables([at_init, table])
    for task in ("verb", "noun", "action"):
        records[f"{prefix}/average/{task}"] = np.stack(
            [mean.results[seg][task] for seg in mean.segments()])


def dump(out_path: str, src: str) -> None:
    """Write every record of the vnact under ``src`` to an npz file."""
    import vnact

    if not Path(vnact.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"golden: imported vnact from {vnact.__file__}, not {src}")
    records = {}
    for family in CONFIGS:
        _checkpoint_records(family, records)
        for moved in (False, True):
            _gradient_records(f"{family}/{'moved' if moved else 'default'}", family,
                              CONFIGS[family], 2, moved, records)
        for preset in PRESETS:
            _stage_records(family, preset, records)
    for batch in (2, 3):
        _gradient_records(f"lsta_gru/desk/batch{batch}", "lsta_gru", DESK_LSTA_GRU, batch, False,
                          records)
    _gradient_records("hf_tsn/tiled/batch32", "hf_tsn", TILED_HF_TSN, 32, True, records,
                      frames=TILED_FRAMES)
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
