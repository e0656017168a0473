"""A clip's scores do not depend on the batch it is scored in.

numpy hands a one-row matrix product to a matrix-vector routine whose sums
round differently from the matrix-matrix routine, and that routine rounds a
short tail of rows past a multiple of 4 differently again, so a clip scored
alone (``batch_size`` 1, or in the last partial batch) used to get different
low bits. ``ops._product`` pads every product to a multiple of 4 rows.

Nor does a training step's gradient depend on how many threads the BLAS
runs: the benchmark workloads' steps are compared at 1 and 2 threads.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vnact import ops
from vnact.heads import TASKS
from vnact.models import create_model
from vnact.synthetic import (
    SyntheticDataset,
    default_label_space,
    make_synthetic,
    make_two_stream_synthetic,
)
from vnact.training import evaluate

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"


def shipped_models(space):
    """One model per family from the shipped configs' model sections, with
    make-synthetic's default channels and HF-TSN's segments from its
    frames_T, as `vnact train` fills them in; two_stream joins the app and
    motion streams."""
    shipped = {f: json.loads((CONFIGS / f"{name}.json").read_text())
               for f, name in (("lsta", "app_lsta"), ("lsta_gru", "lsta_gru"),
                               ("hf_tsn", "hf_tsn"), ("motion", "motion"))}
    model = {family: cfg["model"] for family, cfg in shipped.items()}
    for family, cfg in model.items():
        del cfg["family"]
        cfg.update({"flow_channels": 4} if family == "motion" else {"input_channels": 3})
    model["hf_tsn"]["segments"] = shipped["hf_tsn"]["overrides"]["frames_T"]
    model["two_stream"] = {"app": model["lsta"], "motion": model["motion"]}
    return {family: create_model(family, cfg, space, seed=1) for family, cfg in model.items()}


def test_short_products_keep_the_bits_of_a_taller_product(monkeypatch):
    """For every (K, N) product the shipped configurations compute, at the
    default label space and at a 3-verb one, an M-row product of
    ``ops._product`` (M = 1, 2, 3, 5, 7, 32) equals, byte for byte, the same
    rows of a 64-row product."""
    shapes = set()
    true_product = ops._product

    def recording(a, b):
        shapes.add(b.shape)
        return true_product(a, b)

    monkeypatch.setattr(ops, "_product", recording)
    rng = np.random.default_rng(0)
    for space in (default_label_space(6, 8, 12, seed=0), default_label_space(3, 3, 5, seed=0)):
        for model in shipped_models(space).values():
            model.forward({"frames": rng.normal(size=(2, 8, 3, 16, 16)),
                           "flow": rng.normal(size=(2, 8, 4, 16, 16))})
    monkeypatch.undo()
    # The heads at F = 16 and 32 (the GRU head), the action bias maps, the
    # GRU's (C+D, D); with N = 3 a short tail of rows used to round differently.
    assert {(16, 12), (12, 8), (32, 16), (16, 3), (32, 3), (5, 3)} <= shapes
    for k, n in sorted(shapes):
        a, b = rng.normal(size=(64, k)), rng.normal(size=(k, n))
        full = a @ b
        for m in (1, 2, 3, 5, 7, 32):
            for start in range(0, 64 - m + 1, m):
                part = ops._product(a[start:start + m], b)
                assert part.tobytes() == full[start:start + m].tobytes(), (k, n, m, start)


FAMILY_CONFIGS = {
    "lsta": {"input_channels": 3, "stage_channels": [4, 8], "memory": 16},
    "lsta_gru": {"input_channels": 3, "stage_channels": [4, 8], "memory": 16, "gru_hidden": 16},
    "hf_tsn": {"input_channels": 3, "stage_channels": [4, 8], "segments": 4, "hf_positions": [0, 1]},
    "motion": {"flow_channels": 4, "stage_channels": [4, 8], "memory": 16},
    "two_stream": {"app": {"input_channels": 3, "stage_channels": [4, 8], "memory": 16},
                   "motion": {"flow_channels": 4, "stage_channels": [4, 8], "memory": 16}},
}


def reordered(data, order):
    return SyntheticDataset(data.space, [data.segment_ids[i] for i in order],
                            {k: v[order] for k, v in data.inputs.items()},
                            data.verbs[order], data.nouns[order], data.actions[order])


@pytest.mark.parametrize("family", sorted(FAMILY_CONFIGS))
def test_evaluate_scores_do_not_depend_on_the_batch(family):
    """33 clips scored at batch sizes 1, 2, 7 and 32 (whose last batch holds
    one clip), and at 32 in a shuffled order: every row equal, byte for byte."""
    space = default_label_space(6, 8, 12, seed=0)
    model = create_model(family, FAMILY_CONFIGS[family], space, seed=1)
    if family in ("motion", "two_stream"):
        data = make_two_stream_synthetic(space, 33, 4, 3, 4, 8, 8, 0.5, seed=2)
        if family == "motion":
            data = SyntheticDataset(data.space, data.segment_ids, {"flow": data.inputs["flow"]},
                                    data.verbs, data.nouns, data.actions)
    else:
        data = make_synthetic(space, 33, 4, 3, 8, 8, 0.5, seed=2)
    ref = evaluate(model, data, batch_size=32)
    order = np.random.default_rng(0).permutation(len(data))
    tables = [evaluate(model, data, batch_size=b) for b in (1, 2, 7)]
    tables.append(evaluate(model, reordered(data, order), batch_size=32))
    for table in tables:
        for seg in data.segment_ids:
            for task in TASKS:
                assert table.results[seg][task].tobytes() == ref.results[seg][task].tobytes(), \
                    (seg, task)


# One taped forward+backward of each benchmark workload's model on the first
# batch of its training split, frames sampled as at eval; prints one
# "<workload> <sha256 of the loss and every parameter gradient>" line each.
STEP = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from vnact import Tape, multi_task_loss, sample_frames
from workloads import WORKLOADS

for name, w in sorted(WORKLOADS.items()):
    space, train, _ = w.make_data(7)
    model = w.create(space, 7)[0]
    raw, labels = train.batch(range(w.schedule.batch_size))
    inputs = {k: v[:, sample_frames(v.shape[1], w.schedule.frames_T)] for k, v in raw.items()}
    params = model.params()
    with Tape() as tape:
        triple = model.forward(inputs, train=True, rng=np.random.default_rng(7),
                               dropout_p=w.schedule.dropout_p)
        loss = multi_task_loss(triple, labels, tasks=w.schedule.loss_tasks)
    grads = tape.backward(loss)
    digest = hashlib.sha256(loss.data.tobytes())
    for pname, p in params.items():
        g = grads.get(p.uid)
        digest.update(pname.encode() + (b"-" if g is None else g.data.tobytes()))
    print(name, digest.hexdigest())
"""


def test_one_and_two_blas_threads_give_a_training_step_the_same_bits():
    """The thread count is set before numpy loads the BLAS, so each count
    runs in its own process; both print the same digests for all three
    benchmark workloads."""
    printed = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
                               threads)}
        proc = subprocess.run([sys.executable, "-c", STEP, str(ROOT / "perfbench")], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert [line.split()[0] for line in printed[0].splitlines()] == [
        "hf-tsn", "lsta-gru", "two-stream"]
    assert printed[0] == printed[1]
