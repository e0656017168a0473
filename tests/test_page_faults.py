"""A training step reuses its memory instead of faulting it in afresh.

Importing ``vnact.tensor`` pins glibc's mmap and trim thresholds, so the
few-MB activations and batch-tiled convolution columns of a step come
from the heap that the previous step freed. Left to glibc's dynamic
threshold, a fresh process maps and unmaps them each step: about 2,800
minor page faults per desk ``hf_tsn`` step.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


# The desk hf_tsn workload: 6/8/12 labels, T=8 at 16x16, stages 8/12/16,
# HF blocks at every stage, batch 32 under the hf_tsn preset.
STEPS = """
import resource
import numpy as np
from vnact import Tape, create_model, multi_task_loss
from vnact.synthetic import default_label_space, make_synthetic
from vnact.training import PRESETS, optimizer_step, sample_frames

space = default_label_space(6, 8, 12, seed=3)
data = make_synthetic(space, 7 * 32, 8, 3, 16, 16, 0.5, 4, split_tag="train")
model = create_model("hf_tsn", {"input_channels": 3, "stage_channels": [8, 12, 16],
                                "segments": 8, "hf_positions": [0, 1, 2]}, space, 5)
schedule, rng, state = PRESETS["hf_tsn"], np.random.default_rng(6), None
faults = []
for step in range(7):
    raw, labels = data.batch(range(32 * step, 32 * step + 32))
    inputs = {k: v[:, sample_frames(v.shape[1], 8)] for k, v in raw.items()}
    params = model.params()
    with Tape() as tape:
        triple = model.forward(inputs, train=True, rng=rng, dropout_p=schedule.dropout_p)
        loss = multi_task_loss(triple, labels, tasks=schedule.loss_tasks)
    grads = tape.backward(loss)
    params, state = optimizer_step(schedule.optimizer, params, {
        n: grads[p.uid].data for n, p in params.items() if p.uid in grads},
        schedule.base_lr, state)
    model.set_params(params)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
print((faults[-1] - faults[1]) / 5)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator pin applies to glibc only")
def test_a_fresh_process_trains_hf_tsn_without_faulting_per_step():
    """Two warm-up steps, then five: fewer than 200 minor faults per step."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           **dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1")}
    proc = subprocess.run([sys.executable, "-c", STEPS], env=env, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 200
