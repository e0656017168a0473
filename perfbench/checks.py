"""Correctness checks run after the timed part of every benchmark run.

Each check compares the program's output with an independent computation
or a property the method must have, never with a stored copy of an
earlier output. A failed check raises :class:`CheckFailed`.
"""

from __future__ import annotations

from contextlib import ExitStack

import numpy as np
from scipy.signal import correlate

import vnact
from vnact import cells, models, ops, scores, synthetic

from tracer import rebound

FD_EPS = 1e-8  # small enough that a ReLU kink rarely falls inside the interval
FD_TOL = 1e-4  # |tape - fd| / max(FD_FLOOR, |tape|, |fd|)
# Below the floor the test is absolute, at FD_TOL * FD_FLOOR = 1e-6. At
# FD_EPS the rounding error of the difference measured at most 8.2e-8 over
# 420 coordinates of the three trained workloads, so 1e-6 leaves 12x room
# while a zero or sign-flipped tape gradient above 1e-6 still fails.
FD_FLOOR = 1e-2
FD_PICKS = 3  # coordinates per group: the largest tape gradient, then random ones
CONV_TOL = 1e-12
ATTENTION_TOL = 1e-12
# Clips the in-memory model rescores to compare with the reloaded checkpoint's table.
RELOAD_CLIPS = 64


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _scores(triple) -> list:
    det = triple.detached()
    return [det.verb, det.noun, det.action]


def loss_falls(rows) -> None:
    first, last = rows[0]["train_loss"], rows[-1]["train_loss"]
    _require(last < first, f"last epoch loss {last!r} is not below the first {first!r}")


def rounds_repeat(losses) -> None:
    _require(len(set(losses)) == 1, f"fixed-seed rounds gave different losses {losses}")


def _loss(model, inputs, labels, tasks):
    return vnact.multi_task_loss(model.forward(inputs, train=False), labels, tasks=tasks)


def tape_gradients(model, inputs, labels, tasks) -> dict:
    """name -> d loss / d parameter, from the tape."""
    params = model.params()
    with vnact.Tape() as tape:
        loss = _loss(model, inputs, labels, tasks)
    by_uid = tape.backward(loss)
    return {name: by_uid[p.uid].data for name, p in params.items() if p.uid in by_uid}


def _largest(names, grads) -> tuple:
    """(name, flat index) of the largest tape gradient among ``names``."""
    best = max((n for n in names if n in grads), key=lambda n: np.max(np.abs(grads[n])))
    return best, int(np.argmax(np.abs(grads[best])))


def gradients_match(model, groups, inputs, labels, tasks, rng) -> None:
    """Central differences agree with the tape on FD_PICKS sampled
    coordinates of every group."""
    params = model.params()
    grads = tape_gradients(model, inputs, labels, tasks)
    try:
        for group in groups:
            names = sorted(n for n in params if model.group_of(n) == group)
            _require(bool(names), f"no parameters in trainable group '{group}'")
            picks = [_largest(names, grads)] if any(n in grads for n in names) else []
            while len(picks) < FD_PICKS:
                name = names[int(rng.integers(len(names)))]
                picks.append((name, int(rng.integers(params[name].size))))
            for name, i in picks:
                flat = params[name].data.reshape(-1)
                diffs = []
                for sign in (1.0, -1.0):
                    moved = flat.copy()
                    moved[i] += sign * FD_EPS
                    model.set_params({**params, name: vnact.Tensor(
                        moved.reshape(params[name].shape), grad_enabled=True)})
                    diffs.append(_loss(model, inputs, labels, tasks).item())
                fd = (diffs[0] - diffs[1]) / (2.0 * FD_EPS)
                tape = float(grads[name].reshape(-1)[i]) if name in grads else 0.0
                err = abs(tape - fd) / max(FD_FLOOR, abs(tape), abs(fd))
                _require(err <= FD_TOL, f"gradient of {name}[{i}] ({group}): tape {tape!r} "
                                        f"vs finite difference {fd!r}, error {err:.3e}")
    finally:
        model.set_params(params)


def _capture(stack, fn, store):
    def recording(*args, **kwargs):
        out = fn(*args, **kwargs)
        store.append((args, out))
        return out
    stack.enter_context(rebound(fn, recording))


def _direct_correlation(x, kernel):
    """Zero-padded 'same' cross-correlation, one scipy call per (sample, out, in)."""
    spatial = kernel.ndim - 2
    lead = x.shape[:-(spatial + 1)]
    xs = x.reshape((-1,) + x.shape[-(spatial + 1):])
    pad = [(0, 0)] + [(k // 2, k // 2) for k in kernel.shape[2:]]
    out = np.zeros((xs.shape[0], kernel.shape[0]) + xs.shape[2:])
    for n in range(xs.shape[0]):
        xp = [np.pad(xs[n, c], pad[1:]) for c in range(xs.shape[1])]
        for o in range(kernel.shape[0]):
            for c in range(xs.shape[1]):
                out[n, o] += correlate(xp[c], kernel[o, c], mode="valid", method="direct")
    return out.reshape(lead + out.shape[1:])


def _conv_matches(label, call) -> None:
    (x, kernel), out = call[0][:2], call[1]
    ref = _direct_correlation(x.data, kernel.data)
    err = float(np.max(np.abs(out.data - ref))) / max(1.0, float(np.max(np.abs(ref))))
    _require(err <= CONV_TOL, f"{label} differs from a direct correlation by {err:.3e}")


def forward_properties(model, inputs) -> None:
    """One forward of the trained model, checking what its layers produced:
    the first backbone conv2d and (two-stream) the conv3d fusion bias against
    direct correlation, and every LSTA attention map summing to one."""
    convs, fusion, steps = [], [], []
    with ExitStack() as stack:
        _capture(stack, ops.conv2d, convs)
        _capture(stack, cells.lsta_step, steps)
        if isinstance(model, models.TwoStreamModel):
            _capture(stack, ops.conv3d, fusion)
        model.forward(inputs, train=False)
    backbone = [c for c in convs if c[0][1] is model.params()[_first_kernel(model)]]
    _require(bool(backbone), "the first backbone conv2d was not called")
    _conv_matches("first backbone conv2d", backbone[0])
    if isinstance(model, models.TwoStreamModel):
        _require(len(fusion) == 1, f"expected one conv3d fusion call, got {len(fusion)}")
        _conv_matches("conv3d fusion bias", fusion[0])
    has_lsta = any(n.startswith(("lsta.", "app.lsta.")) for n in model.params())
    _require(len(steps) > 0 or not has_lsta, "no LSTA step ran")
    for _, (_, alpha) in steps:
        err = float(np.max(np.abs(alpha.data.sum(axis=(-2, -1)) - 1.0)))
        _require(err <= ATTENTION_TOL, f"LSTA attention map sums differ from one by {err:.3e}")


def _first_kernel(model) -> str:
    prefix = "app." if isinstance(model, models.TwoStreamModel) else ""
    return f"{prefix}backbone.stage0.kernel"


def fusion_starts_as_mean(fused, app, motion, inputs) -> None:
    """A freshly fused model scores exactly the mean of its two streams."""
    joint = _scores(fused.forward(inputs))
    a = _scores(app.forward({"frames": inputs["frames"]}))
    m = _scores(motion.forward({"flow": inputs["flow"]}))
    same = all(np.array_equal(j, (x + y) * 0.5) for j, x, y in zip(joint, a, m))
    _require(same, "fresh two-stream scores differ from the mean of its streams")


def blocks_start_as_identity(model, inputs) -> None:
    """Identity-initialised HF blocks leave scores bit-identical to no blocks."""
    cfg = dict(model.config, hf_positions=[])
    plain = models.create_model("hf_tsn", cfg, model.space, seed=0)
    plain.set_params({n: t for n, t in model.params().items() if not n.startswith("hf.")})
    same = all(np.array_equal(x, y) for x, y in zip(_scores(model.forward(inputs)),
                                                     _scores(plain.forward(inputs))))
    _require(same, "identity-initialised HF blocks changed the scores")


def topk_matches(table, labels, report) -> None:
    """Top-1/top-5 accuracy recomputed with plain numpy equals compute_metrics."""
    segs = table.segments()
    for j, task in enumerate(scores.TASKS):
        logits = np.stack([table.results[s][task] for s in segs])
        truth = np.array([labels[s][j] for s in segs])
        ranked = np.argsort(-logits, axis=1, kind="stable")
        for k, key in ((1, "top1"), (5, "top5")):
            hits = int(np.sum(np.any(ranked[:, :k] == truth[:, None], axis=1)))
            ours = 100.0 * (hits / len(segs))
            _require(ours == report.values[task][key],
                     f"{task} {key}: numpy {ours!r} vs compute_metrics {report.values[task][key]!r}")


def tables_equal(label, a, b) -> None:
    _require(a.segments() == b.segments(), f"{label}: segment lists differ")
    for seg in a.segments():
        for task in scores.TASKS:
            _require(np.array_equal(a.results[seg][task], b.results[seg][task]),
                     f"{label}: segment {seg} task {task} differs")


def score_file_round_trips(path, table, space) -> None:
    tables_equal("score JSON round trip", table, scores.read_score_json(path, space=space))


def checkpoint_scores_match(evaluate, dataset, table) -> None:
    """The in-memory model scores the first RELOAD_CLIPS clips bit-identically
    to the table the reloaded checkpoint produced."""
    head = synthetic.SyntheticDataset(
        space=dataset.space, segment_ids=dataset.segment_ids[:RELOAD_CLIPS],
        inputs={k: v[:RELOAD_CLIPS] for k, v in dataset.inputs.items()},
        verbs=dataset.verbs[:RELOAD_CLIPS], nouns=dataset.nouns[:RELOAD_CLIPS],
        actions=dataset.actions[:RELOAD_CLIPS], split_tag=dataset.split_tag)
    ours = evaluate(head)
    theirs = scores.ScoreTable(table.split, table.label_space_hash,
                               {s: table.results[s] for s in head.segment_ids})
    tables_equal("checkpoint reload", ours, theirs)
