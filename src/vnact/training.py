"""Stage schedules, optimizers, frame sampling, augmentation and the
training/evaluation loops.

Preset schedules carry the reference training recipes verbatim and are
immutable; desk-scale runs derive from them with explicit overrides
(epoch counts, clip lengths, batch sizes) without touching the preset
definitions. All loops are deterministic functions of their seed: batch
order, temporal jitter, augmentation draws and dropout masks all come
from one per-stage generator consumed in a fixed order.
"""

from __future__ import annotations

import csv
import dataclasses
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import NonFiniteError, ShapeError, ValidationError, _check_fields, _known_keys, _typed
from .heads import TASKS, ScoreTriple, multi_task_loss
from .init import rng_for
from .scores import ScoreTable, hit_rate, topk_accuracy
from .tensor import Tape, Tensor, scale


# ---------------------------------------------------------------------------
# schedules


@dataclass(frozen=True)
class StageSchedule:
    """One training stage: duration, learning-rate plan, optimizer, scope."""

    name: str
    epochs: int
    base_lr: float
    decay_epochs: Tuple[int, ...]
    decay_factor: float
    optimizer: str
    dropout_p: float
    batch_size: int
    frames_T: int
    trainable_groups: Tuple[str, ...]
    loss_tasks: Tuple[str, ...] = TASKS
    per_epoch_decay: Optional[float] = None

    def __post_init__(self):
        _check_fields(self)
        if self.epochs < 0:
            raise ValidationError(f"epochs must be nonnegative, got {self.epochs}")
        if self.base_lr <= 0:
            raise ValidationError(f"base_lr must be positive, got {self.base_lr}")
        if self.optimizer not in ("adam", "sgd"):
            raise ValidationError(f"optimizer must be adam or sgd, got '{self.optimizer}'")
        if not 0.0 <= self.dropout_p < 1.0:
            raise ValidationError(f"dropout_p must be in [0, 1), got {self.dropout_p}")
        if self.batch_size < 1 or self.frames_T < 1:
            raise ValidationError("batch_size and frames_T must be positive")
        d = self.decay_epochs
        if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
            raise ValidationError(f"decay_epochs must be strictly increasing, got {d}")
        if d and (d[0] < 1 or d[-1] >= self.epochs):
            raise ValidationError(f"decay_epochs must lie in [1, {self.epochs}), got {d}")
        rate = self.per_epoch_decay
        if rate is not None:
            if not 0.0 < rate <= 1.0:
                raise ValidationError(f"per_epoch_decay must be in (0, 1], got {rate}")
            if d:
                raise ValidationError("per-epoch decay and stepped decay are mutually exclusive")
        elif not 0.0 < self.decay_factor <= 1.0:
            raise ValidationError(f"decay_factor must be in (0, 1], got {self.decay_factor}")
        if not self.trainable_groups:
            raise ValidationError("at least one trainable group is required")


_MOTION_GROUPS = ("backbone", "backbone_last_stage", "motion_attn", "convlstm", "heads")

PRESETS: Dict[str, StageSchedule] = {
    "lsta_stage1": StageSchedule(
        name="lsta_stage1", epochs=200, base_lr=1e-3, decay_epochs=(25, 75, 150),
        decay_factor=0.1, optimizer="adam", dropout_p=0.7, batch_size=32, frames_T=20,
        trainable_groups=("heads", "lsta", "grus")),
    "lsta_stage2": StageSchedule(
        name="lsta_stage2", epochs=150, base_lr=1e-4, decay_epochs=(25, 75),
        decay_factor=0.1, optimizer="adam", dropout_p=0.7, batch_size=32, frames_T=20,
        trainable_groups=("heads", "lsta", "grus", "backbone_last_stage")),
    "hf_tsn": StageSchedule(
        name="hf_tsn", epochs=120, base_lr=0.01, decay_epochs=(50, 100),
        decay_factor=0.1, optimizer="sgd", dropout_p=0.5, batch_size=32, frames_T=16,
        trainable_groups=("backbone", "backbone_last_stage", "hf", "heads")),
    "flow_pretrain": StageSchedule(
        name="flow_pretrain", epochs=700, base_lr=0.01, decay_epochs=(75, 150, 250, 500),
        decay_factor=0.5, optimizer="sgd", dropout_p=0.7, batch_size=32, frames_T=20,
        trainable_groups=_MOTION_GROUPS, loss_tasks=("verb",)),
    "flow_stage2": StageSchedule(
        name="flow_stage2", epochs=500, base_lr=0.01, decay_epochs=(50, 100),
        decay_factor=0.5, optimizer="sgd", dropout_p=0.7, batch_size=32, frames_T=20,
        trainable_groups=_MOTION_GROUPS),
    "two_stream": StageSchedule(
        name="two_stream", epochs=100, base_lr=0.01, decay_epochs=(),
        decay_factor=1.0, optimizer="adam", dropout_p=0.7, batch_size=32, frames_T=20,
        trainable_groups=("heads", "lsta", "convlstm", "backbone_last_stage", "fusion"),
        per_epoch_decay=0.99),
}


def apply_overrides(schedule: StageSchedule, overrides: Dict) -> StageSchedule:
    """Derive a schedule from a preset; unknown keys and values of the
    wrong type are rejected.

    Shrinking ``epochs`` without naming ``decay_epochs`` drops decay
    points at or past the new end — they could never fire, and keeping
    them would violate the decay_epochs < epochs invariant.
    """
    _known_keys(overrides, (f.name for f in dataclasses.fields(StageSchedule) if f.name != "name"),
                "override keys")
    fixed = dict(overrides)
    if "epochs" in fixed and "decay_epochs" not in fixed:
        epochs = _typed(fixed["epochs"], int, "epochs")
        fixed["decay_epochs"] = tuple(d for d in schedule.decay_epochs if d < epochs)
    return dataclasses.replace(schedule, **fixed)


def lr_at(s: StageSchedule, epoch: int) -> float:
    """Learning rate of a 1-based epoch; rate decays after each decay epoch."""
    if not 1 <= epoch <= s.epochs:
        raise ValidationError(f"epoch {epoch} outside [1, {s.epochs}]")
    if s.per_epoch_decay is not None:
        return s.base_lr * s.per_epoch_decay ** (epoch - 1)
    elapsed = sum(1 for d in s.decay_epochs if d < epoch)
    return s.base_lr * s.decay_factor ** elapsed


# ---------------------------------------------------------------------------
# frame sampling and augmentation


def sample_frames(n_available: int, t: int,
                  rng: Optional[np.random.Generator] = None) -> List[int]:
    """Split [0, n) into t equal segments; pick each segment's center, or a
    uniform random frame within it when ``rng`` is given. Indices are
    nondecreasing; duplicates appear when fewer frames than segments."""
    if t < 1:
        raise ValidationError(f"segment count must be positive, got {t}")
    if n_available < 1:
        raise ValidationError(f"need at least one frame, got {n_available}")
    out = []
    for i in range(t):
        lo = i * n_available / t
        hi = (i + 1) * n_available / t
        if rng is None:
            out.append(int(np.floor((lo + hi) / 2.0)))
        else:
            first = int(np.floor(lo))
            last = max(first, int(np.ceil(hi)) - 1)
            out.append(int(rng.integers(first, last + 1)))
    return out


@dataclass(frozen=True)
class AugmentationConfig:
    """Train-time randomization: scale jitter, horizontal flips, temporal jitter."""

    scale_jitter: Optional[Tuple[float, float]] = None  # (lo, hi) fractions of the frame extent
    horizontal_flip: float = 0.0  # opt-in: synthetic spatial cues are not flip-invariant
    temporal_jitter: bool = True

    def __post_init__(self):
        _check_fields(self)
        if not 0.0 <= self.horizontal_flip <= 1.0:
            raise ValidationError(f"flip probability must be in [0, 1], got {self.horizontal_flip}")
        lo, hi = self.scale_jitter or (1.0, 1.0)  # None: frames keep their scale
        if not 0.0 < lo <= hi <= 1.0:
            raise ValidationError(f"scale_jitter must satisfy 0 < lo <= hi <= 1, got {self.scale_jitter}")


def bilinear_resize(arr: np.ndarray, height: int, width: int) -> np.ndarray:
    """Resize the trailing (H, W) plane by corner-aligned bilinear interpolation."""
    h, w = arr.shape[-2:]
    ys = np.linspace(0.0, h - 1.0, height) if height > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, width) if width > 1 else np.zeros(1)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    a = arr[..., y0[:, None], x0[None, :]]
    b = arr[..., y0[:, None], x1[None, :]]
    c = arr[..., y1[:, None], x0[None, :]]
    d = arr[..., y1[:, None], x1[None, :]]
    top = a * (1 - fx) + b * fx
    bot = c * (1 - fx) + d * fx
    return top * (1 - fy) + bot * fy


def augment_clip(clip: np.ndarray, box: Optional[Tuple[int, int, int, int]],
                 flip: bool) -> np.ndarray:
    """Crop ``box`` = (top, left, height, width) out of one clip (T, C, H, W) and
    resize it back to H×W (None keeps the whole frame), then flip it
    horizontally if ``flip``.

    The caller draws the box and the flip once per sample, so paired
    modalities of one sample share them.
    """
    out = clip
    if box is not None:
        top, left, ch, cw = box
        out = bilinear_resize(out[..., top:top + ch, left:left + cw], *clip.shape[-2:])
    if flip:
        out = out[..., ::-1]
    return np.ascontiguousarray(out)


@dataclass(frozen=True)
class CropSpec:
    """Evaluation view plan: ten corner/center crops with flips, or center only."""

    mode: str

    def __post_init__(self):
        if self.mode not in ("lsta_10view", "center"):
            raise ValidationError(f"unknown crop mode '{self.mode}'")


def eval_multiview(frame: np.ndarray, spec: CropSpec, crop_size: int) -> List[np.ndarray]:
    """Deterministic evaluation views of (..., H, W): four corner crops and the
    center crop, in TL, TR, BL, BR, center order, then the same five flipped.
    Each view is a slice of ``frame``, not a copy."""
    h, w = frame.shape[-2:]
    if crop_size > min(h, w):
        raise ValidationError(f"crop {crop_size} larger than frame {h}x{w}")
    c = crop_size
    anchors = [(0, 0), (0, w - c), (h - c, 0), (h - c, w - c), ((h - c) // 2, (w - c) // 2)]
    if spec.mode == "center":
        anchors = anchors[-1:]
    crops = [frame[..., top:top + c, left:left + c] for top, left in anchors]
    if spec.mode == "center":
        return crops
    return crops + [v[..., ::-1] for v in crops]


# ---------------------------------------------------------------------------
# optimizers


@dataclass
class OptimizerState:
    """Slot buffers (momenta, moments) plus the shared step counter."""

    kind: str
    step: int = 0
    slots: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)


def optimizer_step(
    kind: str,
    params: Dict[str, Tensor],
    grads: Dict[str, np.ndarray],
    lr: float,
    state: Optional[OptimizerState],
):
    """One update of every parameter that has a gradient; the other entries
    keep their exact Tensor objects. SGD uses momentum 0.9, Adam the betas
    (0.9, 0.999). Returns (new params, state)."""
    if kind not in ("adam", "sgd"):
        raise ValidationError(f"optimizer must be adam or sgd, got '{kind}'")
    if state is None:
        state = OptimizerState(kind=kind)
    if state.kind != kind:
        raise ValidationError(f"optimizer state is for '{state.kind}', not '{kind}'")
    state.step += 1
    t = state.step
    beta1, beta2, eps, momentum = 0.9, 0.999, 1e-8, 0.9
    new = dict(params)
    for name in sorted(grads):
        if name not in params:
            raise ValidationError(f"gradient for unknown parameter '{name}'")
        p = params[name]
        g = np.asarray(grads[name], dtype=np.float64)
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} mismatches parameter '{name}' {p.shape}")
        if not np.isfinite(g).all():
            raise NonFiniteError(f"non-finite gradient for '{name}'")
        slot = state.slots.setdefault(name, {})
        if kind == "adam":
            m = slot.setdefault("m", np.zeros(p.shape))
            v = slot.setdefault("v", np.zeros(p.shape))
            m[...] = beta1 * m + (1 - beta1) * g
            v[...] = beta2 * v + (1 - beta2) * g * g
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            upd = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        else:
            vel = slot.setdefault("v", np.zeros(p.shape))
            vel[...] = momentum * vel + g
            upd = p.data - lr * vel
        if not np.isfinite(upd).all():
            raise NonFiniteError(f"non-finite update for '{name}'")
        new[name] = Tensor(upd, grad_enabled=True)
    return new, state


# ---------------------------------------------------------------------------
# evaluation and the stage loop


def _prepare_batch(inputs: Dict[str, np.ndarray], frames_t: int, aug: AugmentationConfig,
                   rng: np.random.Generator):
    """Sample ``frames_t`` frames of each (B, T, C, H, W) input and augment them.
    Each sample's frame indices, crop box and flip are drawn once and applied
    to every modality, so paired frames and flow stay aligned in time and
    space, and ``rng`` is drawn as for a batch of one modality."""
    keys = sorted(inputs)
    b, t_data = inputs[keys[0]].shape[:2]
    h, w = inputs[keys[0]].shape[-2:]
    for k in keys:
        if inputs[k].shape[1] != t_data or inputs[k].shape[-2:] != (h, w):
            raise ValidationError(f"modalities disagree on T or HxW: {keys[0]} "
                                  f"{inputs[keys[0]].shape}, {k} {inputs[k].shape}")
    jitter_rng = rng if aug.temporal_jitter else None
    rows = np.array([sample_frames(t_data, frames_t, jitter_rng) for _ in range(b)],
                    dtype=np.int64)
    sampled = {k: inputs[k][np.arange(b)[:, None], rows] for k in keys}
    out = {k: np.empty_like(sampled[k]) for k in keys}
    for i in range(b):
        flip = bool(rng.random() < aug.horizontal_flip)
        box = None
        if aug.scale_jitter is not None:
            s = rng.uniform(*aug.scale_jitter)
            ch, cw = max(1, int(round(h * s))), max(1, int(round(w * s)))
            box = (int(rng.integers(0, h - ch + 1)), int(rng.integers(0, w - cw + 1)), ch, cw)
        for k in keys:
            out[k][i] = augment_clip(sampled[k][i], box, flip=flip)
    return out


# Threads a batch is spread over: one per CPU this process may use, at most
# two, the only count measured.
_WORKERS = min(2, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
               else os.cpu_count() or 1)


@contextmanager
def _part_runner():
    """Yield ``run(fn, parts)``, which returns ``[fn(part) for part in parts]``
    in part order. With ``_WORKERS`` > 1, part 0 runs on the calling thread and
    the other parts on a pool of ``_WORKERS`` − 1 threads that lives for the
    block; with one worker every part runs on the calling thread. A part's
    exception reaches the caller, an earlier part's first. On leaving the
    block the parts not yet started are cancelled and the pool is joined, so
    no thread outlives it. A pool starts its threads at its first submit, so
    a block whose calls all have one part starts none."""
    workers = _WORKERS
    pool = ThreadPoolExecutor(max(1, workers - 1))

    def run(fn, parts):
        if workers == 1:
            return [fn(part) for part in parts]
        futures = [pool.submit(fn, part) for part in parts[1:]]
        return [fn(parts[0])] + [f.result() for f in futures]

    try:
        yield run
    finally:
        pool.shutdown(cancel_futures=True)


def evaluate(model, dataset, frames_t: Optional[int], batch_size: int = 32,
             crop: Optional[CropSpec] = None, crop_size: Optional[int] = None) -> ScoreTable:
    """Deterministic scoring of a dataset into a ScoreTable.

    Only the inputs the model reads are fetched, center-sampled down to
    ``frames_t`` (None: the clip length the model's family fixes, if any, else
    the dataset's T); with a CropSpec the per-view score triples are averaged in view order.

    Each batch is scored in ``_WORKERS`` parts of consecutive clips, one per
    worker of a ``_part_runner`` that lives for this call; rows enter the
    table in segment order. A clip's scores do not depend on the batch it is
    scored in, so the part count can follow the CPU count: the parts change
    no byte. When a part raises, the parts not yet started are cancelled and
    its exception reaches the caller.
    """
    if frames_t is None and model.clip_length_key:
        frames_t = model.config[model.clip_length_key]
    if batch_size < 1:
        raise ValidationError(f"batch_size must be positive, got {batch_size}")
    if frames_t is not None and frames_t < 1:
        raise ValidationError(f"frames_t must be positive, got {frames_t}")
    if crop is not None and (crop_size is None or crop_size < 1):
        raise ValidationError(f"crop evaluation requires a positive crop_size, got {crop_size}")
    dataset = dataset.view(model.modalities)
    table = ScoreTable(split=dataset.split_tag, label_space_hash=dataset.space.space_hash())

    def score(part: range) -> ScoreTriple:
        inputs, _ = dataset.batch(part)
        t_target = frames_t or next(iter(inputs.values())).shape[1]
        sampled = {k: v[:, sample_frames(v.shape[1], t_target)] for k, v in inputs.items()}
        # Without a CropSpec the whole frame is the one view; dividing by 1 is exact.
        views = {k: [v] if crop is None else eval_multiview(v, crop, crop_size)
                 for k, v in sampled.items()}
        count = len(next(iter(views.values())))
        acc = None
        for vi in range(count):
            one = model.forward({k: views[k][vi] for k in views}, train=False).detached()
            acc = one if acc is None else ScoreTriple(*(x + y for x, y in zip(acc, one)))
        return ScoreTriple(*(x / count for x in acc))

    workers, n = _WORKERS, len(dataset)
    with _part_runner() as run:
        for start in range(0, n, batch_size):
            stop = min(n, start + batch_size)
            size = -(-(stop - start) // workers)
            parts = [range(a, min(stop, a + size)) for a in range(start, stop, size)]
            for part, triple in zip(parts, run(score, parts)):
                for row, i in enumerate(part):
                    table.add(dataset.segment_ids[i], ScoreTriple(*(x[row] for x in triple)))
    return table


def _shards(n: int) -> List[slice]:
    """Consecutive row slices of a batch of ``n`` clips, one per shard:
    max(1, min(2, n // 16)) of them, a count that depends on ``n`` alone.
    Below 16 clips a shard gains less from a second thread than the split
    costs."""
    count = max(1, min(2, n // 16))
    size = -(-n // count)
    return [slice(a, min(n, a + size)) for a in range(0, n, size)]


class _ShardDraws:
    """The stage generator as one shard's forward sees it: the k-th
    ``random(shape)`` call returns this shard's rows of the k-th draw at the
    whole batch's shape. Whichever shard asks first makes that draw, under a
    lock shared by the batch's shards; every shard asks in the same order,
    so the generator is drawn as for the whole batch in one piece."""

    def __init__(self, rng: np.random.Generator, n: int, rows: slice, drawn: list,
                 lock: threading.Lock):
        self._rng, self._n, self._rows, self._drawn, self._lock = rng, n, rows, drawn, lock
        self._calls = 0

    def random(self, shape) -> np.ndarray:
        k, self._calls = self._calls, self._calls + 1
        with self._lock:
            if k == len(self._drawn):
                self._drawn.append(self._rng.random((self._n, *shape[1:])))
        return self._drawn[k][self._rows]


def _sharded_step(run, model, inputs: Dict[str, np.ndarray], labels: tuple,
                  rng: np.random.Generator, schedule: StageSchedule):
    """Forward, multi-task loss and backward of one training batch, shard by
    shard through ``run`` (a ``_part_runner``'s). Returns the gradients by
    parameter uid, each the sum of the shards' in shard order; the score
    rows of every task, the shards' concatenated; and the loss
    Σ (n_s / n)·L_s. Each shard's loss is scaled by n_s / n before its
    backward, so each sample's loss adjoint is seeded with 1/n as on one
    whole-batch tape (bit for bit when the halves are even)."""
    n, drawn, lock = len(labels[0]), [], threading.Lock()
    shards = _shards(n)

    def shard(rows: slice):
        draws = _ShardDraws(rng, n, rows, drawn, lock)
        with Tape() as tape:
            triple = model.forward({k: v[rows] for k, v in inputs.items()}, train=True,
                                   rng=draws, dropout_p=schedule.dropout_p)
            loss = multi_task_loss(triple, tuple(y[rows] for y in labels),
                                   tasks=schedule.loss_tasks)
            if len(shards) > 1:
                loss = scale(loss, (rows.stop - rows.start) / n)
            lval = loss.item()
            if not np.isfinite(lval):
                raise NonFiniteError("loss is non-finite")
            return triple.detached(), lval, tape.backward(loss)

    done = run(shard, shards)
    grads: Dict[int, np.ndarray] = {}
    for _, _, by_uid in done:
        for uid, g in by_uid.items():
            grads[uid] = grads[uid] + g.data if uid in grads else g.data
    scores = [np.concatenate(rows) for rows in zip(*(d[0] for d in done))]
    return grads, scores, sum(d[1] for d in done)


@dataclass
class TrainingLog:
    """Per-epoch rows of one stage run."""

    rows: List[Dict] = field(default_factory=list)

    COLUMNS = ("epoch", "lr", "train_loss", "train_acc_verb", "train_acc_noun",
               "train_acc_action", "eval_acc_verb", "eval_acc_noun", "eval_acc_action")

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=self.COLUMNS)
            writer.writeheader()
            for row in self.rows:
                writer.writerow({k: row.get(k, "") for k in self.COLUMNS})


def run_stage(
    model,
    dataset,
    schedule: StageSchedule,
    aug: AugmentationConfig,
    seed: int,
    eval_dataset=None,
    eval_every: int = 0,
) -> TrainingLog:
    """Run one schedule: epochs of shuffled minibatches through forward,
    multi-task loss, backward and the optimizer, updating only the
    schedule's trainable groups. Deterministic given (model, data, aug,
    seed). ``eval_every`` > 0 scores ``eval_dataset`` (then required) every
    that many epochs and after the last; 0 never does. Only the inputs the
    model reads are fetched and prepared.

    Frozen groups enter the stage as constants: each non-trainable
    parameter is swapped for a tensor over the same buffer that is not
    grad-enabled, so the tape records no op fed only by frozen parameters
    and data, and backward never reaches them. The original tensors are
    put back when the stage ends, also when it raises.

    Each batch trains through ``_sharded_step``: below 32 clips as one
    shard, else as two halves, the second on the pool thread of a
    ``_part_runner`` that lives for this call and is joined before the
    frozen parameters are put back. The shard count depends on the batch
    size only, so the bits never depend on the CPU or BLAS thread count;
    from 32 clips they differ from one whole-batch tape's in the last
    digits, since the batch reductions are summed per shard."""
    if eval_every < 0:
        raise ValidationError(f"eval_every must be nonnegative, got {eval_every}")
    if eval_every and eval_dataset is None:
        raise ValidationError(f"eval_every {eval_every} needs an eval dataset, got none")
    dataset = dataset.view(model.modalities)
    eval_dataset = None if eval_dataset is None else eval_dataset.view(model.modalities)
    missing = set(schedule.trainable_groups) - model.groups()
    if missing:
        raise ValidationError(f"model has no parameter groups {sorted(missing)}")
    trainable = {n for n in model.params() if model.group_of(n) in set(schedule.trainable_groups)}
    frozen = {n: t for n, t in model.params().items() if n not in trainable}
    model.set_params({**model.params(), **{n: Tensor._wrap(t.data) for n, t in frozen.items()}})
    try:
        rng = rng_for(seed, f"stage:{schedule.name}")
        state: Optional[OptimizerState] = None
        log = TrainingLog()
        n = len(dataset)
        with _part_runner() as run:
            for epoch in range(1, schedule.epochs + 1):
                lr = lr_at(schedule, epoch)
                order = rng.permutation(n)
                loss_sum = 0.0
                acc_sum = np.zeros(3)
                seen = 0
                for start in range(0, n, schedule.batch_size):
                    idx = order[start:start + schedule.batch_size]
                    raw_inputs, labels = dataset.batch(idx)
                    inputs = _prepare_batch(raw_inputs, schedule.frames_T, aug, rng)
                    params = model.params()
                    try:
                        grads_by_uid, scores, lval = _sharded_step(run, model, inputs, labels,
                                                                   rng, schedule)
                    except NonFiniteError as exc:
                        raise NonFiniteError(f"stage {schedule.name} epoch {epoch} batch "
                                             f"{start // schedule.batch_size}: {exc}") from exc
                    grads = {name: grads_by_uid[params[name].uid]
                             for name in trainable if params[name].uid in grads_by_uid}
                    params, state = optimizer_step(schedule.optimizer, params, grads, lr, state)
                    model.set_params(params)
                    bs = len(idx)
                    loss_sum += lval * bs
                    acc_sum += np.array([hit_rate(x, np.asarray(y), 1)
                                         for x, y in zip(scores, labels)]) * bs
                    seen += bs
                row = {"epoch": epoch, "lr": lr, "train_loss": loss_sum / max(1, seen),
                       **{f"train_acc_{task}": acc / max(1, seen)
                          for task, acc in zip(TASKS, acc_sum)}}
                if eval_every and (epoch % eval_every == 0 or epoch == schedule.epochs):
                    table = evaluate(model, eval_dataset, frames_t=schedule.frames_T,
                                     batch_size=schedule.batch_size)
                    labels = eval_dataset.labels_by_segment()
                    row.update({f"eval_acc_{task}": topk_accuracy(table, labels, task, 1)
                                for task in TASKS})
                log.rows.append(row)
        return log
    finally:
        model.set_params({**model.params(), **frozen})
