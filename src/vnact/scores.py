"""Score tables, ensembling, challenge metrics and file formats.

A ScoreTable maps segment ids to verb/noun/action logits under one label
space. Metrics, decoding and ensembling read a table as one (N, K)
matrix per task, one row per segment in table order; the one helper that
stacks it also rejects an unknown task, an empty table, segments whose
rows differ in extent and, for metrics, unlabelled segments and labels
outside the classes. Classes are
ranked by one rule, a stable sort of the negated logits, so a tie goes to
the lower class index; top-k accuracy, macro precision/recall, decoding
and training accuracy all rank through it.

Tables serialize to a canonical JSON layout whose floats carry 17
significant digits, so write/read round-trips are value-exact. Ensembling
is the elementwise arithmetic mean accumulated in the given table order,
making the output bit-deterministic for a fixed order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import FormatError, ValidationError, _typed
from .heads import TASKS, LabelSpace, ScoreTriple, derive_pair


@dataclass
class ScoreTable:
    split: str
    label_space_hash: str
    results: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    def add(self, segment_id: str, triple: ScoreTriple) -> None:
        if segment_id in self.results:
            raise ValidationError(f"duplicate segment id '{segment_id}'")
        self.results[segment_id] = triple.detached()._asdict()

    def segments(self) -> List[str]:
        return list(self.results)

    def __len__(self) -> int:
        return len(self.results)


def _matrix(table: ScoreTable, task: str, labels: Optional[Dict[str, tuple]]):
    """The (N, K) logits of ``task``, one row per segment in table order,
    and, given ``labels``, the (N,) true class ids (else None)."""
    if task not in TASKS:
        raise ValidationError(f"unknown task '{task}'")
    if not len(table):
        raise ValidationError("empty score table")
    try:
        logits = np.stack([row[task] for row in table.results.values()])
    except ValueError as exc:
        raise ValidationError(f"segments disagree on the extent of task '{task}'") from exc
    if labels is None:
        return logits, None
    missing = [s for s in table.results if s not in labels]
    if missing:
        raise ValidationError(f"unlabeled segments {missing[:5]} (of {len(missing)})")
    j = TASKS.index(task)
    truth = np.array([labels[s][j] for s in table.results], dtype=np.int64)
    if truth.min() < 0 or truth.max() >= logits.shape[1]:
        raise ValidationError(f"a '{task}' label lies outside the {logits.shape[1]} classes")
    return logits, truth


def _ranked(logits: np.ndarray, k: int) -> np.ndarray:
    """The k best classes along the last axis, best first. The sort of the
    negated logits is stable, so a tie ranks the lower class first."""
    return np.argsort(-logits, axis=-1, kind="stable")[..., :k]


def hit_rate(logits: np.ndarray, truth: np.ndarray, k: int) -> float:
    """Fraction of the rows of (N, K) logits whose true class is among the k best."""
    return float(np.mean(np.any(_ranked(logits, k) == truth[:, None], axis=1)))


def average_tables(tables: Sequence[ScoreTable]) -> ScoreTable:
    """Elementwise mean of aligned tables, accumulated in list order."""
    if not tables:
        raise ValidationError("need at least one table to ensemble")
    first = tables[0]
    for t in tables[1:]:
        if t.label_space_hash != first.label_space_hash:
            raise ValidationError("tables disagree on the label space")
        if set(t.results) != set(first.results):
            raise ValidationError("tables disagree on the segment set")
    aligned = [ScoreTable(t.split, t.label_space_hash, {s: t.results[s] for s in first.results})
               for t in tables]
    means = []
    for task in TASKS:
        base, *rest = (_matrix(t, task, None)[0] for t in aligned)
        same = np.ones(len(base), dtype=bool)
        acc = base
        for nxt in rest:
            if nxt.shape != base.shape:
                raise ValidationError(f"tables disagree on the extent of task '{task}'")
            same &= np.all(nxt == base, axis=1)
            acc = acc + nxt
        # The mean of identical rows is the row; bypassing the float
        # accumulation there keeps replicated ensembling bit-exact.
        means.append(np.where(same[:, None], base, acc / float(len(tables))))
    out = ScoreTable(split=first.split, label_space_hash=first.label_space_hash)
    out.results = {seg: dict(zip(TASKS, rows)) for seg, *rows in zip(first.results, *means)}
    return out


# ---------------------------------------------------------------------------
# metrics


def topk_accuracy(table: ScoreTable, labels: Dict[str, tuple], task: str, k: int) -> float:
    """Fraction of segments whose true class is among the k best logits."""
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    return hit_rate(*_matrix(table, task, labels), k)


def _precision_recall(logits: np.ndarray, truth: np.ndarray):
    pred = _ranked(logits, 1)[:, 0]
    hit = pred == truth
    k = logits.shape[1]
    tp, fp, fn = (np.bincount(ids, minlength=k) for ids in (pred[hit], pred[~hit], truth[~hit]))
    included = (tp + fn > 0) | (tp + fp > 0)
    # A class with no predictions (or no ground truth) has tp = 0: 0 / 1 is its 0.
    precision = tp[included] / np.maximum(tp + fp, 1)[included]
    recall = tp[included] / np.maximum(tp + fn, 1)[included]
    return float(np.mean(precision)), float(np.mean(recall))


@dataclass(frozen=True)
class MetricsReport:
    """Per-task top-1/top-5 accuracy and macro precision/recall, as percentages."""

    values: Dict[str, Dict[str, float]]

    def csv_text(self) -> str:
        lines = ["task,top1,top5,precision,recall\n"]
        for task in TASKS:
            v = self.values[task]
            lines.append(f"{task},{v['top1']:.4f},{v['top5']:.4f},"
                         f"{v['precision']:.4f},{v['recall']:.4f}\n")
        return "".join(lines)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.csv_text())


def compute_metrics(table: ScoreTable, labels: Dict[str, tuple]) -> MetricsReport:
    values = {}
    for task in TASKS:
        logits, truth = _matrix(table, task, labels)
        p, r = _precision_recall(logits, truth)
        values[task] = {
            "top1": 100.0 * hit_rate(logits, truth, 1),
            "top5": 100.0 * hit_rate(logits, truth, 5),
            "precision": 100.0 * p,
            "recall": 100.0 * r,
        }
    return MetricsReport(values=values)


# ---------------------------------------------------------------------------
# decoding


def decode(table: ScoreTable, space: LabelSpace, mode: str):
    """Per-segment (verb, noun, action) predictions.

    direct: the top action, and the pair it was built from, so predictions
    always name observed actions. pair: the top verb and noun; when that
    pair was never observed, fall back to the best-scoring action sharing
    the predicted verb (or the best action overall if the verb has none).
    Returns (predictions, stats) with the fallback counts.
    """
    if mode not in ("direct", "pair"):
        raise ValidationError(f"unknown decode mode '{mode}'")
    if table.label_space_hash != space.space_hash():
        raise ValidationError("table was scored under a different label space")
    actions, _ = _matrix(table, "action", None)
    top_action = _ranked(actions, 1)[:, 0].tolist()
    stats = {"segments": len(table), "fallback_verb": 0, "fallback_global": 0}
    if mode == "direct":
        return {seg: (*derive_pair(a, space), a) for seg, a in zip(table.results, top_action)}, stats
    verbs, nouns = (_ranked(_matrix(table, task, None)[0], 1)[:, 0].tolist()
                    for task in ("verb", "noun"))
    preds: Dict[str, tuple] = {}
    pair_to_action = space.pair_to_action
    for i, seg in enumerate(table.results):
        v, n = verbs[i], nouns[i]
        a = pair_to_action.get((v, n))
        if a is None:
            shared = [j for j, (pv, _) in enumerate(space.actions) if pv == v]
            if shared:
                a = shared[int(_ranked(actions[i, shared], 1)[0])]
                stats["fallback_verb"] += 1
            else:
                a = top_action[i]
                stats["fallback_global"] += 1
        preds[seg] = (v, n, a)
    return preds, stats


# ---------------------------------------------------------------------------
# canonical JSON serialization


def write_score_json(path, table: ScoreTable) -> None:
    """Canonical score file: fixed key order, floats at 17 significant digits."""
    _write_scores(path, table, "", TASKS)


def write_submission_json(path, table: ScoreTable) -> None:
    """Score file minus the action block, plus the challenge tag."""
    _write_scores(path, table, "\"challenge\":\"action_recognition\",", ("verb", "noun"))


def _write_scores(path, table: ScoreTable, tag: str, tasks: Sequence[str]) -> None:
    """``table``'s ``tasks`` in the canonical layout, with ``tag`` after the version."""
    keys = [json.dumps(task) for task in tasks]
    seg_parts = []
    for seg, row in table.results.items():
        task_parts = []
        for key, task in zip(keys, tasks):
            arr = np.asarray(row[task]).ravel()
            if not np.isfinite(arr).all():
                bad = arr[~np.isfinite(arr)][0]
                raise ValidationError(f"score files cannot hold non-finite value {bad}")
            nums = ",".join(format(v, ".17g") for v in arr.tolist())
            task_parts.append(f"{key}:[{nums}]")
        seg_parts.append(f"{json.dumps(seg)}:{{{','.join(task_parts)}}}")
    body = (f"{{\"version\":\"1.0\",{tag}\"split\":{json.dumps(table.split)},"
            f"\"label_space\":{json.dumps(table.label_space_hash)},"
            f"\"results\":{{{','.join(seg_parts)}}}}}\n")
    with open(path, "w") as fh:
        fh.write(body)


def read_score_json(path, space: Optional[LabelSpace] = None) -> ScoreTable:
    if not os.path.exists(path):
        raise FormatError(f"score file {path} does not exist")
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"score file {path}: invalid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"score file {path}: top level must be an object")
    for key in ("version", "split", "label_space", "results"):
        if key not in payload:
            raise FormatError(f"score file {path}: missing field '{key}'")
        if key in ("split", "label_space") and not isinstance(payload[key], str):
            raise FormatError(f"score file {path}: '{key}' must be a string, got {payload[key]!r}")
    if not isinstance(payload["results"], dict):
        raise FormatError(f"score file {path}: 'results' must be an object")
    if payload["version"] != "1.0":
        raise FormatError(f"score file {path}: unsupported version '{payload['version']}'")
    table = ScoreTable(split=payload["split"], label_space_hash=payload["label_space"])
    if space is not None and space.space_hash() != table.label_space_hash:
        raise ValidationError(f"score file {path} uses a different label space")
    # Without a label space, the first segment sets each task's extent.
    extents = {} if space is None else dict(
        zip(TASKS, (space.num_verbs, space.num_nouns, space.num_actions)))
    for seg, row in payload["results"].items():
        if not isinstance(row, dict):
            raise FormatError(f"score file {path}: segment '{seg}' is not an object")
        parsed = {}
        for task in TASKS:
            if task not in row:
                raise FormatError(f"score file {path}: segment '{seg}' missing '{task}'")
            values = row[task]
            if not isinstance(values, list) or any(isinstance(v, list) for v in values):
                raise FormatError(f"score file {path}: segment '{seg}' task '{task}' is not a flat list")
            try:
                arr = np.array(_typed(values, Tuple[float, ...], task))
            except ValidationError as exc:
                raise FormatError(f"score file {path}: segment '{seg}' task '{task}' is not numeric "
                                  f"(every score must be a JSON number, not a string or a bool)") from exc
            if not np.isfinite(arr).all():
                raise FormatError(f"score file {path}: segment '{seg}' task '{task}' holds a "
                                  f"non-finite value (NaN or Infinity)")
            expected = extents.setdefault(task, arr.shape[0])
            if arr.shape[0] != expected:
                source = "label space expects" if space is not None else "earlier segments have"
                raise FormatError(
                    f"score file {path}: segment '{seg}' task '{task}' has {arr.shape[0]} entries, "
                    f"{source} {expected}")
            parsed[task] = arr
        table.results[seg] = parsed
    return table
