"""Score tables, ensembling, challenge metrics and file formats.

A ScoreTable maps segment ids to verb/noun/action logits under one label
space. Tables serialize to a canonical JSON layout whose floats carry 17
significant digits, so write/read round-trips are value-exact. Ensembling
is the elementwise arithmetic mean accumulated in the given table order,
making the output bit-deterministic for a fixed order.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .errors import FormatError, ValidationError
from .heads import LabelSpace, ScoreTriple, derive_pair

TASKS = ("verb", "noun", "action")


@dataclass
class ScoreTable:
    split: str
    label_space_hash: str
    results: Dict[str, Dict[str, np.ndarray]] = field(default_factory=dict)

    def add(self, segment_id: str, triple: ScoreTriple) -> None:
        if segment_id in self.results:
            raise ValidationError(f"duplicate segment id '{segment_id}'")
        det = triple.detached()
        self.results[segment_id] = {"verb": det.verb, "noun": det.noun, "action": det.action}

    def segments(self) -> List[str]:
        return list(self.results)

    def __len__(self) -> int:
        return len(self.results)


def average_tables(tables: Sequence[ScoreTable]) -> ScoreTable:
    """Elementwise mean of aligned tables, accumulated in list order."""
    if not tables:
        raise ValidationError("need at least one table to ensemble")
    first = tables[0]
    segs = set(first.results)
    for t in tables[1:]:
        if t.label_space_hash != first.label_space_hash:
            raise ValidationError("tables disagree on the label space")
        if set(t.results) != segs:
            raise ValidationError("tables disagree on the segment set")
    out = ScoreTable(split=first.split, label_space_hash=first.label_space_hash)
    k = float(len(tables))
    for seg in first.segments():
        row = {}
        for task in TASKS:
            base = tables[0].results[seg][task]
            rest = [t.results[seg][task] for t in tables[1:]]
            for nxt in rest:
                if nxt.shape != base.shape:
                    raise ValidationError(f"segment '{seg}' task '{task}' extent mismatch")
            if all(np.array_equal(base, nxt) for nxt in rest):
                # Mean of identical rows is the row; bypass the float
                # accumulation so replicated ensembling is bit-exact.
                row[task] = base.copy()
                continue
            acc = base.copy()
            for nxt in rest:
                acc = acc + nxt
            row[task] = acc / k
        out.results[seg] = row
    return out


# ---------------------------------------------------------------------------
# metrics


def _check_labeled(table: ScoreTable, labels: Dict[str, int]) -> None:
    missing = [s for s in table.segments() if s not in labels]
    if missing:
        raise ValidationError(f"unlabeled segments {missing[:5]} (of {len(missing)})")


def _task_labels(labels, task_index: int) -> Dict[str, int]:
    return {seg: int(trip[task_index]) for seg, trip in labels.items()}


def topk_accuracy(table: ScoreTable, labels: Dict[str, tuple], task: str, k: int) -> float:
    """Fraction of segments whose true class is among the k best logits.

    Ties rank the lower class index first, via a stable sort of negated
    logits.
    """
    if task not in TASKS:
        raise ValidationError(f"unknown task '{task}'")
    if k < 1:
        raise ValidationError(f"k must be positive, got {k}")
    if not len(table):
        raise ValidationError("empty score table")
    per_task = _task_labels(labels, TASKS.index(task))
    _check_labeled(table, per_task)
    hits = 0
    for seg in table.segments():
        logits = table.results[seg][task]
        topk = np.argsort(-logits, kind="stable")[:k]
        hits += int(per_task[seg] in topk)
    return hits / len(table)


def _top1(logits: np.ndarray) -> int:
    return int(np.argmax(logits))


def macro_precision_recall(table: ScoreTable, labels: Dict[str, tuple], task: str):
    """Macro-averaged precision and recall of top-1 predictions.

    A class joins the average when it has ground truth or predictions;
    classes with ground truth but no predictions contribute precision 0.
    """
    if task not in TASKS:
        raise ValidationError(f"unknown task '{task}'")
    if not len(table):
        raise ValidationError("empty score table")
    per_task = _task_labels(labels, TASKS.index(task))
    _check_labeled(table, per_task)
    num_classes = len(table.results[table.segments()[0]][task])
    tp = np.zeros(num_classes)
    fp = np.zeros(num_classes)
    fn = np.zeros(num_classes)
    for seg in table.segments():
        pred = _top1(table.results[seg][task])
        true = per_task[seg]
        if pred == true:
            tp[pred] += 1
        else:
            fp[pred] += 1
            fn[true] += 1
    included = (tp + fn > 0) | (tp + fp > 0)
    precisions, recalls = [], []
    for c in np.nonzero(included)[0]:
        precisions.append(tp[c] / (tp[c] + fp[c]) if tp[c] + fp[c] > 0 else 0.0)
        recalls.append(tp[c] / (tp[c] + fn[c]) if tp[c] + fn[c] > 0 else 0.0)
    return float(np.mean(precisions)), float(np.mean(recalls))


@dataclass(frozen=True)
class MetricsReport:
    """Per-task top-1/top-5 accuracy and macro precision/recall, as percentages."""

    values: Dict[str, Dict[str, float]]

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("task,top1,top5,precision,recall\n")
            for task in TASKS:
                row = self.values[task]
                fh.write(f"{task},{row['top1']:.4f},{row['top5']:.4f},"
                         f"{row['precision']:.4f},{row['recall']:.4f}\n")


def compute_metrics(table: ScoreTable, labels: Dict[str, tuple], top_k: int = 5) -> MetricsReport:
    values = {}
    for task in TASKS:
        p, r = macro_precision_recall(table, labels, task)
        values[task] = {
            "top1": 100.0 * topk_accuracy(table, labels, task, 1),
            "top5": 100.0 * topk_accuracy(table, labels, task, top_k),
            "precision": 100.0 * p,
            "recall": 100.0 * r,
        }
    return MetricsReport(values=values)


# ---------------------------------------------------------------------------
# decoding


def decode(table: ScoreTable, space: LabelSpace, mode: str = "direct"):
    """Per-segment (verb, noun, action) predictions.

    direct: argmax the action logits and derive the pair, so predictions
    always name observed actions. pair: argmax verb and noun logits; when
    that pair was never observed, fall back to the best-scoring action
    sharing the predicted verb (or the best action overall if the verb has
    none). Returns (predictions, stats) with the fallback counts.
    """
    if mode not in ("direct", "pair"):
        raise ValidationError(f"unknown decode mode '{mode}'")
    if table.label_space_hash != space.space_hash():
        raise ValidationError("table was scored under a different label space")
    preds: Dict[str, tuple] = {}
    stats = {"segments": len(table), "fallback_verb": 0, "fallback_global": 0}
    pair_to_action = space.pair_to_action
    for seg in table.segments():
        row = table.results[seg]
        if mode == "direct":
            a = _top1(row["action"])
            v, n = derive_pair(a, space)
        else:
            v = _top1(row["verb"])
            n = _top1(row["noun"])
            if (v, n) in pair_to_action:
                a = pair_to_action[(v, n)]
            else:
                shared = [i for i, (pv, _) in enumerate(space.actions) if pv == v]
                if shared:
                    a = shared[int(np.argmax(row["action"][shared]))]
                    stats["fallback_verb"] += 1
                else:
                    a = _top1(row["action"])
                    stats["fallback_global"] += 1
        preds[seg] = (v, n, a)
    return preds, stats


# ---------------------------------------------------------------------------
# canonical JSON serialization


def _fmt_float(x: float) -> str:
    if not np.isfinite(x):
        raise ValidationError(f"score files cannot hold non-finite value {x}")
    return format(float(x), ".17g")


def _scores_block(results: Dict[str, Dict[str, np.ndarray]], tasks: Sequence[str]) -> str:
    seg_parts = []
    for seg in results:
        task_parts = []
        for task in tasks:
            nums = ",".join(_fmt_float(v) for v in np.asarray(results[seg][task]).ravel())
            task_parts.append(f"{json.dumps(task)}:[{nums}]")
        seg_parts.append(f"{json.dumps(seg)}:{{{','.join(task_parts)}}}")
    return "{" + ",".join(seg_parts) + "}"


def write_score_json(path, table: ScoreTable) -> None:
    """Canonical score file: fixed key order, floats at 17 significant digits."""
    body = (
        "{"
        f"\"version\":\"1.0\",\"split\":{json.dumps(table.split)},"
        f"\"label_space\":{json.dumps(table.label_space_hash)},"
        f"\"results\":{_scores_block(table.results, TASKS)}"
        "}"
    )
    with open(path, "w") as fh:
        fh.write(body + "\n")


def write_submission_json(path, table: ScoreTable) -> None:
    """Score file minus the action block, plus the challenge tag."""
    body = (
        "{"
        "\"version\":\"1.0\",\"challenge\":\"action_recognition\","
        f"\"split\":{json.dumps(table.split)},"
        f"\"label_space\":{json.dumps(table.label_space_hash)},"
        f"\"results\":{_scores_block(table.results, ('verb', 'noun'))}"
        "}"
    )
    with open(path, "w") as fh:
        fh.write(body + "\n")


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
    if not isinstance(payload["results"], dict):
        raise FormatError(f"score file {path}: 'results' must be an object")
    if payload["version"] != "1.0":
        raise FormatError(f"score file {path}: unsupported version '{payload['version']}'")
    table = ScoreTable(split=payload["split"], label_space_hash=payload["label_space"])
    if space is not None and space.space_hash() != table.label_space_hash:
        raise ValidationError(f"score file {path} uses a different label space")
    extents = {"verb": space.num_verbs, "noun": space.num_nouns,
               "action": space.num_actions} if space is not None else None
    for seg, row in payload["results"].items():
        if not isinstance(row, dict):
            raise FormatError(f"score file {path}: segment '{seg}' is not an object")
        parsed = {}
        for task in TASKS:
            if task not in row:
                raise FormatError(f"score file {path}: segment '{seg}' missing '{task}'")
            try:
                arr = np.asarray(row[task], dtype=np.float64)
            except (TypeError, ValueError) as exc:
                raise FormatError(
                    f"score file {path}: segment '{seg}' task '{task}' is not numeric ({exc})") from exc
            if arr.ndim != 1:
                raise FormatError(f"score file {path}: segment '{seg}' task '{task}' is not a flat list")
            if extents is not None and arr.shape[0] != extents[task]:
                raise FormatError(
                    f"score file {path}: segment '{seg}' task '{task}' has {arr.shape[0]} entries, "
                    f"label space expects {extents[task]}")
            parsed[task] = arr
        table.results[seg] = parsed
    return table
