"""Score tables, ensembling, metrics, decoding, and score files."""

import json

import numpy as np
import pytest

from vnact.errors import FormatError, ValidationError
from vnact.heads import LabelSpace, ScoreTriple
from vnact.scores import (
    MetricsReport,
    ScoreTable,
    average_tables,
    compute_metrics,
    decode,
    hit_rate,
    read_score_json,
    topk_accuracy,
    write_score_json,
    write_submission_json,
)


SPACE = LabelSpace(verbs=("open", "close", "cut"), nouns=("jar", "bread"),
                   actions=((0, 0), (1, 0), (2, 1), (0, 1)))


def random_table(rng, n_segments, space=SPACE, split="test"):
    table = ScoreTable(split=split, label_space_hash=space.space_hash())
    for i in range(n_segments):
        table.add(f"seg_{i:03d}", ScoreTriple(
            rng.normal(size=space.num_verbs),
            rng.normal(size=space.num_nouns),
            rng.normal(size=space.num_actions)))
    return table


def random_labels(rng, table, space=SPACE):
    labels = {}
    for seg in table.segments():
        a = int(rng.integers(space.num_actions))
        v, n = space.actions[a]
        labels[seg] = (v, n, a)
    return labels


# ---------------------------------------------------------------------------
# tables and ensembling


def test_table_rejects_duplicate_segments():
    table = random_table(np.random.default_rng(0), 3)
    with pytest.raises(ValidationError):
        table.add("seg_000", ScoreTriple(np.zeros(3), np.zeros(2), np.zeros(4)))


def test_average_tables_matches_mean_oracle():
    rng = np.random.default_rng(1)
    tables = [random_table(np.random.default_rng(s), 5) for s in (2, 3, 4)]
    out = average_tables(tables)
    assert out.segments() == tables[0].segments()
    for seg in out.segments():
        for task in ("verb", "noun", "action"):
            stack = np.stack([t.results[seg][task] for t in tables])
            acc = stack[0].copy()
            for row in stack[1:]:
                acc = acc + row
            assert np.array_equal(out.results[seg][task], acc / 3.0)

    # A row every table shares is kept as it is; the other rows are averaged.
    mixed = [random_table(np.random.default_rng(20), 5) for _ in range(3)]
    mixed[1].results["seg_001"]["verb"] = mixed[1].results["seg_001"]["verb"] + 0.1
    mixed[2].results["seg_003"]["action"] = mixed[2].results["seg_003"]["action"] * 3.0
    out = average_tables(mixed)
    kept = averaged = 0
    for seg in out.segments():
        for task in ("verb", "noun", "action"):
            stack = np.stack([t.results[seg][task] for t in mixed])
            if all(np.array_equal(row, stack[0]) for row in stack[1:]):
                expected = stack[0]
                kept += 1
            else:
                expected = (stack[0] + stack[1] + stack[2]) / 3.0
                averaged += 1
            assert np.array_equal(out.results[seg][task], expected)
    assert (kept, averaged) == (13, 2)


def test_average_of_identical_tables_is_bitwise_identity():
    base = random_table(np.random.default_rng(5), 4)
    copies = []
    for _ in range(3):
        t = ScoreTable(split=base.split, label_space_hash=base.label_space_hash)
        for seg in base.segments():
            r = base.results[seg]
            t.add(seg, ScoreTriple(r["verb"].copy(), r["noun"].copy(), r["action"].copy()))
        copies.append(t)
    out = average_tables(copies)
    for seg in base.segments():
        for task in ("verb", "noun", "action"):
            assert np.array_equal(out.results[seg][task], base.results[seg][task])


def test_average_tables_validation():
    rng = np.random.default_rng(6)
    a = random_table(np.random.default_rng(7), 3)
    with pytest.raises(ValidationError):
        average_tables([])
    other_space = LabelSpace(verbs=("v",), nouns=("n",), actions=((0, 0),))
    b = random_table(np.random.default_rng(8), 3, space=other_space)
    with pytest.raises(ValidationError):
        average_tables([a, b])
    c = random_table(np.random.default_rng(9), 2)
    with pytest.raises(ValidationError):
        average_tables([a, c])


# ---------------------------------------------------------------------------
# metrics


def test_topk_accuracy_brute_force():
    rng = np.random.default_rng(10)
    table = random_table(rng, 40)
    labels = random_labels(rng, table)
    for task, idx in (("verb", 0), ("noun", 1), ("action", 2)):
        for k in (1, 2, 3):
            hits = 0
            for seg in table.segments():
                order = np.argsort(-table.results[seg][task], kind="stable")
                hits += labels[seg][idx] in order[:k]
            assert topk_accuracy(table, labels, task, k) == hits / len(table)


def test_topk_ties_prefer_lower_class_index():
    table = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    table.add("s", ScoreTriple(np.array([1.0, 1.0, 0.0]), np.zeros(2), np.zeros(4)))
    assert topk_accuracy(table, {"s": (0, 0, 0)}, "verb", 1) == 1.0
    assert topk_accuracy(table, {"s": (1, 0, 0)}, "verb", 1) == 0.0
    assert topk_accuracy(table, {"s": (1, 0, 0)}, "verb", 2) == 1.0


def test_hit_rate_ranks_ties_to_the_lower_class():
    logits = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [-0.0, 0.0, -1.0]])
    assert hit_rate(logits, np.array([0, 1, 0]), 1) == 1.0
    assert hit_rate(logits, np.array([1, 2, 1]), 1) == 0.0
    assert hit_rate(logits, np.array([1, 2, 1]), 2) == 1.0
    assert hit_rate(logits, np.array([2, 0, 2]), 2) == 0.0


def test_top1_never_exceeds_top5():
    rng = np.random.default_rng(11)
    table = random_table(rng, 25)
    labels = random_labels(rng, table)
    for task in ("verb", "noun", "action"):
        assert topk_accuracy(table, labels, task, 1) <= topk_accuracy(table, labels, task, 4)


def macro_precision_recall(table, labels, task):
    """compute_metrics' macro precision and recall of one task, as fractions."""
    row = compute_metrics(table, labels).values[task]
    return row["precision"] / 100.0, row["recall"] / 100.0


def test_macro_precision_recall_brute_force():
    rng = np.random.default_rng(12)
    table = random_table(rng, 60)
    labels = random_labels(rng, table)
    for task, idx, k in (("verb", 0, 3), ("noun", 1, 2), ("action", 2, 4)):
        preds = {seg: int(np.argmax(table.results[seg][task])) for seg in table.segments()}
        trues = {seg: labels[seg][idx] for seg in table.segments()}
        ps, rs = [], []
        for c in range(k):
            tp = sum(1 for s in preds if preds[s] == c and trues[s] == c)
            fp = sum(1 for s in preds if preds[s] == c and trues[s] != c)
            fn = sum(1 for s in preds if preds[s] != c and trues[s] == c)
            if tp + fp + fn == 0:
                continue
            ps.append(tp / (tp + fp) if tp + fp else 0.0)
            rs.append(tp / (tp + fn) if tp + fn else 0.0)
        p, r = macro_precision_recall(table, labels, task)
        assert p == pytest.approx(np.mean(ps), abs=1e-12)
        assert r == pytest.approx(np.mean(rs), abs=1e-12)


def test_macro_precision_zero_for_unpredicted_class():
    table = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    # both segments predict verb 0; verb 1 has ground truth but no predictions
    table.add("a", ScoreTriple(np.array([2.0, 0.0, 0.0]), np.zeros(2), np.zeros(4)))
    table.add("b", ScoreTriple(np.array([2.0, 0.0, 0.0]), np.zeros(2), np.zeros(4)))
    labels = {"a": (0, 0, 0), "b": (1, 0, 1)}
    p, r = macro_precision_recall(table, labels, "verb")
    # class 0: precision 1/2, recall 1; class 1: precision 0, recall 0
    assert p == pytest.approx(0.25)
    assert r == pytest.approx(0.5)


def test_metrics_validation():
    rng = np.random.default_rng(13)
    table = random_table(rng, 4)
    labels = random_labels(rng, table)
    with pytest.raises(ValidationError):
        topk_accuracy(table, labels, "scene", 1)
    with pytest.raises(ValidationError):
        topk_accuracy(table, labels, "verb", 0)
    with pytest.raises(ValidationError):
        topk_accuracy(table, {}, "verb", 1)  # unlabeled segments
    empty = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    with pytest.raises(ValidationError):
        topk_accuracy(empty, labels, "verb", 1)
    with pytest.raises(ValidationError, match="empty score table"):
        compute_metrics(empty, labels)
    with pytest.raises(ValidationError, match="unlabeled segments"):
        compute_metrics(table, {})


def test_compute_metrics_report_and_csv(tmp_path):
    rng = np.random.default_rng(14)
    table = random_table(rng, 30)
    labels = random_labels(rng, table)
    report = compute_metrics(table, labels)
    for task in ("verb", "noun", "action"):
        row = report.values[task]
        assert row["top1"] == pytest.approx(100.0 * topk_accuracy(table, labels, task, 1))
        assert row["top5"] == pytest.approx(100.0 * topk_accuracy(table, labels, task, 5))
        assert 0.0 <= row["precision"] <= 100.0
        assert 0.0 <= row["recall"] <= 100.0
    path = tmp_path / "metrics.csv"
    report.to_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "task,top1,top5,precision,recall"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["verb", "noun", "action"]


def test_every_reader_rejects_an_empty_or_ragged_table():
    empty = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    for read in (lambda t: compute_metrics(t, {}), lambda t: decode(t, SPACE, mode="pair"),
                 lambda t: average_tables([t, t])):
        with pytest.raises(ValidationError, match="empty score table"):
            read(empty)
    ragged = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    ragged.add("a", ScoreTriple(np.zeros(3), np.zeros(2), np.zeros(4)))
    ragged.add("b", ScoreTriple(np.zeros(2), np.zeros(2), np.zeros(4)))
    labels = {"a": (0, 0, 0), "b": (0, 0, 0)}
    for read in (lambda t: compute_metrics(t, labels), lambda t: decode(t, SPACE, mode="pair"),
                 lambda t: average_tables([t, t])):
        with pytest.raises(ValidationError, match="extent of task 'verb'"):
            read(ragged)


@pytest.mark.parametrize("label", [-1, 3])
def test_metrics_reject_a_label_outside_the_classes(label):
    table = random_table(np.random.default_rng(21), 2)
    labels = {"seg_000": (0, 0, 0), "seg_001": (label, 0, 0)}
    for metric in (lambda: topk_accuracy(table, labels, "verb", 1),
                   lambda: compute_metrics(table, labels)):
        with pytest.raises(ValidationError, match="'verb' label lies outside the 3 classes"):
            metric()


# ---------------------------------------------------------------------------
# decoding


def test_decode_direct_predictions_are_observed_actions():
    rng = np.random.default_rng(15)
    table = random_table(rng, 20)
    preds, stats = decode(table, SPACE, mode="direct")
    assert stats == {"segments": 20, "fallback_verb": 0, "fallback_global": 0}
    for seg, (v, n, a) in preds.items():
        assert SPACE.actions[a] == (v, n)
        assert a == int(np.argmax(table.results[seg]["action"]))


def test_decode_pair_mode_fallbacks():
    table = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    # (verb=0, noun=0) is action 0 — no fallback
    table.add("direct_hit", ScoreTriple(
        np.array([5.0, 0.0, 0.0]), np.array([5.0, 0.0]), np.zeros(4)))
    # (verb=1, noun=1) unobserved; verb 1 has only action 1 -> verb fallback
    table.add("verb_fb", ScoreTriple(
        np.array([0.0, 5.0, 0.0]), np.array([0.0, 5.0]), np.array([0.0, 1.0, 2.0, 3.0])))
    preds, stats = decode(table, SPACE, mode="pair")
    assert preds["direct_hit"] == (0, 0, 0)
    assert preds["verb_fb"] == (1, 1, 1)
    assert stats["fallback_verb"] == 1 and stats["fallback_global"] == 0

    # a verb with no actions at all forces the global fallback
    space = LabelSpace(verbs=("a", "b"), nouns=("x",), actions=((0, 0),))
    t2 = ScoreTable(split="t", label_space_hash=space.space_hash())
    t2.add("global_fb", ScoreTriple(np.array([0.0, 5.0]), np.array([5.0]), np.array([1.0])))
    preds2, stats2 = decode(t2, space, mode="pair")
    assert preds2["global_fb"] == (1, 0, 0)
    assert stats2["fallback_global"] == 1


def test_decode_validation():
    rng = np.random.default_rng(16)
    table = random_table(rng, 3)
    with pytest.raises(ValidationError):
        decode(table, SPACE, mode="beam")
    other = LabelSpace(verbs=("v",), nouns=("n",), actions=((0, 0),))
    with pytest.raises(ValidationError):
        decode(table, other)


# ---------------------------------------------------------------------------
# score files


def test_score_json_round_trip_is_value_exact(tmp_path):
    rng = np.random.default_rng(17)
    table = random_table(rng, 8, split="val")
    # exercise extreme magnitudes that need all 17 digits
    table.add("extreme", ScoreTriple(
        np.array([1.0 / 3.0, 1e-300, -1e300]), np.array([np.pi, np.nextafter(1.0, 2.0)]),
        np.arange(4.0)))
    path = tmp_path / "scores.json"
    write_score_json(path, table)
    back = read_score_json(path, SPACE)
    assert back.split == "val"
    assert back.label_space_hash == table.label_space_hash
    assert back.segments() == table.segments()
    for seg in table.segments():
        for task in ("verb", "noun", "action"):
            assert np.array_equal(back.results[seg][task], table.results[seg][task])


def test_score_json_writes_each_float_at_17_significant_digits(tmp_path):
    # The round trip cannot see the sign of zero: -0.0 == 0.0.
    values = np.array([-0.0, 5e-324, 1e-300, np.nextafter(1.0, 2.0)])
    triple = ScoreTriple(values[:3], values[[0, 3]], values)
    table = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    table.add("s", triple)
    path = tmp_path / "scores.json"
    write_score_json(path, table)

    def block(arr):
        return "[" + ",".join(format(float(v), ".17g") for v in arr) + "]"

    expected = ("{\"version\":\"1.0\",\"split\":\"t\",\"label_space\":"
                f"{json.dumps(SPACE.space_hash())},\"results\":{{\"s\":{{"
                f"\"verb\":{block(triple.verb)},\"noun\":{block(triple.noun)},"
                f"\"action\":{block(triple.action)}}}}}}}\n")
    assert path.read_bytes() == expected.encode()
    assert "\"action\":[-0,4.9406564584124654e-324,1e-300,1.0000000000000002]" in expected


def test_score_json_rejects_non_finite(tmp_path):
    table = ScoreTable(split="t", label_space_hash=SPACE.space_hash())
    table.add("s", ScoreTriple(np.array([np.inf, 0.0, 0.0]), np.zeros(2), np.zeros(4)))
    with pytest.raises(ValidationError):
        write_score_json(tmp_path / "bad.json", table)


def test_submission_json_schema(tmp_path):
    rng = np.random.default_rng(18)
    table = random_table(rng, 2, split="test")
    path = tmp_path / "submission.json"
    write_submission_json(path, table)
    payload = json.loads(path.read_text())
    assert payload["version"] == "1.0"
    assert payload["challenge"] == "action_recognition"
    assert payload["split"] == "test"
    assert payload["label_space"] == SPACE.space_hash()
    for seg in table.segments():
        row = payload["results"][seg]
        assert set(row) == {"verb", "noun"}  # submissions omit action logits
        assert np.array_equal(np.asarray(row["verb"]), table.results[seg]["verb"])


@pytest.mark.parametrize("mutate, message_part", [
    (lambda p: p.unlink(), "does not exist"),
    (lambda p: p.write_text("{not json"), "invalid JSON"),
    (lambda p: p.write_text("{\"version\":\"1.0\"}"), "missing field"),
    (lambda p: p.write_text(json.dumps(
        {"version": "2.0", "split": "t", "label_space": "x", "results": {}})), "unsupported version"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x",
         "results": {"s": {"verb": [0.0], "noun": [0.0]}}})), "missing 'action'"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x",
         "results": {"s": {"verb": [[0.0]], "noun": [0.0], "action": [0.0]}}})), "not a flat list"),
    (lambda p: p.write_text("5"), "top level must be an object"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": 5, "label_space": "x", "results": {}})),
     "'split' must be a string, got 5"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": [1], "results": {}})),
     "'label_space' must be a string"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x", "results": []})),
     "'results' must be an object"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x", "results": {"s": 5}})),
     "segment 's' is not an object"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x",
         "results": {"s": {"verb": ["high"], "noun": [0.0], "action": [0.0]}}})), "not numeric"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x",
         "results": {"s": {"verb": ["1.5", 0.0], "noun": [0.0], "action": [0.0]}}})),
     "task 'verb' is not numeric"),
    (lambda p: p.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x",
         "results": {"s": {"verb": [True, 0.0], "noun": [0.0], "action": [0.0]}}})),
     "must be a JSON number, not a string or a bool"),
    (lambda p: p.write_text('{"version": "1.0", "split": "t", "label_space": "x", "results": '
                            '{"s": {"verb": [NaN, 1.0], "noun": [0.0], "action": [0.0]}}}'),
     "task 'verb' holds a non-finite value"),
    (lambda p: p.write_text('{"version": "1.0", "split": "t", "label_space": "x", "results": '
                            '{"s": {"verb": [0.0], "noun": [Infinity], "action": [-Infinity]}}}'),
     "task 'noun' holds a non-finite value"),
])
def test_read_score_json_malformed(tmp_path, mutate, message_part):
    path = tmp_path / "scores.json"
    path.write_text("{}")
    mutate(path)
    with pytest.raises(FormatError, match=message_part):
        read_score_json(path)


def test_read_score_json_rejects_ragged_rows(tmp_path):
    path = tmp_path / "ragged.json"
    path.write_text(json.dumps({"version": "1.0", "split": "t", "label_space": "x", "results": {
        "a": {"verb": [0.0, 1.0, 2.0], "noun": [0.0], "action": [0.0]},
        "b": {"verb": [0.0, 1.0], "noun": [0.0], "action": [0.0]}}}))
    with pytest.raises(FormatError, match="segment 'b' task 'verb' has 2 entries, earlier segments have 3"):
        read_score_json(path)


def test_read_score_json_checks_label_space_extents(tmp_path):
    rng = np.random.default_rng(19)
    table = random_table(rng, 2)
    path = tmp_path / "scores.json"
    write_score_json(path, table)
    # readable without a space; with the wrong space it must complain
    assert len(read_score_json(path)) == 2
    other = LabelSpace(verbs=("v",), nouns=("n",), actions=((0, 0),))
    with pytest.raises(ValidationError):
        read_score_json(path, other)
    payload = json.loads(path.read_text())
    payload["results"]["seg_000"]["verb"] = [0.0]  # wrong extent for SPACE
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match="label space expects"):
        read_score_json(path, SPACE)
