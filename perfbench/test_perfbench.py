"""Self-tests of the desk benchmark.

    python3 -m pytest perfbench -q

The end-to-end tests run the benchmark at a one-second run length (each
run still does one whole training round and three eval passes, so the
file takes about two minutes). The check tests feed deliberately
corrupted outputs to the correctness checks and expect them to fail.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
from tracer import rebound  # noqa: E402
from vnact import models, ops, scores, synthetic, training  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload,trace", [
    ("hf-tsn", 0), ("hf-tsn", 1), ("lsta-gru", 1), ("two-stream", 1)])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    out = _bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, out.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert metrics["trace.coverage_pct"] > 90.0
        assert (metrics["cells.rollout_fwd_ms"] == 0.0) == (workload == "hf-tsn")
        assert (metrics["ops.conv3d.calls"] > 0) == (workload == "two-stream")


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(tmp_path, "hf-tsn", 0)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    space = synthetic.default_label_space(3, 4, 6, seed=0)
    data = synthetic.make_synthetic(space, 12, 3, 2, 8, 8, 0.4, seed=5, split_tag="test")
    model = models.create_model("lsta", {"input_channels": 2, "stage_channels": [3, 4],
                                         "memory": 3}, space, seed=1)
    table = training.evaluate(model, data, frames_t=3)
    path = tmp_path_factory.mktemp("scores") / "scores.json"
    scores.write_score_json(path, table)
    return space, data, model, table, path


def _perturbed(table, segment, task, delta):
    results = {s: dict(row) for s, row in table.results.items()}
    row = results[segment][task].copy()
    row[int(np.argmin(row))] += delta
    results[segment][task] = row
    return scores.ScoreTable(table.split, table.label_space_hash, results)


def test_checks_pass_on_true_outputs(tiny):
    space, data, model, table, path = tiny
    checks.score_file_round_trips(path, table, space)
    checks.topk_matches(table, data.labels_by_segment(),
                        scores.compute_metrics(table, data.labels_by_segment()))
    checks.checkpoint_scores_match(lambda ds: training.evaluate(model, ds, frames_t=3),
                                   data, table)
    inputs, labels = data.batch(range(2))
    checks.gradients_match(model, ("heads", "lsta", "backbone_last_stage"), inputs, labels,
                           ("verb", "noun", "action"), np.random.default_rng(0))
    checks.forward_properties(model, inputs)


def test_score_round_trip_check_catches_a_perturbed_row(tiny):
    space, data, _, table, path = tiny
    seg = table.segments()[3]
    bad = _perturbed(table, seg, "noun", np.spacing(1.0))
    with pytest.raises(checks.CheckFailed, match="round trip"):
        checks.score_file_round_trips(path, bad, space)


def test_topk_check_catches_a_perturbed_row(tiny):
    _, data, _, table, _ = tiny
    labels = data.labels_by_segment()
    report = scores.compute_metrics(table, labels)
    seg = table.segments()[0]
    truth = labels[seg][2]
    results = {s: dict(row) for s, row in table.results.items()}
    row = results[seg]["action"].copy()
    # Make the true action the clear best or clearly worst, flipping top-1.
    row[truth] = row.max() + 10.0 if np.argmax(row) != truth else row.min() - 10.0
    results[seg]["action"] = row
    bad = scores.ScoreTable(table.split, table.label_space_hash, results)
    with pytest.raises(checks.CheckFailed, match="action top1"):
        checks.topk_matches(bad, labels, report)


def test_checkpoint_check_catches_a_perturbed_row(tiny):
    _, data, model, table, _ = tiny
    bad = _perturbed(table, table.segments()[1], "verb", 1e-9)
    with pytest.raises(checks.CheckFailed, match="checkpoint reload"):
        checks.checkpoint_scores_match(lambda ds: training.evaluate(model, ds, frames_t=3),
                                       data, bad)


def test_gradient_check_catches_a_perturbed_gradient(tiny, monkeypatch):
    _, data, model, _, _ = tiny
    true_gradients = checks.tape_gradients
    monkeypatch.setattr(checks, "tape_gradients", lambda *a: {
        name: g + 1e-3 for name, g in true_gradients(*a).items()})
    inputs, labels = data.batch(range(2))
    with pytest.raises(checks.CheckFailed, match="finite difference"):
        checks.gradients_match(model, ("heads",), inputs, labels,
                               ("verb", "noun", "action"), np.random.default_rng(0))


def test_forward_check_catches_a_perturbed_convolution(tiny):
    _, data, model, _, _ = tiny
    true_conv = ops.conv2d

    def off_by_a_little(x, kernel, *args, **kwargs):
        return true_conv(x, kernel, *args, **kwargs) + 1e-9

    inputs, _ = data.batch(range(2))
    with rebound(true_conv, off_by_a_little):
        with pytest.raises(checks.CheckFailed, match="direct correlation"):
            checks.forward_properties(model, inputs)
