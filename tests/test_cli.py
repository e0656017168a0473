"""End-to-end runs of every CLI subcommand on tiny configurations."""

import argparse
import ast
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vnact import cli, training
from vnact.cli import build_parser, main
from vnact.models import create_model
from vnact.scores import read_score_json
from vnact.synthetic import SyntheticDataset
from vnact.training import PRESETS, StageSchedule, apply_overrides

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def make_tiny_dataset(root, two_stream=False, seed=3):
    args = ["make-synthetic", "--out-dir", str(root), "--seed", str(seed),
            "--verbs", "3", "--nouns", "3", "--actions", "5",
            "--train-samples", "12", "--test-samples", "8",
            "--t-len", "4", "--channels", "2", "--height", "8", "--width", "8",
            "--noise-sigma", "0.25"]
    if two_stream:
        args += ["--two-stream", "--flow-channels", "4"]
    assert main(args) == 0


def train_tiny(dataset_dir, out_dir, extra=()):
    cfg = {
        "preset": "lsta_stage1",
        "model": {"family": "lsta", "stage_channels": [3, 4], "memory": 4},
        "overrides": {"epochs": 2, "frames_T": 3, "batch_size": 4,
                      "dropout_p": 0.0,
                      "trainable_groups": ["heads", "lsta"]},
    }
    cfg_path = os.path.join(out_dir, "config.json")
    os.makedirs(out_dir, exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(cfg, fh)
    return main(["train", "--dataset", str(dataset_dir), "--out-dir", str(out_dir),
                 "--config", cfg_path, "--seed", "5", *extra])


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One shared tiny dataset + trained model for the read-only commands."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    make_tiny_dataset(data)
    run = root / "run"
    assert train_tiny(data, run) == 0
    return {"root": root, "data": data, "run": run}


def test_make_synthetic_writes_loadable_splits(tmp_path):
    make_tiny_dataset(tmp_path / "ds")
    train = SyntheticDataset.load(tmp_path / "ds" / "train")
    test = SyntheticDataset.load(tmp_path / "ds" / "test")
    assert len(train) == 12 and len(test) == 8
    assert train.split_tag == "train"
    assert train.space.actions == test.space.actions
    assert train.inputs["frames"].shape == (12, 4, 2, 8, 8)


def test_make_synthetic_two_stream(tmp_path):
    make_tiny_dataset(tmp_path / "ds", two_stream=True)
    train = SyntheticDataset.load(tmp_path / "ds" / "train")
    assert set(train.inputs) == {"frames", "flow"}
    assert train.inputs["flow"].shape[2] == 4


@pytest.mark.parametrize("flags, message", [
    (["--flow-channels", "0"], "flow channel count"),
    (["--flow-channels", "3"], "flow channel count"),
    (["--noise-sigma", "-1"], "noise_sigma must be nonnegative"),
    (["--t-len", "0"], "extents must be positive"),
    (["--train-samples", "0"], "extents must be positive"),
])
def test_make_synthetic_two_stream_bad_sizes_exit_one(tmp_path, capsys, flags, message):
    """The two-stream maker runs the single-stream checks, plus its own flow check."""
    assert main(["make-synthetic", "--out-dir", str(tmp_path / "data"), "--two-stream",
                 "--train-samples", "2", "--test-samples", "2", *flags]) == 1
    assert message in capsys.readouterr().err


def test_train_writes_artifacts(workspace):
    run = workspace["run"]
    for name in ("model", "log.csv", "summary.json", "test_scores.json"):
        assert (run / name).exists()
    summary = json.loads((run / "summary.json").read_text())
    assert summary["epochs"] == 2
    assert "test" in summary and "verb" in summary["test"]
    table = read_score_json(run / "test_scores.json")
    assert len(table) == 8


def test_train_errors_map_to_exit_code_one(workspace, tmp_path, capsys):
    data = workspace["data"]
    no_family = tmp_path / "no_family.json"
    no_family.write_text(json.dumps({"preset": "lsta_stage1"}))
    assert main(["train", "--dataset", str(data), "--out-dir", str(tmp_path),
                 "--config", str(no_family)]) == 1
    assert "train config needs a model family" in capsys.readouterr().err

    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "lsta_stage1",
                               "model": {"family": "lsta"},
                               "overrides": {"epochs": 1, "warmup": 5}}))
    assert main(["train", "--dataset", str(data), "--out-dir", str(tmp_path),
                 "--config", str(cfg)]) == 1  # unknown override key
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_trainable_base_config()))
    assert main(["train", "--dataset", str(tmp_path / "nowhere"),
                 "--out-dir", str(tmp_path), "--config", str(good)]) == 1  # missing dataset

    bad_json = tmp_path / "nonjson.json"
    bad_json.write_text("{oops")
    assert main(["train", "--dataset", str(data), "--out-dir", str(tmp_path),
                 "--config", str(bad_json)]) == 1


def _trainable_base_config():
    return {"preset": "lsta_stage1",
            "model": {"family": "lsta", "stage_channels": [3, 4], "memory": 4},
            "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4,
                          "trainable_groups": ["heads", "lsta"]}}


def test_train_wrong_shape_base_config_trains(workspace, tmp_path):
    """The config each wrong-shape entry is merged into exits 0 as it stands."""
    (tmp_path / "base.json").write_text(json.dumps(_trainable_base_config()))
    assert main(["train", "--dataset", str(workspace["data"]), "--out-dir", str(tmp_path / "out"),
                 "--config", str(tmp_path / "base.json")]) == 0


@pytest.mark.parametrize("entry, message", [
    ({"model": {"family": "lsta", "memory": 8}}, "config keys ['model.memory'] would be ignored"),
    ({"model": {"family": "lsta", "memory": 8, "stage_channels": [3]}},
     "config keys ['model.memory', 'model.stage_channels'] would be ignored"),
    ({"model": {"family": "motion"}}, "config family 'motion' conflicts with checkpoint family 'lsta'"),
])
def test_train_from_a_checkpoint_refuses_model_settings_it_would_ignore(workspace, tmp_path,
                                                                         capsys, entry, message):
    cfg = {"preset": "lsta_stage2", "init_from": {"model": str(workspace["run"] / "model")},
           "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4}, **entry}
    (tmp_path / "resume.json").write_text(json.dumps(cfg))
    assert main(["train", "--dataset", str(workspace["data"]), "--out-dir", str(tmp_path / "out"),
                 "--config", str(tmp_path / "resume.json")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_from_two_streams_refuses_another_family(workspace, tmp_path, capsys):
    space = SyntheticDataset.load(workspace["data"] / "train").space
    init_from = {}
    for key, family, config in (("app", "lsta", {"input_channels": 2}),
                                ("motion", "motion", {"flow_channels": 4})):
        init_from[key] = str(tmp_path / key)
        create_model(family, {**config, "stage_channels": [3, 4], "memory": 3}, space,
                     seed=0).save(init_from[key])
    cfg = {"preset": "two_stream", "model": {"family": "motion"}, "init_from": init_from,
           "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4}}
    (tmp_path / "fuse.json").write_text(json.dumps(cfg))
    assert main(["train", "--dataset", str(workspace["data"]), "--out-dir", str(tmp_path / "out"),
                 "--config", str(tmp_path / "fuse.json")]) == 1
    err = capsys.readouterr().err
    assert "config family 'motion' conflicts with checkpoint family 'two_stream'" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry, message", [
    ({"overrides": [1, 2]}, "'overrides' must be an object"),
    ({"init_from": "x"}, "'init_from' must be an object"),
    ({"augmentation": {"scale_jitter": [2]}}, "config 'scale_jitter' must be [float, float], got [2]"),
    ({"seed": 5}, "unknown train config keys ['seed']"),
    ({"preset": ["a"]}, "unknown preset"),
    ({"init_from": {"model": 5}}, "'init_from.model' must be a path"),
    ({"augmentation": {"horizontal_flip": "x"}}, "config 'horizontal_flip' must be float"),
    ({"augmentation": {"scale_jitter": 5}}, "config 'scale_jitter' must be [float, float], got 5"),
    ({"overrides": {"memory_D": 6}}, "unknown override keys ['memory_D']"),
    ({"overrides": {"epochs": "x"}}, "config 'epochs' must be int, got 'x'"),
    ({"overrides": {"trainable_groups": 5}}, "config 'trainable_groups' must be list of str, got 5"),
    ({"augmentation": {"temporal_jitter": "false"}}, "config 'temporal_jitter' must be bool"),
    ({"augmentation": {"horizontal_flip": True}}, "config 'horizontal_flip' must be float"),
    ({"preset": None}, "train config needs a 'preset'"),
    ({"model": {"family": None}}, "train config needs a model family (model.family)"),
    ({"overrides": {"batch_size": 2.5}}, "config 'batch_size' must be int, got 2.5"),
    ({"overrides": {"epochs": True}}, "config 'epochs' must be int, got True"),
    ({"overrides": {"dropout_p": False}}, "config 'dropout_p' must be float, got False"),
    ({"model": {"family": "lstm"}}, "unknown model family 'lstm'"),
    ({"overrides": {"epochs": 5.0}}, "config 'epochs' must be int, got 5.0"),
    ({"overrides": {"trainable_groups": "heads"}},
     "config 'trainable_groups' must be list of str, got 'heads'"),
    ({"overrides": {"loss_tasks": "verb"}}, "config 'loss_tasks' must be list of str, got 'verb'"),
    ({"augmentation": {"scale_jitter": []}}, "config 'scale_jitter' must be [float, float], got []"),
    ({"model": {"memory": 4.0}}, "config 'memory' must be int, got 4.0"),
    ({"model": {"memory": 0}}, "model config 'memory' must hold sizes of at least 1, got 0"),
    ({"model": {"family": "lsta_gru", "gru_hidden": 0}},
     "model config 'gru_hidden' must hold sizes of at least 1, got 0"),
    ({"model": {"stage_channels": []}},
     "model config 'stage_channels' must hold sizes of at least 1, got []"),
    ({"model": {"stage_channels": 4}}, "config 'stage_channels' must be list of int, got 4"),
    ({"augmentation": {"horizontal_flp": 0.5}}, "unknown augmentation keys ['horizontal_flp']"),
    ({"overides": {"epochs": 50}}, "unknown train config keys ['overides']"),
    ({"augmentaion": {"horizontal_flip": 0.5}}, "unknown train config keys ['augmentaion']"),
    ({"init_from": {"modle": "r1/model"}}, "unknown init_from keys ['modle']"),
    ({"model": {"memroy": 8}}, "unknown model config keys ['memroy']"),
    ({"model": {"family": "hf_tsn", "memory": 3}}, "unknown model config keys ['memory']"),
    ({"model": {"family": "two_stream", "app": 5}}, "config 'app' must be an object, got int"),
])
def test_train_config_values_of_the_wrong_shape_exit_one(workspace, tmp_path, capsys,
                                                          entry, message):
    """Each entry is merged into a config that trains one tiny epoch, so a
    value that got through would show as exit 0."""
    cfg = _trainable_base_config()
    for key, value in entry.items():
        cfg[key] = {**cfg.get(key, {}), **value} if isinstance(value, dict) else value
    (tmp_path / "bad.json").write_text(json.dumps(cfg))
    assert main(["train", "--dataset", str(workspace["data"]), "--out-dir", str(tmp_path / "out"),
                 "--config", str(tmp_path / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("model, message", [
    ({"family": "lsta", "input_channels": 2, "stage_channels": [3, 4], "memory": 4},
     "config key 'model.input_channels' repeats the 'frames' input's channel count"),
    ({"family": "two_stream", "app": {"stage_channels": [3, 4], "memory": 4},
      "motion": {"flow_channels": 4, "stage_channels": [3, 4], "memory": 4}},
     "config key 'model.motion.flow_channels' repeats the 'flow' input's channel count"),
    ({"family": "hf_tsn", "stage_channels": [3, 4], "segments": 3, "hf_positions": [0, 1]},
     "config key 'model.segments' repeats the schedule's frames_T"),
    ({"family": "lsta", "stage_channels": [3, 4]}, "model config lacks key 'memory'"),
    ({"family": "hf_tsn", "stage_channels": [3, 4]}, "model config lacks key 'hf_positions'"),
])
def test_train_model_section_sets_sizes_and_no_key_the_data_fixes(tmp_path, capsys, model,
                                                                   message):
    """The model section states every size (only the fusion widths have
    defaults), and none of the keys the data fixes: each input's channel
    count comes from the dataset and HF-TSN's segments from frames_T."""
    make_tiny_dataset(tmp_path / "data", two_stream=True)
    cfg = {"preset": "lsta_stage1", "model": model,
           "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["train", "--dataset", str(tmp_path / "data"), "--out-dir", str(tmp_path / "out"),
                 "--config", str(tmp_path / "config.json")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_train_fills_channels_from_the_data_and_segments_from_frames_t(tmp_path):
    make_tiny_dataset(tmp_path / "data", two_stream=True)
    for family, model in (("hf_tsn", {"stage_channels": [3, 4], "hf_positions": [0]}),
                          ("two_stream", {"app": {"stage_channels": [3], "memory": 2},
                                          "motion": {"stage_channels": [3], "memory": 2}})):
        cfg = {"preset": "lsta_stage1", "model": {"family": family, **model},
               "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4,
                             "trainable_groups": ["heads"]}}
        (tmp_path / "config.json").write_text(json.dumps(cfg))
        assert main(["train", "--dataset", str(tmp_path / "data"), "--out-dir",
                     str(tmp_path / family), "--config", str(tmp_path / "config.json")]) == 0
        written = json.loads((tmp_path / family / "model" / "model.json").read_text())["config"]
        if family == "hf_tsn":
            assert (written["input_channels"], written["segments"]) == (2, 3)
        else:
            assert (written["app"]["input_channels"], written["motion"]["flow_channels"]) == (2, 4)


def test_eval_without_frames_t_samples_the_models_clip_length(tmp_path, capsys, monkeypatch):
    """An hf_tsn model trained with frames_T 4 on clips of 8 frames scores the
    test split without --frames-t, writing the bytes --frames-t 4 writes;
    --frames-t 8 exits 1 without a traceback, also with a part of each batch
    scored off the calling thread."""
    monkeypatch.setattr(training, "_WORKERS", 2)
    assert main(["make-synthetic", "--out-dir", str(tmp_path / "data"), "--verbs", "3",
                 "--nouns", "3", "--actions", "5", "--train-samples", "4", "--test-samples", "3",
                 "--t-len", "8", "--channels", "2", "--height", "8", "--width", "8"]) == 0
    cfg = {"preset": "hf_tsn",
           "model": {"family": "hf_tsn", "stage_channels": [3, 4], "hf_positions": [0]},
           "overrides": {"epochs": 1, "frames_T": 4, "batch_size": 4}}
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    assert main(["train", "--dataset", str(tmp_path / "data"), "--out-dir", str(tmp_path / "run"),
                 "--config", str(tmp_path / "config.json")]) == 0
    written = []
    for flags in ([], ["--frames-t", "4"]):
        out = tmp_path / f"scores{len(flags)}.json"
        assert main(["eval", "--model", str(tmp_path / "run" / "model"),
                     "--dataset", str(tmp_path / "data" / "test"), "--out", str(out),
                     *flags]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    capsys.readouterr()
    assert main(["eval", "--model", str(tmp_path / "run" / "model"),
                 "--dataset", str(tmp_path / "data" / "test"), "--out", str(tmp_path / "bad.json"),
                 "--frames-t", "8"]) == 1
    err = capsys.readouterr().err
    assert "clip has 8 segments, config expects 4" in err and "Traceback" not in err
    assert not (tmp_path / "bad.json").exists()


@pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.name)
def test_shipped_config_trains(tmp_path, monkeypatch, path):
    """Every file under configs/ passes the key and type checks of ``vnact train``
    at every level, and its overrides, model section or checkpoints give a run
    (shrunk to one epoch of batch 4 through its overrides)."""
    cfg = json.loads(path.read_text())
    make_tiny_dataset(tmp_path / "data", two_stream=True)
    apply_overrides(PRESETS[cfg["preset"]], cfg["overrides"])
    cfg["overrides"].update(epochs=1, batch_size=4)
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    monkeypatch.chdir(tmp_path)
    space = SyntheticDataset.load(tmp_path / "data" / "train").space
    for key, (family, config) in {"app": ("lsta", {"input_channels": 2}),
                                  "motion": ("motion", {"flow_channels": 4})}.items():
        if key in cfg.get("init_from", {}):
            create_model(family, {**config, "stage_channels": [3, 4], "memory": 3}, space,
                         seed=0).save(cfg["init_from"][key])
    assert main(["train", "--dataset", "data", "--out-dir", "out", "--config", "config.json"]) == 0


def _train_config_keys():
    """The keys ``vnact train`` reads from its config: the top level it names
    to ``_known_keys``, the schedule overrides (compared without case, so
    ``frames_T`` meets ``--frames-t``) and ``model.family``."""
    tree = ast.parse(Path(cli.__file__).read_text())
    top = {elt.value for node in ast.walk(tree)
           if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_known_keys"
           and ast.literal_eval(node.args[2]) == "train config keys"
           for elt in node.args[1].elts}
    assert "preset" in top
    overrides = {f.name.lower() for f in dataclasses.fields(StageSchedule) if f.name != "name"}
    return top | overrides | {"family"}


def test_every_cli_setting_has_one_source():
    """No setting can be given both as a flag and as a config key: train reads
    its recipe from the config, and make-synthetic reads no config at all."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    dests = {name: {a.dest.lower() for a in p._actions} for name, p in sub.choices.items()}
    assert "config" not in dests["make-synthetic"]
    assert sorted(dests["train"] & _train_config_keys()) == []
    assert dests["train"] == {"help", "seed", "config", "dataset", "out_dir", "eval_every"}


def test_train_can_resume_from_checkpoint(workspace, tmp_path):
    cfg = {"preset": "lsta_stage2",
           "init_from": {"model": str(workspace["run"] / "model")},
           "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4,
                         "dropout_p": 0.0,
                         "trainable_groups": ["heads", "lsta", "backbone_last_stage"]}}
    cfg_path = tmp_path / "stage2.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "stage2"
    assert main(["train", "--dataset", str(workspace["data"]), "--out-dir", str(out),
                 "--config", str(cfg_path), "--seed", "6"]) == 0
    assert (out / "model").exists()


def test_eval_scores_match_metrics_flow(workspace, tmp_path, capsys):
    scores = tmp_path / "scores.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3"]) == 0
    out = capsys.readouterr().out
    assert "verb: top1" in out
    table = read_score_json(scores)
    assert len(table) == 8

    csv_out = tmp_path / "metrics.csv"
    assert main(["metrics", "--scores", str(scores),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(csv_out), "--decode", "direct"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("task,top1,top5,precision,recall")
    assert "decode[direct]" in out
    assert csv_out.read_text().startswith("task,top1,top5,precision,recall")


def test_metrics_prints_the_csv_it_writes(workspace, tmp_path, capsys):
    scores = tmp_path / "scores.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3"]) == 0
    capsys.readouterr()
    csv_out = tmp_path / "metrics.csv"
    assert main(["metrics", "--scores", str(scores), "--dataset", str(workspace["data"] / "test"),
                 "--out", str(csv_out)]) == 0
    assert capsys.readouterr().out == csv_out.read_text() + f"wrote {csv_out}\n"


@pytest.mark.parametrize("preset, model", [
    ("lsta_stage1", {"family": "lsta", "stage_channels": [3, 4], "memory": True}),
    ("lsta_stage1", {"family": "lsta", "stage_channels": [3, 3.7], "memory": 4}),
    ("hf_tsn", {"family": "hf_tsn", "stage_channels": [3, 4], "hf_positions": [0, 1.5]}),
])
def test_train_rejects_bool_and_fractional_model_config_values(workspace, tmp_path, capsys,
                                                                preset, model):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"preset": preset, "model": model,
                               "overrides": {"epochs": 1, "frames_T": 3, "batch_size": 4}}))
    assert main(["train", "--dataset", str(workspace["data"]), "--out-dir", str(tmp_path / "out"),
                 "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert "must be int" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_ragged_score_file_exits_one(tmp_path, capsys):
    ragged = tmp_path / "ragged.json"
    ragged.write_text(json.dumps({"version": "1.0", "split": "t", "label_space": "x", "results": {
        "a": {"verb": [0.0, 1.0, 2.0], "noun": [0.0], "action": [0.0]},
        "b": {"verb": [0.0, 1.0], "noun": [0.0], "action": [0.0]}}}))
    out = tmp_path / "out.json"
    assert main(["ensemble", str(ragged), str(ragged), "--out", str(out)]) == 1
    assert main(["submit", "--scores", str(ragged), "--out", str(out)]) == 1
    assert "has 2 entries" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("verb", [["1.5", 0.0, 1.0], [True, 0.0, 1.0]], ids=["string", "bool"])
def test_score_file_of_strings_or_bools_exits_one(tmp_path, capsys, verb):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"version": "1.0", "split": "t", "label_space": "x", "results": {
        "a": {"verb": verb, "noun": [0.0], "action": [0.0]}}}))
    out = tmp_path / "out.json"
    assert main(["ensemble", str(scores), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "task 'verb' is not numeric" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_metrics_on_a_score_file_with_non_finite_scores_exits_one(workspace, tmp_path, capsys,
                                                                   value):
    scores = tmp_path / "scores.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3"]) == 0
    payload = json.loads(scores.read_text())
    next(iter(payload["results"].values()))["verb"][0] = value
    scores.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["metrics", "--scores", str(scores),
                 "--dataset", str(workspace["data"] / "test")]) == 1
    captured = capsys.readouterr()
    assert "holds a non-finite value" in captured.err and "Traceback" not in captured.err
    assert captured.out == ""


def test_metrics_on_a_split_with_inconsistent_labels_exits_one(workspace, tmp_path, capsys):
    scores = tmp_path / "scores.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3"]) == 0
    data_dir = tmp_path / "test"
    shutil.copytree(workspace["data"] / "test", data_dir)
    with np.load(data_dir / "data.npz") as data:
        arrays = {k: data[k] for k in data.files}
    for verbs, message in ((arrays["verbs"] + 0.5, "must hold (8,) integers"),
                           ((arrays["verbs"] + 1) % 3, "are not action")):
        np.savez(data_dir / "data.npz", **{**arrays, "verbs": verbs})
        capsys.readouterr()
        assert main(["metrics", "--scores", str(scores), "--dataset", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err


def test_train_negative_eval_every_exits_one(workspace, tmp_path, capsys):
    assert train_tiny(workspace["data"], tmp_path / "run", ["--eval-every", "-1"]) == 1
    err = capsys.readouterr().err
    assert "eval_every must be nonnegative" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "model").exists()


def test_train_eval_every_without_a_test_split_exits_one(workspace, tmp_path, capsys):
    """With no test/ split there is nothing to evaluate, so --eval-every is an error."""
    shutil.copytree(workspace["data"] / "train", tmp_path / "data" / "train")
    assert train_tiny(tmp_path / "data", tmp_path / "run", ["--eval-every", "1"]) == 1
    err = capsys.readouterr().err
    assert "eval_every 1 needs an eval dataset" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "model").exists()


def test_eval_multiview_flag(workspace, tmp_path):
    scores = tmp_path / "crop_scores.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3",
                 "--crop", "lsta_10view", "--crop-size", "6"]) == 0
    assert len(read_score_json(scores)) == 8
    # missing crop size is a usage error
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--crop", "center"]) == 1


@pytest.mark.parametrize("flags, message", [
    (["--batch-size", "0"], "batch_size must be positive, got 0"),
    (["--crop", "center", "--crop-size", "0"], "requires a positive crop_size, got 0"),
    (["--frames-t", "0"], "frames_t must be positive, got 0"),
])
def test_eval_nonpositive_sizes_exit_one(workspace, tmp_path, capsys, flags, message):
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(tmp_path / "s.json"), *flags]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "s.json").exists()


def test_eval_score_file_does_not_depend_on_the_batch_size(workspace, tmp_path):
    """An lsta_gru model (memory 16, GRUs of 16) on the 8 test clips: a clip
    scored alone gets the bits it gets in a batch of 8, so `--batch-size 1`
    and `--batch-size 32` write the same bytes."""
    space = SyntheticDataset.load(workspace["data"] / "test").space
    model = create_model("lsta_gru", {"input_channels": 2, "stage_channels": [4, 8],
                                      "memory": 16, "gru_hidden": 16}, space, seed=1)
    model.save(tmp_path / "model")
    written = []
    for size in ("1", "32"):
        out = tmp_path / f"scores{size}.json"
        assert main(["eval", "--model", str(tmp_path / "model"),
                     "--dataset", str(workspace["data"] / "test"),
                     "--out", str(out), "--batch-size", size]) == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]


def test_ensemble_command_averages(workspace, tmp_path, capsys):
    scores = tmp_path / "s.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3"]) == 0
    out_path = tmp_path / "ens.json"
    assert main(["ensemble", str(scores), str(scores), "--out", str(out_path)]) == 0
    assert "ensembled 2 tables" in capsys.readouterr().out
    single = read_score_json(scores)
    ens = read_score_json(out_path)
    for seg in single.segments():
        for task in ("verb", "noun", "action"):
            assert np.array_equal(ens.results[seg][task], single.results[seg][task])
    assert main(["ensemble", str(tmp_path / "missing.json"), "--out", str(out_path)]) == 1
    listed = tmp_path / "listed.json"
    listed.write_text(json.dumps(
        {"version": "1.0", "split": "t", "label_space": "x", "results": []}))
    assert main(["ensemble", str(listed), "--out", str(out_path)]) == 1


def test_eval_model_config_missing_key_exits_one(workspace, tmp_path, capsys):
    model_dir = tmp_path / "model"
    shutil.copytree(workspace["run"] / "model", model_dir)
    meta = json.loads((model_dir / "model.json").read_text())
    del meta["config"]["stage_channels"]
    (model_dir / "model.json").write_text(json.dumps(meta))
    assert main(["eval", "--model", str(model_dir), "--dataset", str(workspace["data"] / "test"),
                 "--out", str(tmp_path / "scores.json")]) == 1
    assert "stage_channels" in capsys.readouterr().err


def test_eval_model_json_not_an_object_exits_one(workspace, tmp_path, capsys):
    model_dir = tmp_path / "model"
    shutil.copytree(workspace["run"] / "model", model_dir)
    (model_dir / "model.json").write_text("5")
    assert main(["eval", "--model", str(model_dir), "--dataset", str(workspace["data"] / "test"),
                 "--out", str(tmp_path / "scores.json")]) == 1
    assert "must hold an object" in capsys.readouterr().err


def test_eval_malformed_dataset_exits_one(workspace, tmp_path, capsys):
    data_dir = tmp_path / "test"
    shutil.copytree(workspace["data"] / "test", data_dir)
    (data_dir / "meta.json").write_text("[1]")
    assert main(["eval", "--model", str(workspace["run"] / "model"), "--dataset", str(data_dir),
                 "--out", str(tmp_path / "scores.json")]) == 1
    assert "malformed meta.json" in capsys.readouterr().err


@pytest.mark.parametrize("meta, message", [
    ({"segment_ids": list(range(8)), "split_tag": "test"}, "config 'segment_ids' must be str"),
    ({"segment_ids": "abcdefgh", "split_tag": "test"}, "config 'segment_ids' must be list of str"),
    ({"segment_ids": [f"s{i}" for i in range(8)], "split_tag": 5}, "config 'split_tag' must be str"),
])
def test_eval_dataset_meta_of_the_wrong_type_exits_one(workspace, tmp_path, capsys, meta, message):
    data_dir = tmp_path / "test"
    shutil.copytree(workspace["data"] / "test", data_dir)
    (data_dir / "meta.json").write_text(json.dumps(meta))
    assert main(["eval", "--model", str(workspace["run"] / "model"), "--dataset", str(data_dir),
                 "--out", str(tmp_path / "scores.json")]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "scores.json").exists()


def test_ensemble_of_a_score_file_with_a_non_string_header_exits_one(tmp_path, capsys):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"version": "1.0", "split": 5, "label_space": [1], "results": {
        "a": {"verb": [0.0], "noun": [0.0], "action": [0.0]}}}))
    assert main(["ensemble", str(scores), "--out", str(tmp_path / "out.json")]) == 1
    err = capsys.readouterr().err
    assert "'split' must be a string, got 5" in err and "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


def test_submit_command(workspace, tmp_path):
    scores = tmp_path / "s.json"
    assert main(["eval", "--model", str(workspace["run"] / "model"),
                 "--dataset", str(workspace["data"] / "test"),
                 "--out", str(scores), "--frames-t", "3"]) == 0
    sub = tmp_path / "submission.json"
    assert main(["submit", "--scores", str(scores), "--out", str(sub),
                 "--dataset", str(workspace["data"] / "test")]) == 0
    payload = json.loads(sub.read_text())
    assert payload["challenge"] == "action_recognition"
    assert all(set(row) == {"verb", "noun"} for row in payload["results"].values())


def test_gradcheck_command_smoke(capsys):
    assert main(["gradcheck", "--instances", "1", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "worst relative error" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("argv", [
    ["eval", "--bogus"],
    ["eval"],  # required flags missing
    ["gradcheck", "--instances", "x"],
    ["gradcheck", "--tol", "1"],
    ["gradcheck", "--config", "c.json"],
    ["eval", "--model", "m", "--dataset", "d", "--out", "o", "--seed", "1"],
    ["ensemble", "a.json", "--out", "o.json", "--config", "c.json"],
    ["metrics", "--scores", "s.json", "--dataset", "d", "--seed", "1"],
    ["submit", "--scores", "s.json", "--out", "o.json", "--config", "c.json"],
    ["no-such-command"],
    ["make-synthetic", "--out-dir", "d", "--config", "c.json"],
    ["make-synthetic", "--out-dir", "d", "--verbs", "6.0"],
    ["make-synthetic", "--out-dir", "d", "--noise-sigma", "x"],
    ["train", "--dataset", "d", "--out-dir", "o"],  # --config is required
    ["train", "--dataset", "d", "--out-dir", "o", "--config", "c.json", "--preset", "hf_tsn"],
    ["train", "--dataset", "d", "--out-dir", "o", "--config", "c.json", "--epochs", "1"],
])
def test_usage_errors_exit_one(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_usage_error_exits_one_without_a_traceback():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run([sys.executable, "-m", "vnact.cli", "gradcheck", "--bogus"],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "usage:" in proc.stderr and "unrecognized arguments: --bogus" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gradcheck", "--help"])
    assert exit_info.value.code == 0
    assert "--instances" in capsys.readouterr().out
