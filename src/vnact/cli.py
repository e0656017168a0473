"""Command-line surface.

Subcommands: make-synthetic, train, eval, gradcheck, ensemble, metrics,
submit; each declares only the flags it reads. Exit codes: 0 success,
1 usage, validation or format error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, Optional

from .errors import NumericalError, ValidationError, _known_keys, _typed
from .init import derive_seed
from .models import FAMILIES, TwoStreamModel, create_model, load_model
from .scores import (
    TASKS,
    average_tables,
    compute_metrics,
    decode,
    read_score_json,
    write_score_json,
    write_submission_json,
)
from .synthetic import SyntheticDataset, default_label_space, make_synthetic, make_two_stream_synthetic
from .training import (
    PRESETS,
    AugmentationConfig,
    CropSpec,
    apply_overrides,
    evaluate,
    run_stage,
)


def _load_config(path: Optional[str]) -> Dict:
    if not path:
        return {}
    if not os.path.exists(path):
        raise ValidationError(f"config file {path} does not exist")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"config file {path}: invalid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config file {path}: top level must be an object")
    return cfg


def _section(cfg: Dict, key: str) -> Optional[Dict]:
    """The value of a config entry that must be an object, or None if absent."""
    value = cfg.get(key)
    if value is not None and not isinstance(value, dict):
        raise ValidationError(f"config '{key}' must be an object, got {type(value).__name__}")
    return value


def _pick(flag, config_value, default):
    if flag is not None:
        return flag
    if config_value is not None:
        return config_value
    return default


# ---------------------------------------------------------------------------
# make-synthetic


# make-synthetic settings: each comes from the flag of the same name, else the
# config key of the same name, else this default, converted to its type.
_SYNTHETIC_DEFAULTS = {"verbs": 6, "nouns": 8, "actions": 12, "train_samples": 500,
                       "test_samples": 200, "t_len": 8, "channels": 3, "height": 16,
                       "width": 16, "noise_sigma": 0.5, "flow_channels": 4}


def cmd_make_synthetic(args) -> int:
    cfg = _load_config(args.config)
    _known_keys(cfg, ("seed", "two_stream", *_SYNTHETIC_DEFAULTS), "make-synthetic config keys")
    seed = _typed(_pick(args.seed, cfg.get("seed"), 0), int, "seed")
    dims = {key: _typed(_pick(getattr(args, key), cfg.get(key), default), type(default), key)
            for key, default in _SYNTHETIC_DEFAULTS.items()}
    dims["two_stream"] = _typed(_pick(args.two_stream or None, cfg.get("two_stream"), False),
                                bool, "two_stream")
    space = default_label_space(dims["verbs"], dims["nouns"], dims["actions"], seed=seed)
    os.makedirs(args.out_dir, exist_ok=True)
    for split, count in (("train", dims["train_samples"]), ("test", dims["test_samples"])):
        split_seed = derive_seed(seed, f"data:{split}")
        common = (space, count, dims["t_len"], dims["channels"])
        if dims["two_stream"]:
            ds = make_two_stream_synthetic(*common[:4], dims["flow_channels"], dims["height"],
                                           dims["width"], dims["noise_sigma"], split_seed,
                                           split_tag=split)
        else:
            ds = make_synthetic(*common, dims["height"], dims["width"], dims["noise_sigma"],
                                split_seed, split_tag=split)
        ds.save(os.path.join(args.out_dir, split))
        print(f"wrote {split}: {count} samples, modalities {sorted(ds.inputs)}")
    print(f"label space: {space.num_verbs} verbs, {space.num_nouns} nouns, "
          f"{space.num_actions} actions ({space.space_hash()[:12]}...)")
    return 0


# ---------------------------------------------------------------------------
# train


_DEFAULT_STAGES = [8, 12, 16]


def _stream_defaults(cfg: Dict, key_channels: str, dataset: SyntheticDataset,
                     modality: str) -> Dict:
    out = dict(cfg)
    if modality not in dataset.inputs:
        raise ValidationError(f"dataset has no '{modality}' modality for this model family")
    out.setdefault(key_channels, int(dataset.inputs[modality].shape[2]))
    out.setdefault("stage_channels", list(_DEFAULT_STAGES))
    out.setdefault("memory", 16)
    return out


def _build_model_config(family: str, model_cfg: Dict, dataset: SyntheticDataset,
                        frames_t: int) -> Dict:
    cfg = {k: v for k, v in model_cfg.items() if k != "family"}
    if family in ("lsta", "lsta_gru"):
        cfg = _stream_defaults(cfg, "input_channels", dataset, "frames")
        if family == "lsta_gru":
            cfg.setdefault("gru_hidden", cfg["memory"])
    elif family == "hf_tsn":
        cfg.setdefault("input_channels", int(dataset.inputs["frames"].shape[2])
                       if "frames" in dataset.inputs else 3)
        cfg.setdefault("stage_channels", list(_DEFAULT_STAGES))
        cfg.setdefault("segments", frames_t)
        cfg.setdefault("hf_positions", list(range(len(cfg["stage_channels"]))))
    elif family == "motion":
        cfg = _stream_defaults(cfg, "flow_channels", dataset, "flow")
    elif family == "two_stream":
        cfg["app"] = _stream_defaults(_section(cfg, "app") or {}, "input_channels", dataset, "frames")
        cfg["motion"] = _stream_defaults(_section(cfg, "motion") or {}, "flow_channels", dataset, "flow")
    else:
        raise ValidationError(f"unknown model family '{family}' (have {sorted(FAMILIES)})")
    return cfg


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    _known_keys(cfg, ("preset", "seed", "model", "overrides", "init_from", "augmentation"),
                "train config keys")
    seed = _typed(_pick(args.seed, cfg.get("seed"), 0), int, "seed")
    preset_name = _pick(args.preset, cfg.get("preset"), None)
    if preset_name is None:
        raise ValidationError("train needs a preset (--preset or config 'preset')")
    if not isinstance(preset_name, str) or preset_name not in PRESETS:
        raise ValidationError(f"unknown preset '{preset_name}' (have {sorted(PRESETS)})")
    overrides = dict(_section(cfg, "overrides") or {})
    for flag, key in ((args.epochs, "epochs"), (args.frames_t, "frames_T"),
                      (args.batch_size, "batch_size")):
        if flag is not None:
            overrides[key] = flag
    memory_d = overrides.pop("memory_D", None)
    schedule = apply_overrides(PRESETS[preset_name], overrides)
    aug_cfg = _section(cfg, "augmentation") or {}
    _known_keys(aug_cfg, [f.name for f in dataclasses.fields(AugmentationConfig)], "augmentation keys")
    aug = AugmentationConfig(**aug_cfg)

    train_dir = os.path.join(args.dataset, "train")
    test_dir = os.path.join(args.dataset, "test")
    train_ds = SyntheticDataset.load(train_dir)
    test_ds = SyntheticDataset.load(test_dir) if os.path.isdir(test_dir) else None

    model_cfg = dict(_section(cfg, "model") or {})
    family = _pick(args.family, model_cfg.get("family"), None)
    init_from = _section(cfg, "init_from") or {}
    _known_keys(init_from, ("model", "app", "motion"), "init_from keys")
    for key, path in init_from.items():
        if path is not None and not isinstance(path, str):
            raise ValidationError(f"config 'init_from.{key}' must be a path, got {path!r}")
    if init_from.get("model"):
        model = load_model(init_from["model"])
        if family is not None and family != model.family:
            raise ValidationError(
                f"config family '{family}' conflicts with checkpoint family '{model.family}'")
    elif init_from.get("app") or init_from.get("motion"):
        if not (init_from.get("app") and init_from.get("motion")):
            raise ValidationError("two-stream init needs both 'app' and 'motion' checkpoints")
        model = TwoStreamModel.from_streams(load_model(init_from["app"]),
                                            load_model(init_from["motion"]))
    else:
        if family is None:
            raise ValidationError("train needs a model family (--family or config model.family)")
        if memory_d is not None:
            model_cfg["memory"] = _typed(memory_d, int, "memory_D")
        built_cfg = _build_model_config(family, model_cfg, train_ds, schedule.frames_T)
        model = create_model(family, built_cfg, train_ds.space, derive_seed(seed, "init"))
    if train_ds.space.space_hash() != model.space.space_hash():
        raise ValidationError("dataset and model label spaces differ")

    started = time.time()
    log = run_stage(model, train_ds, schedule, seed=seed, aug=aug,
                    eval_dataset=test_ds, eval_every=int(args.eval_every))
    elapsed = time.time() - started

    os.makedirs(args.out_dir, exist_ok=True)
    model.save(os.path.join(args.out_dir, "model"))
    log.to_csv(os.path.join(args.out_dir, "log.csv"))
    summary = {"preset": preset_name, "seed": seed, "epochs": schedule.epochs,
               "seconds": round(elapsed, 3)}
    if log.rows:
        last = log.rows[-1]
        summary["final"] = {k: last[k] for k in last}
        print(f"epoch {last['epoch']}: loss {last['train_loss']:.4f} "
              f"train acc v/n/a {last['train_acc_verb']:.3f}/{last['train_acc_noun']:.3f}/"
              f"{last['train_acc_action']:.3f}")
    if test_ds is not None:
        table = evaluate(model, test_ds, frames_t=schedule.frames_T,
                         batch_size=schedule.batch_size)
        write_score_json(os.path.join(args.out_dir, "test_scores.json"), table)
        report = compute_metrics(table, test_ds.labels_by_segment())
        summary["test"] = report.values
        _print_top_k(report, "test ")
    with open(os.path.join(args.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    print(f"trained {schedule.epochs} epochs in {elapsed:.1f}s; artifacts in {args.out_dir}")
    return 0


# ---------------------------------------------------------------------------
# eval / ensemble / metrics / submit / gradcheck


def _print_top_k(report, prefix: str) -> None:
    for task in TASKS:
        print(f"{prefix}{task}: top1 {report.values[task]['top1']:.2f}% "
              f"top5 {report.values[task]['top5']:.2f}%")


def cmd_eval(args) -> int:
    model = load_model(args.model)
    dataset = SyntheticDataset.load(args.dataset)
    crop = CropSpec(args.crop) if args.crop else None
    table = evaluate(model, dataset, frames_t=args.frames_t, batch_size=args.batch_size,
                     crop=crop, crop_size=args.crop_size)
    write_score_json(args.out, table)
    _print_top_k(compute_metrics(table, dataset.labels_by_segment()), "")
    print(f"wrote {args.out} ({len(table)} segments)")
    return 0


def cmd_ensemble(args) -> int:
    tables = [read_score_json(path) for path in args.scores]
    out = average_tables(tables)
    write_score_json(args.out, out)
    print(f"ensembled {len(tables)} tables over {len(out)} segments -> {args.out}")
    return 0


def cmd_metrics(args) -> int:
    dataset = SyntheticDataset.load(args.dataset)
    table = read_score_json(args.scores, space=dataset.space)
    labels = dataset.labels_by_segment()
    report = compute_metrics(table, labels)
    print(report.csv_text(), end="")
    if args.out:
        report.to_csv(args.out)
        print(f"wrote {args.out}")
    if args.decode:
        preds, stats = decode(table, dataset.space, mode=args.decode)
        correct = sum(1 for seg, (v, n, a) in preds.items() if a == labels[seg][2])
        print(f"decode[{args.decode}]: action acc {100.0 * correct / len(preds):.2f}% "
              f"fallbacks verb={stats['fallback_verb']} global={stats['fallback_global']}")
    return 0


def cmd_submit(args) -> int:
    space = None
    if args.dataset:
        space = SyntheticDataset.load(args.dataset).space
    table = read_score_json(args.scores, space=space)
    write_submission_json(args.out, table)
    print(f"wrote submission {args.out} ({len(table)} segments)")
    return 0


def cmd_gradcheck(args) -> int:
    from .battery import run_battery

    reports = run_battery(seed=args.seed, instances=args.instances)
    worst = 0.0
    failed = []
    for name, report in reports:
        status = "ok" if report.passed else "FAIL"
        print(f"{status:4s} {name:32s} max_rel {report.max_rel_error:.3e}")
        worst = max(worst, report.max_rel_error)
        if not report.passed:
            failed.append(name)
    print(f"{len(reports)} checks, worst relative error {worst:.3e}")
    if failed:
        print(f"failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit 1: 2 means numerical failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="vnact", description="Verb/noun/action video recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_and_config(p):
        p.add_argument("--seed", type=int, default=None, help="seed (overrides config)")
        p.add_argument("--config", default=None, help="JSON config file")

    p = sub.add_parser("make-synthetic", help="generate a labeled synthetic dataset")
    seed_and_config(p)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--verbs", type=int, default=None)
    p.add_argument("--nouns", type=int, default=None)
    p.add_argument("--actions", type=int, default=None)
    p.add_argument("--train-samples", type=int, default=None)
    p.add_argument("--test-samples", type=int, default=None)
    p.add_argument("--t-len", type=int, default=None)
    p.add_argument("--channels", type=int, default=None)
    p.add_argument("--height", type=int, default=None)
    p.add_argument("--width", type=int, default=None)
    p.add_argument("--noise-sigma", type=float, default=None)
    p.add_argument("--two-stream", action="store_true")
    p.add_argument("--flow-channels", type=int, default=None)
    p.set_defaults(func=cmd_make_synthetic)

    p = sub.add_parser("train", help="train one stage")
    seed_and_config(p)
    p.add_argument("--dataset", required=True, help="directory with train/ and test/ splits")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--preset", default=None, choices=sorted(PRESETS))
    p.add_argument("--family", default=None, choices=sorted(FAMILIES))
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--frames-t", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--eval-every", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a dataset split with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True, help="one split directory")
    p.add_argument("--out", required=True, help="score JSON path")
    p.add_argument("--frames-t", type=int, default=None)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--crop", default=None, choices=["center", "lsta_10view"])
    p.add_argument("--crop-size", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("gradcheck", help="run the finite-difference battery")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--instances", type=int, default=3)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("ensemble", help="average score tables in argument order")
    p.add_argument("scores", nargs="+", help="input score JSON files")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_ensemble)

    p = sub.add_parser("metrics", help="challenge metrics for a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--dataset", required=True, help="split directory holding the labels")
    p.add_argument("--out", default=None, help="metrics CSV path")
    p.add_argument("--decode", default=None, choices=["direct", "pair"])
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("submit", help="write a submission file from a score file")
    p.add_argument("--scores", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--dataset", default=None, help="optional split directory for validation")
    p.set_defaults(func=cmd_submit)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
