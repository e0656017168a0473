"""One benchmark run: set up a workload, time training and the eval path,
then check the outputs. See README.md for what is measured and why."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import vnact
from vnact import models, scores, training
from vnact.init import derive_seed

import checks
from tracer import GROUPS, Tracer
from workloads import AUG, WORKLOADS

SETUP_REPEATS = 9
MIN_EVAL_PASSES = 3
# The eval path is short, so it gets a third of the run length on top of
# training, repeated at least MIN_EVAL_PASSES times.
EVAL_SHARE = 1 / 3
CHECK_CLIPS = 4

# Top-level parts of a training step; their sum against the traced step
# time is reported as trace.coverage_pct.
STEP_PARTS = ("training.batch_prep", "models.forward", "heads.loss", "tensor.backward",
              "training.optimizer")
TRAIN_LAYERS = STEP_PARTS + ("heads.fwd", "cells.rollout_fwd", "hftsn.backbone_fwd",
                             "hftsn.hf_block_fwd", "twostream.attention_fwd",
                             "twostream.fusion_fwd")


def environment(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"blas_threads": blas_threads, "nproc": os.cpu_count(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "python": platform.python_version()}


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
        self.w = WORKLOADS[workload]
        self.seed, self.seconds, self.trace = seed, seconds, trace
        self.workdir = workdir
        self.attempted = self.failed = 0
        self.metrics = {}

    def _attempt(self, clips: int, operation):
        """Run one whole operation, counting its clips; None if it failed."""
        self.attempted += clips
        try:
            return operation()
        except vnact.VnactError as exc:
            self.failed += clips
            print(f"perfbench: operation failed: {exc}", file=sys.stderr)
            return None

    # -- set-up --------------------------------------------------------------

    def _build(self):
        start = perf_counter()
        space, train, test = self.w.make_data(self.seed)
        mid = perf_counter()
        built = self.w.create(space, self.seed)
        return (train, test), built, mid - start, perf_counter() - mid

    def setup(self):
        """Median of SETUP_REPEATS builds of data and model; keeps the last."""
        gen, create = [], []
        for _ in range(SETUP_REPEATS):
            self.data = self.built = None  # free the previous build first
            self.data, self.built, g, c = self._build()
            gen.append(g)
            create.append(c)
        self.train, self.test = self.data
        self.model, self.streams = self.built[0], self.built[1:]
        if self.trace:
            self.metrics["synthetic.generate_s"] = median(gen)
            self.metrics["models.create_s"] = median(create)
        else:
            self.metrics["setup_s"] = median(g + c for g, c in zip(gen, create))

    # -- training ------------------------------------------------------------

    def _round(self, p0, tracer=None):
        self.model.set_params(p0)
        excluded = tracer.excluded if tracer else 0.0
        start = perf_counter()
        with tracer.installed(self.model) if tracer else nullcontext():
            log = training.run_stage(self.model, self.train, self.w.schedule,
                                     seed=self.seed, aug=AUG)
        elapsed = perf_counter() - start
        if tracer:
            elapsed -= tracer.excluded - excluded
        return elapsed, log

    def train_rounds(self):
        """Whole rounds (fresh model, fixed epochs) until the run length is
        used; with tracing, plain and traced rounds alternate."""
        p0 = self.model.params()
        clips = self.w.schedule.epochs * len(self.train)
        self.plain, self.traced, self.logs = [], [], []
        self.train_tracer = Tracer() if self.trace else None
        start = perf_counter()
        while (perf_counter() - start < self.seconds or not self.plain
               or (self.trace and not self.traced)):
            traced = self.trace and len(self.traced) < len(self.plain)
            done = self._attempt(clips, lambda: self._round(
                p0, self.train_tracer if traced else None))
            if done is not None:
                (self.traced if traced else self.plain).append(done[0])
                self.logs.append(done[1])
        if not self.logs:
            raise SystemExit("perfbench: every training round failed")
        if not self.trace:
            self.metrics["train_clips_per_s"] = median(clips / t for t in self.plain)
            self.metrics["train_loss"] = self.logs[-1].rows[-1]["train_loss"]

    # -- eval path -----------------------------------------------------------

    def _eval_pass(self, ckpt, path):
        """(pass s, write s, metrics s, table, report) of one `vnact eval`."""
        start = perf_counter()
        loaded = models.load_model(ckpt)
        table = self.w.evaluate(loaded, self.test)
        scored = perf_counter()
        scores.write_score_json(path, table)
        written = perf_counter()
        report = scores.compute_metrics(table, self.test.labels_by_segment())
        end = perf_counter()
        return end - start, written - scored, end - written, table, report

    def eval_passes(self):
        """`vnact eval` end to end from a saved checkpoint, repeated."""
        ckpt = self.workdir / "model"
        self.model.save(ckpt)
        self.score_path = self.workdir / "scores.json"
        self.eval_tracer = Tracer() if self.trace else None
        passes = []
        start = perf_counter()
        while (perf_counter() - start < self.seconds * EVAL_SHARE
               or len(passes) < MIN_EVAL_PASSES):
            with self.eval_tracer.installed(self.model) if self.trace else nullcontext():
                done = self._attempt(len(self.test), lambda: self._eval_pass(
                    ckpt, self.score_path))
            if done is not None:
                passes.append(done)
        if not passes:
            raise SystemExit("perfbench: every eval pass failed")
        self.table, self.report = passes[-1][3:]
        if self.trace:
            self.metrics["scores.write_ms"] = 1e3 * median(p[1] for p in passes)
            self.metrics["scores.metrics_ms"] = 1e3 * median(p[2] for p in passes)
        else:
            self.metrics["eval_clips_per_s"] = len(self.test) / median(p[0] for p in passes)
            self.metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # -- per-layer figures ---------------------------------------------------

    def layer_metrics(self):
        tr, ev = self.train_tracer, self.eval_tracer
        steps = tr.calls["tensor.backward"]
        step_s = sum(self.traced) / steps
        m = self.metrics
        m["training.step_ms"] = 1e3 * step_s
        for name in TRAIN_LAYERS:
            m[f"{name}_ms"] = 1e3 * tr.seconds[name] / steps
        for group in GROUPS:
            m[f"ops.{group}.calls"] = tr.op_calls[group] / steps
            m[f"ops.{group}.fwd_ms"] = 1e3 * tr.op_fwd[group] / steps
            m[f"ops.{group}.bwd_ms"] = 1e3 * tr.op_bwd[group] / steps
        m["tensor.nodes_per_step"] = tr.tape_nodes / steps
        m["tensor.saved_mb_per_step"] = tr.saved_bytes / steps / 2 ** 20
        m["trace.coverage_pct"] = 100.0 * sum(tr.seconds[p] for p in STEP_PARTS) / steps / step_s
        m["trace.overhead_pct"] = 100.0 * (median(self.traced) / median(self.plain) - 1.0)
        batches = ev.calls["training.batch_prep"]  # evaluate fetches each batch once
        m["eval.forward_ms"] = 1e3 * ev.seconds["models.forward"] / batches
        m["tnsf.load_ms"] = 1e3 * ev.seconds["tnsf.load"] / ev.calls["tnsf.load"]

    # -- correctness ---------------------------------------------------------

    def fresh_checks(self):
        """Identity starts, checked on the model as created."""
        inputs, _ = self.test.batch(range(CHECK_CLIPS))
        if isinstance(self.model, models.TwoStreamModel):
            return [lambda: checks.fusion_starts_as_mean(self.model, *self.streams, inputs)]
        if self.model.family == "hf_tsn":
            return [lambda: checks.blocks_start_as_identity(self.model, inputs)]
        return []

    def output_checks(self):
        train_inputs, train_labels = self.train.batch(range(CHECK_CLIPS))
        test_inputs, _ = self.test.batch(range(2))
        labels = self.test.labels_by_segment()
        fd_rng = np.random.default_rng(derive_seed(self.seed, "perfbench:fd"))
        return [
            lambda: [checks.loss_falls(log.rows) for log in self.logs],
            lambda: checks.rounds_repeat([log.rows[-1]["train_loss"] for log in self.logs]),
            lambda: checks.gradients_match(self.model, self.w.schedule.trainable_groups,
                                           train_inputs, train_labels,
                                           self.w.schedule.loss_tasks, fd_rng),
            lambda: checks.forward_properties(self.model, test_inputs),
            lambda: checks.topk_matches(self.table, labels, self.report),
            lambda: checks.score_file_round_trips(self.score_path, self.table, self.test.space),
            lambda: checks.checkpoint_scores_match(
                lambda ds: self.w.evaluate(self.model, ds), self.test, self.table),
        ]


def _run_checks(check_list) -> bool:
    ok = True
    for check in check_list:
        try:
            check()
        except checks.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            ok = False
    return ok


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        r = Run(workload, seed, seconds, trace, workdir)
        r.setup()
        correct = _run_checks(r.fresh_checks())
        r.train_rounds()
        r.eval_passes()
        if trace:
            r.layer_metrics()
        correct = _run_checks(r.output_checks()) and correct
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run still uses it
            pass
    return {"correct": correct, "attempted": r.attempted, "failed": r.failed,
            "metrics": r.metrics}


def report(result: dict, spec: dict, trace: bool) -> str:
    """The result line: every metric of BENCHMARK.json's list, with its unit."""
    listed = spec["per_layer" if trace else "end_to_end"]
    measured = result["metrics"]
    names = {m["name"] for m in listed}
    if names != set(measured):
        raise RuntimeError(f"metrics measured {sorted(measured)} != listed {sorted(names)}")
    out = dict(result, metrics={m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
                                for m in listed})
    return json.dumps(out)
