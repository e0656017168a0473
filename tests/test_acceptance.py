"""Acceptance battery: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``;
``pytest -v`` shows the same verdicts as test outcomes), covering:
gradient checks, attention normalization, bitwise identity reductions,
schedule values, metric oracles, ensemble determinism, desk-scale
training targets, decode feasibility, and serialization round trips.
"""

import dataclasses
import json
import math
import struct
import time

import numpy as np
import pytest

from vnact.battery import run_battery
from vnact.cells import (
    ConvLstmParams,
    LstaParams,
    LstaState,
    convlstm_step,
    lsta_step,
)
from vnact.errors import FormatError
from vnact.heads import ScoreTriple, StructuredHeadParams, structured_forward
from vnact.init import derive_seed
from vnact.models import TwoStreamModel, create_model
from vnact.ops import affine, mean_along
from vnact.scores import (
    ScoreTable,
    average_tables,
    compute_metrics,
    decode,
    read_score_json,
    topk_accuracy,
    write_score_json,
)
from vnact.synthetic import default_label_space, make_synthetic, make_two_stream_synthetic
from vnact.tensor import Tensor
from vnact.tnsf import read_tnsf, write_tnsf
from vnact.training import (
    PRESETS,
    AugmentationConfig,
    apply_overrides,
    evaluate,
    lr_at,
    run_stage,
)
from vnact.twostream import FusionParams, cross_modal_rollout


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_gradient_suite():
    started = time.time()
    reports = run_battery(seed=0, instances=3)
    elapsed = time.time() - started
    failed = [name for name, rep in reports if not rep.passed]
    worst = max(rep.max_rel_error for _, rep in reports)
    names = {name.split("[")[0] for name, _ in reports}
    required = {"lsta_step", "convlstm_step", "gru_step", "hf_block", "hf_block_single_frame",
                "bias_relu", "consensus",
                "structured_multi_task", "motion_spatial_attention", "cross_modal_rollout",
                "family_lsta", "family_lsta_gru", "family_hf_tsn", "family_motion",
                "family_two_stream"}
    ok = not failed and worst <= 1e-4 and elapsed < 120.0 and required <= names
    report("gradient suite", ok,
           f"{len(reports)} checks, worst rel err {worst:.3e}, {elapsed:.1f}s"
           + (f", failed: {failed}" if failed else ""))


# ---------------------------------------------------------------------------
# 2. attention normalization


def test_attention_normalization():
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        c, d = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        h, w = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        b = int(rng.integers(1, 4))
        params = LstaParams.create(c, d, int(rng.integers(1 << 31)), "a")
        x = Tensor(rng.normal(scale=2.0, size=(b, c, h, w)))
        state = LstaState(c=Tensor(rng.normal(size=(b, d, h, w))),
                          h=Tensor(rng.normal(size=(b, d, h, w))))
        _, alpha = lsta_step(x, state, params, bias=None)
        sums = alpha.data.sum(axis=(-2, -1))
        worst = max(worst, float(np.max(np.abs(sums - 1.0))))
    report("attention normalization", worst <= 1e-12,
           f"1000 random steps, max |sum - 1| = {worst:.3e}")


# ---------------------------------------------------------------------------
# 3. identity reductions


def test_identity_reductions():
    rng = np.random.default_rng(7)

    # (i) temporal-interaction blocks at identity init leave scoring bit-identical
    space = default_label_space(3, 4, 6, seed=0)
    config = {"input_channels": 2, "stage_channels": [3, 4], "segments": 3}
    blocks = create_model("hf_tsn", dict(config, hf_positions=[0, 1]), space, seed=1)
    plain = create_model("hf_tsn", dict(config, hf_positions=[]), space, seed=2)
    plain.set_params({n: t for n, t in blocks.params().items() if not n.startswith("hf.")})
    frames = rng.normal(size=(2, 3, 2, 8, 8))
    with_hf = blocks.forward({"frames": frames})
    without = plain.forward({"frames": frames})
    hf_ok = all(np.array_equal(getattr(with_hf, t).data, getattr(without, t).data)
                for t in ("verb", "noun", "action"))

    # (ii) zero fusion kernels reduce the joint rollout to independent streams
    t_len, ca, cm, da, dm = 3, 2, 2, 3, 2
    lsta = LstaParams.create(ca, da, seed=3, name="lsta")
    clstm = ConvLstmParams.create(cm, dm, seed=4, name="convlstm")
    fusion = FusionParams.create(ca, cm, da, dm, 3, 3)
    app = Tensor(rng.normal(size=(1, t_len, ca, 5, 5)))
    mot = Tensor(rng.normal(size=(1, t_len, cm, 5, 5)))
    app_desc, mot_desc = cross_modal_rollout(app, mot, lsta, clstm, fusion)
    sa = LstaState.zeros((1, da, 5, 5))
    sm = LstaState.zeros((1, dm, 5, 5))
    for t in range(t_len):
        sa, _ = lsta_step(Tensor(app.data[:, t]), sa, lsta, bias=None)
        sm = convlstm_step(Tensor(mot.data[:, t]), sm, clstm, bias=None)
    fusion_ok = (np.array_equal(app_desc.data, mean_along(sa.c, (-2, -1)).data)
                 and np.array_equal(mot_desc.data, mean_along(sm.c, (-2, -1)).data))

    # (iii) zero coupling maps decouple the verb/noun classifiers bit-exactly
    head_dec = StructuredHeadParams.create(feature_dim=6, space=space, seed=5, name="head")
    feats = Tensor(rng.normal(size=(4, 6)))
    triple = structured_forward(feats, head_dec, space)
    plain_verb = affine(feats, head_dec.w_verb, head_dec.b_verb)
    plain_noun = affine(feats, head_dec.w_noun, head_dec.b_noun)
    head_ok = (np.array_equal(triple.verb.data, plain_verb.data)
               and np.array_equal(triple.noun.data, plain_noun.data))

    report("identity reductions", hf_ok and fusion_ok and head_ok,
           f"interaction-block {hf_ok}, zero-fusion {fusion_ok}, zero-coupling {head_ok}")


# ---------------------------------------------------------------------------
# 4. schedule exactness


def test_schedule_values():
    checks = []

    def expect(schedule, epoch, value, decimal=None):
        got = lr_at(schedule, epoch)
        ok = got == value
        if decimal is not None:
            ok = ok and math.isclose(got, decimal, rel_tol=1e-12)
        checks.append(((schedule.name, epoch), ok, got))

    s = PRESETS["lsta_stage1"]
    expect(s, 1, 1e-3)
    expect(s, 26, 1e-3 * 0.1, 1e-4)
    expect(s, 76, 1e-3 * 0.1 ** 2, 1e-5)
    expect(s, 151, 1e-3 * 0.1 ** 3, 1e-6)
    s = PRESETS["lsta_stage2"]
    expect(s, 1, 1e-4)
    expect(s, 26, 1e-4 * 0.1, 1e-5)
    expect(s, 76, 1e-4 * 0.1 ** 2, 1e-6)
    s = PRESETS["hf_tsn"]
    expect(s, 50, 0.01)
    expect(s, 51, 0.01 * 0.1, 1e-3)
    expect(s, 101, 0.01 * 0.1 ** 2, 1e-4)
    s = PRESETS["flow_pretrain"]
    expect(s, 75, 0.01)
    expect(s, 76, 0.01 * 0.5, 5e-3)
    expect(s, 501, 0.01 * 0.5 ** 4, 6.25e-4)
    s = PRESETS["flow_stage2"]
    expect(s, 51, 0.01 * 0.5, 5e-3)
    expect(s, 101, 0.01 * 0.5 ** 2, 2.5e-3)
    s = PRESETS["two_stream"]
    expect(s, 1, 0.01)
    expect(s, 100, 0.01 * 0.99 ** 99)

    bad = [key for key, ok, _ in checks if not ok]
    report("schedule exactness", not bad,
           f"{len(checks)} anchor rates verified" + (f", wrong: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# 5. metric oracle equivalence


def _oracle_topk(table, labels, task, idx, k):
    hits = 0
    for seg in table.segments():
        logits = table.results[seg][task]
        true = labels[seg][idx]
        s = logits[true]
        rank = int(np.sum(logits > s) + np.sum((logits == s) & (np.arange(len(logits)) < true)))
        hits += rank < k
    return hits / len(table)


def _oracle_macro(table, labels, task, idx, num_classes):
    preds = {seg: int(np.argmax(table.results[seg][task])) for seg in table.segments()}
    ps, rs = [], []
    for c in range(num_classes):
        tp = sum(1 for s in preds if preds[s] == c and labels[s][idx] == c)
        fp = sum(1 for s in preds if preds[s] == c and labels[s][idx] != c)
        fn = sum(1 for s in preds if preds[s] != c and labels[s][idx] == c)
        if tp + fp + fn == 0:
            continue
        ps.append(tp / (tp + fp) if tp + fp else 0.0)
        rs.append(tp / (tp + fn) if tp + fn else 0.0)
    return float(np.mean(ps)), float(np.mean(rs))


def test_metric_oracles():
    rng = np.random.default_rng(99)
    mismatches = []
    for inst in range(20):
        v = int(rng.integers(5, 13))
        n = int(rng.integers(5, 13))
        a = int(rng.integers(max(v, n), v * n // 2 + max(v, n)))
        space = default_label_space(v, n, a, seed=inst)
        table = ScoreTable(split="t", label_space_hash=space.space_hash())
        labels = {}
        quantize = inst % 2 == 0  # half the instances carry heavy score ties
        for i in range(200):
            logits = [rng.normal(size=v), rng.normal(size=n), rng.normal(size=a)]
            if quantize:
                logits = [np.round(x) for x in logits]
            table.add(f"s{i}", ScoreTriple(*logits))
            act = int(rng.integers(a))
            pv, pn = space.actions[act]
            labels[f"s{i}"] = (pv, pn, act)
        metrics = compute_metrics(table, labels).values
        for task, idx, classes in (("verb", 0, v), ("noun", 1, n), ("action", 2, a)):
            for k in (1, 5):
                if topk_accuracy(table, labels, task, k) != _oracle_topk(table, labels, task, idx, k):
                    mismatches.append((inst, task, f"top{k}"))
            if topk_accuracy(table, labels, task, 1) > topk_accuracy(table, labels, task, 5):
                mismatches.append((inst, task, "top1>top5"))
            p, r = _oracle_macro(table, labels, task, idx, classes)
            if (metrics[task]["precision"], metrics[task]["recall"]) != (100.0 * p, 100.0 * r):
                mismatches.append((inst, task, "macro"))
    report("metric oracle equivalence", not mismatches,
           "20 instances x 200 segments, exact top-k and macro P/R"
           + (f", mismatches: {mismatches[:5]}" if mismatches else ""))


# ---------------------------------------------------------------------------
# 6. ensemble correctness


def _ensemble_pipeline(tmpdir, tag):
    space = default_label_space(3, 4, 6, seed=11)
    data = make_synthetic(space, 12, 3, 2, 8, 8, 0.4, seed=derive_seed(11, "data"),
                          split_tag="test")
    tables = []
    for member_seed in (21, 22):
        model = create_model("lsta", {"input_channels": 2, "stage_channels": [3, 4],
                                      "memory": 3}, space, member_seed)
        tables.append(evaluate(model, data, frames_t=3))
    out = average_tables(tables)
    path = tmpdir / f"ensemble_{tag}.json"
    write_score_json(path, out)
    return tables, out, path.read_bytes()


def test_ensemble_correctness(tmp_path):
    tables, out, raw1 = _ensemble_pipeline(tmp_path, "run1")
    mean_ok = True
    for seg in out.segments():
        for task in ("verb", "noun", "action"):
            stack = np.stack([t.results[seg][task] for t in tables])
            if not np.array_equal(out.results[seg][task], np.mean(stack, axis=0)):
                mean_ok = False
    _, _, raw2 = _ensemble_pipeline(tmp_path, "run2")
    det_ok = raw1 == raw2
    report("ensemble correctness", mean_ok and det_ok,
           f"elementwise-mean oracle {mean_ok}, repeated-run files bit-identical {det_ok}")


# ---------------------------------------------------------------------------
# 7. desk-scale surrogate training


DESK_SEED = 42
AUG = AugmentationConfig(scale_jitter=None, horizontal_flip=0.0, temporal_jitter=True)


def _action_top1(table, dataset):
    return compute_metrics(table, dataset.labels_by_segment()).values["action"]["top1"]


@pytest.fixture(scope="module")
def desk():
    space = default_label_space(6, 8, 12, seed=DESK_SEED)
    train = make_synthetic(space, 500, 8, 3, 16, 16, 0.5,
                           derive_seed(DESK_SEED, "data:train"), split_tag="train")
    test = make_synthetic(space, 200, 8, 3, 16, 16, 0.5,
                          derive_seed(DESK_SEED, "data:test"), split_tag="test")
    return space, train, test


@pytest.fixture(scope="module")
def trained_recurrent(desk):
    space, train, test = desk
    model = create_model("lsta_gru",
                         {"input_channels": 3, "stage_channels": [8, 12, 16],
                          "memory": 16, "gru_hidden": 16},
                         space, derive_seed(DESK_SEED, "init"))
    schedule = apply_overrides(PRESETS["lsta_stage1"], {
        "epochs": 30, "frames_T": 8, "batch_size": 8,
        "trainable_groups": ("heads", "lsta", "grus", "backbone", "backbone_last_stage"),
    })
    started = time.time()
    run_stage(model, train, schedule, seed=DESK_SEED, aug=AUG)
    elapsed = time.time() - started
    table = evaluate(model, test, frames_t=8)
    return table, _action_top1(table, test), elapsed


@pytest.fixture(scope="module")
def trained_consensus(desk):
    space, train, test = desk
    model = create_model("hf_tsn",
                         {"input_channels": 3, "stage_channels": [8, 12, 16],
                          "segments": 8, "hf_positions": [0, 1, 2]},
                         space, derive_seed(DESK_SEED, "init"))
    schedule = apply_overrides(PRESETS["hf_tsn"], {"epochs": 40, "frames_T": 8})
    started = time.time()
    run_stage(model, train, schedule, seed=DESK_SEED, aug=AUG)
    elapsed = time.time() - started
    table = evaluate(model, test, frames_t=8)
    return table, _action_top1(table, test), elapsed


def test_desk_training_recurrent(trained_recurrent):
    _, acc, elapsed = trained_recurrent
    report("desk training, attentive-recurrent model",
           acc >= 80.0 and elapsed < 900.0,
           f"action top-1 {acc:.2f}% (target 80%), {elapsed:.0f}s")


def test_desk_training_consensus(trained_consensus):
    _, acc, elapsed = trained_consensus
    report("desk training, segment-consensus model",
           acc >= 80.0 and elapsed < 900.0,
           f"action top-1 {acc:.2f}% (target 80%), {elapsed:.0f}s")


def test_desk_training_two_stream(desk):
    space, _, _ = desk
    train = make_two_stream_synthetic(space, 500, 8, 3, 4, 16, 16, 0.5,
                                      derive_seed(DESK_SEED, "data:train"), split_tag="train")
    test = make_two_stream_synthetic(space, 200, 8, 3, 4, 16, 16, 0.5,
                                     derive_seed(DESK_SEED, "data:test"), split_tag="test")
    started = time.time()

    app = create_model("lsta", {"input_channels": 3, "stage_channels": [8, 12, 16],
                                "memory": 16}, space, derive_seed(DESK_SEED, "init:app"))
    app_schedule = apply_overrides(PRESETS["lsta_stage1"], {
        "epochs": 30, "frames_T": 8, "batch_size": 8,
        "trainable_groups": ("heads", "lsta", "backbone", "backbone_last_stage"),
    })
    run_stage(app, train, app_schedule, seed=DESK_SEED, aug=AUG)
    app_acc = _action_top1(evaluate(app, test, frames_t=8), test)

    motion = create_model("motion", {"flow_channels": 4, "stage_channels": [8, 12, 16],
                                     "memory": 16}, space, derive_seed(DESK_SEED, "init:motion"))
    motion_schedule = apply_overrides(PRESETS["flow_stage2"], {"epochs": 30, "frames_T": 8})
    run_stage(motion, train, motion_schedule, seed=DESK_SEED, aug=AUG)
    motion_acc = _action_top1(evaluate(motion, test, frames_t=8), test)

    fused = TwoStreamModel.from_streams(app, motion)
    fuse_schedule = apply_overrides(PRESETS["two_stream"], {"epochs": 15, "frames_T": 8})
    run_stage(fused, train, fuse_schedule, seed=DESK_SEED, aug=AUG)
    fused_acc = _action_top1(evaluate(fused, test, frames_t=8), test)
    elapsed = time.time() - started

    floor = max(app_acc, motion_acc) - 2.0
    report("desk training, two-stream fusion",
           fused_acc >= floor and elapsed < 900.0,
           f"fused {fused_acc:.2f}% vs streams {app_acc:.2f}%/{motion_acc:.2f}% "
           f"(floor {floor:.2f}%), {elapsed:.0f}s")


def test_desk_training_ensemble(desk, trained_recurrent, trained_consensus):
    _, _, test = desk
    table_a, acc_a, _ = trained_recurrent
    table_b, acc_b, _ = trained_consensus
    ens_acc = _action_top1(average_tables([table_a, table_b]), test)
    floor = max(acc_a, acc_b) - 1.0
    report("desk training, two-model ensemble", ens_acc >= floor,
           f"ensemble {ens_acc:.2f}% vs members {acc_a:.2f}%/{acc_b:.2f}% (floor {floor:.2f}%)")


# ---------------------------------------------------------------------------
# 8. structured feasibility


def test_decode_feasibility():
    rng = np.random.default_rng(55)
    space = default_label_space(5, 7, 15, seed=3)
    head = StructuredHeadParams.create(16, space, seed=4, name="head")
    head = dataclasses.replace(
        head,
        bias_verb=Tensor(rng.normal(size=(space.num_actions, space.num_verbs))),
        bias_noun=Tensor(rng.normal(size=(space.num_actions, space.num_nouns))))
    feats = Tensor(rng.normal(size=(1000, 16)))
    triple = structured_forward(feats, head, space)
    table = ScoreTable(split="t", label_space_hash=space.space_hash())
    for i in range(1000):
        table.add(f"f{i}", ScoreTriple(triple.verb.data[i], triple.noun.data[i],
                                       triple.action.data[i]))
    preds, _ = decode(table, space, mode="direct")
    observed = set(space.actions)
    bad = [seg for seg, (v, n, a) in preds.items()
           if (v, n) not in observed or space.actions[a] != (v, n)]
    report("structured decode feasibility", not bad,
           f"1000 random features, all predicted pairs observed"
           + (f"; violations {bad[:3]}" if bad else ""))


# ---------------------------------------------------------------------------
# 9. serialization


def test_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(77)
    problems = []

    arr64 = rng.normal(size=(3, 4, 2))
    write_tnsf(tmp_path / "a.tnsf", arr64)
    if not np.array_equal(read_tnsf(tmp_path / "a.tnsf"), arr64):
        problems.append("f64 round trip")
    arr32 = rng.normal(size=(5,)).astype(np.float32)
    write_tnsf(tmp_path / "b.tnsf", arr32)
    back32 = read_tnsf(tmp_path / "b.tnsf")
    if back32.dtype != np.float32 or not np.array_equal(back32, arr32):
        problems.append("f32 round trip")

    for tag, raw in (
        ("bad magic", b"XNSF" + b"\x00" * 12),
        ("bad version", b"TNSF" + bytes([9, 1]) + struct.pack("<H", 0)),
        ("truncated payload", b"TNSF" + bytes([1, 1]) + struct.pack("<H", 1)
         + struct.pack("<Q", 4) + b"\x00" * 7),
    ):
        path = tmp_path / "bad.tnsf"
        path.write_bytes(raw)
        try:
            read_tnsf(path)
            problems.append(f"tnsf {tag} accepted")
        except FormatError:
            pass

    space = default_label_space(3, 4, 6, seed=2)
    table = ScoreTable(split="val", label_space_hash=space.space_hash())
    for i in range(5):
        table.add(f"s{i}", ScoreTriple(rng.normal(size=3), rng.normal(size=4),
                                       rng.normal(size=6)))
    write_score_json(tmp_path / "scores.json", table)
    back = read_score_json(tmp_path / "scores.json", space)
    for seg in table.segments():
        for task in ("verb", "noun", "action"):
            if not np.array_equal(back.results[seg][task], table.results[seg][task]):
                problems.append(f"score json {seg}/{task}")

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{broken")
    try:
        read_score_json(bad_json)
        problems.append("malformed score json accepted")
    except FormatError:
        pass
    bad_json.write_text(json.dumps({"version": "1.0", "split": "t"}))
    try:
        read_score_json(bad_json)
        problems.append("incomplete score json accepted")
    except FormatError:
        pass

    report("serialization round trips", not problems,
           "binary and score-JSON round trips value-exact, malformed inputs rejected"
           + (f"; problems {problems}" if problems else ""))
