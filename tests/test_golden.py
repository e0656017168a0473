"""The golden tool in tools/ compares two source trees' numerics.

A tree compared with itself must be equal in every record, each
family's group map and checkpoint files among them, and a copy whose
gate_output memory adjoint is perturbed in the ninth digit must be
reported as different in its gradients while its forward scores stay
equal.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "golden.py"


def run_golden(tree_a, tree_b):
    proc = subprocess.run([sys.executable, str(TOOL), str(tree_a), str(tree_b)],
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout


def test_golden_tree_against_itself_is_all_equal():
    code, out = run_golden(ROOT, ROOT)
    assert code == 0, out
    assert out.rstrip().endswith("all equal")
    assert "DIFFERENT" not in out
    for family in ("lsta", "lsta_gru", "hf_tsn", "motion", "two_stream"):
        for record in ("default/loss", "moved/loss", "hf_tsn/log", "lsta_stage1/log",
                       "hf_tsn/metrics", "hf_tsn/score_json", "hf_tsn/decode/pair",
                       "lsta_stage1/average/action", "hf_tsn/tenview_score_json"):
            assert f" {family}/{record}\n" in out
        for record in ("groups", "checkpoint/model.json", "checkpoint/params/manifest.json"):
            assert f" {family}/{record}\n" in out
        assert any(f" {family}/checkpoint/params/" in ln and ln.endswith(".tnsf")
                   for ln in out.splitlines())
    for batch in (2, 3):
        for record in ("loss", "scores/verb", "grad/head_gru.w_verb"):
            assert f" lsta_gru/desk/batch{batch}/{record}" in out
    for record in ("loss", "scores/action", "grad/backbone.stage0.kernel"):
        assert f" hf_tsn/tiled/batch32/{record}" in out


def test_golden_reports_a_perturbed_backward(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    ops_py = tmp_path / "src" / "vnact" / "ops.py"
    exact = "dm = gh * o * (1.0 - tm * tm)"
    text = ops_py.read_text()
    assert text.count(exact) == 1
    ops_py.write_text(text.replace(exact, "dm = gh * o * (1.0 - tm * tm) * (1.0 + 1e-9)"))
    code, out = run_golden(ROOT, tmp_path)
    assert code == 1, out
    lines = out.splitlines()
    assert any(ln.startswith("DIFFERENT") and "/default/grad/" in ln and " rel " in ln
               for ln in lines)
    assert all(ln.startswith("equal") for ln in lines if "/scores/" in ln)
    assert "DIFFERENT" in lines[-1]
