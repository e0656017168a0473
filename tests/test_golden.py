"""The golden tool in tools/ compares two source trees' numerics.

A tree compared with itself must be equal in every record, and a copy
whose sigmoid backward is perturbed in the ninth digit must be reported
as different in its gradients while its forward scores stay equal.
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
        for record in ("default/loss", "moved/loss", "hf_tsn/log", "lsta_stage1/log"):
            assert f" {family}/{record}\n" in out


def test_golden_reports_a_perturbed_backward(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    tensor_py = tmp_path / "src" / "vnact" / "tensor.py"
    exact = "return (g * out * (1.0 - out),)"
    text = tensor_py.read_text()
    assert text.count(exact) == 1
    tensor_py.write_text(text.replace(exact, "return (g * out * (1.0 - out) * (1.0 + 1e-9),)"))
    code, out = run_golden(ROOT, tmp_path)
    assert code == 1, out
    lines = out.splitlines()
    assert any(ln.startswith("DIFFERENT") and "/default/grad/" in ln and " rel " in ln
               for ln in lines)
    assert all(ln.startswith("equal") for ln in lines if "/scores/" in ln)
    assert "DIFFERENT" in lines[-1]
