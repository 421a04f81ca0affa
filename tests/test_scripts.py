"""Smoke tests: each experiment script runs to completion at tiny sizes."""

import csv
import os
import subprocess
import sys

import svcascade
from test_config_cli import write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(svcascade.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_pipeline_with_xeval(tmp_path):
    """Every stage, then the cross-language matrix from `train`'s pooled
    checkpoints and per-language models."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path),
                            **{"train.td.steps": "10", "train.ti.steps": "10"})
    result = run_script("run_pipeline.py", "--config", str(cfg_path), "--with-xeval")
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "reports" / "xeval_matrix.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["train_lang"] for r in rows if r["model"] == "pooled"] == ["0+1"] * 4


def test_benchmark_selftest_runs():
    """The benchmark's tracing hooks still fit the package's names and
    signatures, such as the `compute_eer` binding that triage imports."""
    result = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
