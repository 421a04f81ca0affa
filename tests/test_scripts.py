"""Smoke tests: each experiment script runs to completion at tiny sizes."""

import os
import subprocess
import sys

import numpy as np

import svcascade
from svcascade.scoring import save_scores

from conftest import make_scores

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(svcascade.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_triage_tradeoff_runs(tmp_path):
    rng = np.random.default_rng(0)
    scores = make_scores(np.tanh(rng.normal(0.5, 0.3, 40)), np.tanh(rng.normal(0.5, 0.3, 40)),
                         np.tanh(rng.normal(0.0, 0.3, 40)), np.tanh(rng.normal(0.0, 0.3, 40)))
    path = tmp_path / "scores.tsv"
    save_scores(str(path), scores)
    result = run_script("triage_tradeoff.py", "--scores", str(path), "--band-step", "0.1")
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("trigger_rate\teer")


def test_multilingual_table_runs():
    result = run_script("multilingual_table.py", "--languages", "3", "--seeds", "1",
                        "--steps", "5", "--trials", "10")
    assert result.returncode == 0, result.stderr
    assert "lang2 (unseen)" in result.stdout


def test_benchmark_selftest_runs():
    """The benchmark's tracing hooks still fit the package's names and
    signatures, such as the `compute_eer` binding that triage imports."""
    result = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr
