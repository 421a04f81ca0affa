"""Smoke tests: each experiment script runs to completion at tiny sizes."""

import os
import subprocess
import sys

import svcascade

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(name, *args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(svcascade.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


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
