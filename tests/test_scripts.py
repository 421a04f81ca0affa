"""Smoke tests: each experiment script runs to completion at tiny sizes."""

import csv
import os
import subprocess
import sys

import pytest

import svcascade
from test_config_cli import write_config

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(path, *args):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(svcascade.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, path, *args],
                          env=env, capture_output=True, text=True, timeout=300)


def test_run_pipeline_with_xeval(tmp_path):
    """Every stage, then the cross-language matrix from `train`'s pooled
    checkpoints and per-language models."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path),
                            **{"train.td.steps": "10", "train.ti.steps": "10"})
    result = run_script(os.path.join(ROOT, "scripts", "run_pipeline.py"),
                        "--config", str(cfg_path), "--with-xeval")
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "reports" / "xeval_matrix.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [r["train_lang"] for r in rows if r["model"] == "pooled"] == ["0+1"] * 4


def test_train_twice_then_exit_leaves_no_worker(tmp_path):
    """A script that trains twice exits cleanly: it joins its training
    workers, so none outlives it, and it writes nothing to stderr."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path))
    script = tmp_path / "train_twice.py"
    script.write_text(
        "import multiprocessing, sys\n"
        "from svcascade import cli\n"
        "if __name__ == '__main__':\n"
        "    print(*(cli.run(command, sys.argv[1]) for command in ('gen-data', 'train', 'train')))\n"
        "    print(*(p.pid for p in multiprocessing.active_children()))\n")
    result = run_script(str(script), str(cfg_path))
    assert result.returncode == 0 and result.stderr == ""
    codes, pids = result.stdout.splitlines()
    assert codes == "0 0 0" and pids
    for pid in map(int, pids.split()):
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_benchmark_selftest_runs():
    """The benchmark's tracing hooks still fit the package's names and
    signatures, such as the `compute_eer` binding that triage imports."""
    result = subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "selftest.py")],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stdout + result.stderr


def test_benchmark_hooks_fit_the_package(tmp_path, monkeypatch):
    """One traced desk pass at tiny sizes: every span attribute hook of the
    benchmark reads the names and signatures it expects, such as `Trial` and
    `score_trials(td, ti, corpus, trials)`.  `triage.apply_triage` is the
    one known misfit (it returns arrays where its hook reads rows)."""
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    monkeypatch.chdir(tmp_path)
    import selftest
    import workloads
    from spans import Tracer

    pipeline = workloads.DeskPipeline(0, selftest.tiny_settings(str(tmp_path))["desk-pipeline"])
    pipeline.prepare()
    pipeline.setup(Tracer())
    pipeline.inputs()
    tracer, tally = Tracer(), workloads.Tally()
    tracer.install()
    try:
        pipeline.run_pass(tracer, tally)
    finally:
        tracer.uninstall()
    assert tally.failed == 0, tally.problems
    assert {s.name for s in tracer.spans if s.attrs.get("hook_error")} <= {"triage.apply_triage"}
