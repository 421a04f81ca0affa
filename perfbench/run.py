"""svcascade benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload desk-pipeline --seed 0 --seconds 35 --trace 0

`--workload all` runs the three workloads one after another, each in its own
process, and each prints its own block and result line.

Run from the root of a source checkout; the package is imported from
./src.  With --trace 0 the last line of standard output holds the
end-to-end metrics named in BENCHMARK.json, with --trace 1 the per-layer
metrics, which come from spans recorded around every call into the
package's public functions (see spans.py and layers.py).  The lines before
it print every metric by name, unit and sample count, and the machine.
Exits 1 without a result when the package source is not there.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # a set-up probe times its imports from here

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")


def _import_package() -> None:
    """Puts ./src first on the path and checks that svcascade comes from it."""
    if not os.path.isfile(os.path.join(SRC, "svcascade", "__init__.py")):
        raise SystemExit(f"run.py: no svcascade package under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, SRC)
    import svcascade
    if not os.path.abspath(svcascade.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run.py: svcascade imported from {svcascade.__file__}, not {SRC}")


def _git_commit() -> str:
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its own API."""
    import ctypes
    import glob

    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def machine() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


def probe_setup(name: str, seed: int, settings: dict) -> float:
    """Set-up time in this fresh interpreter: imports, then the workload's
    set-up (config parse; for cascade-decisions checkpoint write and reload
    and enrollment).  Input generation in between is not counted."""
    import workloads
    from spans import Tracer
    imported = time.perf_counter() - _T0
    work = os.path.join(WORK, name, "probe")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.chdir(work)
    wl = workloads.WORKLOADS[name](seed, settings)
    wl.prepare()
    start = time.perf_counter()
    wl.setup(Tracer())
    return imported + time.perf_counter() - start


def _probe_in_child(name: str, seed: int, settings: dict) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--seconds", "0",
         "--probe-setup", json.dumps(settings)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


class Sample:
    """A metric value with its unit and the number of samples behind it."""

    def __init__(self, value: float, unit: str, n: int, values: list[float] | None = None):
        self.value, self.unit, self.n, self.values = value, unit, n, values


def _durations(tracer, name: str) -> list[float]:
    return [s.duration for s in tracer.spans if s.name == f"bench.{name}"]


def workload_metrics(tracer, tally) -> dict[str, Sample]:
    """The workload-level metrics of untraced passes: stage times (pipelines),
    decision latency and rate (cascade), and the error rate."""
    m = {"error_rate": Sample(tally.failed / max(tally.attempted, 1), "fraction", tally.attempted)}
    for stage in ("train", "score", "fuse-sweep", "triage-sweep"):
        times = _durations(tracer, f"stage.{stage}")
        m[stage.replace("-", "_") + "_s"] = Sample(
            statistics.median(times) if times else 0.0, "s", len(times))
    decisions = [1e3 * d for d in _durations(tracer, "decision")]
    busy = sum(_durations(tracer, "pass"))
    m["decision_ms.p50"] = Sample(statistics.median(decisions) if decisions else 0.0,
                                  "ms", len(decisions))
    m["decision_ms.p90"] = Sample(_p90(decisions) if decisions else 0.0,
                                  "ms", len(decisions))
    m["decisions_per_s"] = Sample(len(decisions) / busy if decisions else 0.0,
                                  "1/s", len(decisions))
    return m


def _run_passes(wl, tracer, tally, deadline: float) -> None:
    """Whole passes, one at least, while the next one is expected to end
    by the deadline (a pass takes the median time of those so far)."""
    took = []
    while True:
        begin = time.perf_counter()
        wl.run_pass(tracer, tally)
        took.append(time.perf_counter() - begin)
        if time.perf_counter() + statistics.median(took) > deadline:
            return


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  settings: dict | None = None, before_stage=None) -> tuple[dict, dict, object]:
    """Runs one workload; returns (result line, every metric as a Sample, Tally)."""
    import layers
    import workloads
    from spans import Tracer

    settings = settings or workloads.load_settings(name)
    wl = workloads.WORKLOADS[name](seed, settings, before_stage)
    samples: dict[str, Sample] = {}
    if not trace:
        setups = [_probe_in_child(name, seed, settings) for _ in range(settings["setup_repeats"])]
        samples["setup_s"] = Sample(statistics.median(setups), "s", len(setups))

    work = os.path.join(WORK, name, "main")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        wl.prepare()
        wl.setup(Tracer())
        wl.inputs()
        tally = workloads.Tally()
        plain = Tracer()
        start = time.perf_counter()
        # With tracing, half the time goes to untraced passes, for the
        # overhead; at least one pass runs either way.
        _run_passes(wl, plain, tally, start + (seconds / 2 if trace else seconds))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        untraced = _durations(plain, "pass")
        samples.update(workload_metrics(plain, tally))
        if trace:
            traced = Tracer()
            traced.install()
            try:
                setup_root = len(traced.spans)  # setup() opens bench.setup first
                wl.setup(traced)
                _run_passes(wl, traced, tally, start + seconds)
            finally:
                traced.uninstall()
    finally:
        os.chdir(cwd)

    if trace:
        passes = [i for i, s in enumerate(traced.spans) if s.name == "bench.pass"]
        per_pass = [layers.derive(traced.spans, [setup_root, p], wl.flop_model())
                    for p in passes]
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        for key in per_pass[0]:
            samples[key] = Sample(statistics.median(p[key] for p in per_pass),
                                  units.get(key, "?"), len(per_pass))
        samples["trace.coverage"] = Sample(
            statistics.median(layers.coverage(traced.spans, p) for p in passes),
            "fraction", len(passes))
        traced_pass = statistics.median(traced.spans[p].duration for p in passes)
        samples["trace.overhead_s"] = Sample(traced_pass - statistics.median(untraced),
                                             "s", len(passes) + len(untraced))
    else:
        samples["wall_s"] = Sample(statistics.median(untraced), "s", len(untraced), untraced)
        samples["peak_rss_mb"] = Sample(rss_mb, "MB", 1)

    wanted = _spec()["per_layer" if trace else "end_to_end"]
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": samples[m["name"]].value, "unit": m["unit"]}
                    for m in wanted},
    }
    return result, samples, tally


def _spec() -> dict:
    with open(SPEC) as f:
        return json.load(f)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="SETTINGS_JSON",
                        help="internal: time one set-up in this process and print it")
    args = parser.parse_args(argv)
    _import_package()
    if args.probe_setup is not None:
        print(probe_setup(args.workload, args.seed, json.loads(args.probe_setup)))
        return 0
    import workloads
    if args.workload == "all":  # each in a fresh process, so peak RSS is its own
        for name in workloads.WORKLOADS:
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{sorted(workloads.WORKLOADS)} or 'all'")
    result, samples, tally = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    print("machine " + json.dumps(machine(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    if "wall_s" in samples:
        print("pass_s " + " ".join(f"{d:.4f}" for d in samples["wall_s"].values))
    for problem in tally.problems[:20]:
        print(f"failure {problem}")
    for key in sorted(samples):
        s = samples[key]
        if s.n:  # a stage or decision this workload does not run has no samples
            print(f"metric {key} {s.value:.6g} {s.unit} n={s.n}")
    print(json.dumps(result))
    return 0

if __name__ == "__main__":
    sys.exit(main())
