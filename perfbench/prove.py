"""Steadiness proof: runs the benchmark as its caller does and reports each
end-to-end metric's spread, and whether the named counts repeat exactly.

    python3 perfbench/prove.py --seeds 10 --out perfbench/results/steadiness.json

For every workload: one untraced run per seed, each in a fresh process;
the spread of a metric is (Q3 - Q1) / median of its values, with the
quartiles of `statistics.quantiles(values, n=4)`, and must stay below a
third of the metric's bound (set-up time is exempt).  With --compare, each
median must also be no worse than an earlier set's by more than the bound.
Then two traced runs with the same seed, whose named counts must be equal,
give the per-layer metrics and each layer's share of self time.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Counts a later change may cite: they must repeat exactly between runs of
# the same inputs.
NAMED_COUNTS = ("dvector.forward.calls", "dvector.forward.frames", "ge2e.steps",
                "scoring.forwards_per_utt", "metrics.eer.calls",
                "triage.eer_calls_per_cell", "triage.trigger_count")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    machine = next(json.loads(l[len("machine "):]) for l in lines if l.startswith("machine "))
    passes = next((l.split()[1:] for l in lines if l.startswith("pass_s ")), None)
    return {"result": result, "machine": machine, "pass_s": passes}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--out", required=True)
    parser.add_argument("--compare", metavar="EARLIER_JSON",
                        help="an earlier output; each median must not be worse by more than the bound")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    report = {"run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in names:
        runs = [run_once(workload, seed, seconds, 0)
                for seed in range(args.first_seed, args.first_seed + args.seeds)]
        entry = {"machine": runs[0]["machine"],
                 "failed": sum(r["result"]["failed"] for r in runs),
                 "attempted": sum(r["result"]["attempted"] for r in runs),
                 "pass_s": [r["pass_s"] for r in runs],
                 "end_to_end": {}}
        for name, bound in bounds.items():
            stats = spread([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bound
            stats["within_third_of_bound"] = name == "setup_s" or stats["spread"] < bound / 3
            steady &= stats["within_third_of_bound"]
            entry["end_to_end"][name] = stats
            print(f"{workload:18s} {name:12s} median {stats['median']:.4g} "
                  f"spread {stats['spread']:.4f} bound {bound}", flush=True)
        if not args.no_trace:
            traced = [run_once(workload, 0, seconds, 1)["result"] for _ in range(2)]
            layer = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            repeat = {k: [t["metrics"][k]["value"] for t in traced] for k in NAMED_COUNTS}
            entry["named_counts"] = {k: v[0] for k, v in repeat.items()}
            entry["named_counts_repeat"] = all(v[0] == v[1] for v in repeat.values())
            steady &= entry["named_counts_repeat"]
            entry["per_layer_seed0"] = layer
            entry["self_share"] = {k.rsplit(".", 1)[0]: v for k, v in layer.items()
                                   if k.endswith(".self_share")}
            print(f"{workload:18s} named counts repeat: {entry['named_counts_repeat']} "
                  f"{entry['named_counts']}", flush=True)
        steady &= entry["failed"] == 0
        if args.compare:
            with open(args.compare) as f:
                earlier = json.load(f)["workloads"][workload]["end_to_end"]
            for name, stats in entry["end_to_end"].items():
                stats["worse_than_earlier"] = stats["median"] / earlier[name]["median"] - 1.0
                steady &= stats["worse_than_earlier"] <= stats["bound"]
                print(f"{workload:18s} {name:12s} median {stats['worse_than_earlier']:+.4f} "
                      f"against the earlier set", flush=True)
        report["workloads"][workload] = entry
    report["steady"] = steady
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)
        f.write("\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
