"""Fast self-test of the benchmark at tiny sizes (a few seconds).

    python3 perfbench/selftest.py

Checks that spans nest and every self time is >= 0, that imported bindings
and the CLI's handler table are traced and restored, that every metric
BENCHMARK.json names is reported with its unit on every workload, and that
a stage made to fail is counted in `failed` and `error_rate`.
"""

from __future__ import annotations

import json
import os
import shutil

import run

DESK_TINY = """\
corpus.languages = 2
corpus.speakers_per_language = 4
corpus.utterances_per_speaker = 4
corpus.keyword_frames = 5
corpus.query_frames = 8
trials.targets = 20
trials.nontargets = 20
trials.enroll_per_speaker = 2
train.td.steps = 3
train.ti.steps = 3
fusion.grid_step = 0.1
triage.band_step = 0.2
"""

WIDE_TINY = "fusion.grid_step = 0.1\ntriage.band_step = 0.2\n"

SMALL_NET = {"input_dim": 80, "num_layers": 1, "cells": 8, "projection_dim": 4, "output_dim": 4}


def tiny_settings(work: str) -> dict:
    for name, text in (("desk-tiny.cfg", DESK_TINY), ("wide-tiny.cfg", WIDE_TINY)):
        with open(os.path.join(work, name), "w") as f:
            f.write(text)
    return {
        "desk-pipeline": {"config": os.path.join(work, "desk-tiny.cfg"), "setup_repeats": 1},
        "cascade-decisions": {"td_network": SMALL_NET, "ti_network": SMALL_NET, "requests": 8,
                              "escalated_requests": 2, "speakers": 2, "enroll_utterances": 1,
                              "keyword_frames": 10, "query_frames": 20, "alpha": 0.5,
                              "setup_repeats": 1},
        "wide-sweep": {"config": os.path.join(work, "wide-tiny.cfg"), "target_trials": 300,
                       "nontarget_trials": 300, "td_eer": 0.15, "ti_eer": 0.1, "score_sd": 0.15,
                       "td_ti_correlation": 0.5, "setup_repeats": 1},
    }


def check_spans(settings: dict) -> None:
    import svcascade.triage
    import workloads
    from spans import Tracer, self_times

    original = svcascade.triage.compute_eer
    work = os.path.join(run.WORK, "selftest", "spans")
    os.makedirs(work)
    os.chdir(work)
    wl = workloads.DeskPipeline(0, settings)
    wl.prepare()
    wl.setup(Tracer())
    wl.inputs()
    tracer = Tracer()
    tracer.install()
    try:
        assert svcascade.triage.compute_eer is not original, "imported binding not wrapped"
        tally = workloads.Tally()
        wl.run_pass(tracer, tally)
    finally:
        tracer.uninstall()
    assert svcascade.triage.compute_eer is original, "binding not restored"
    assert tally.failed == 0, tally.problems
    spans = tracer.spans
    for s in spans:
        assert s.end >= s.start, s.name
        if s.parent >= 0:
            p = spans[s.parent]
            assert p.start <= s.start and s.end <= p.end, f"{s.name} outside {p.name}"
    assert min(self_times(spans)) >= -1e-9, "negative self time"
    names = {s.name for s in spans}
    for layer in ("cli", "config", "synthcorpus", "dvector", "ge2e", "scoring", "metrics",
                  "fusion", "triage"):
        assert any(n.startswith(layer + ".") for n in names), f"no {layer} span"
    # cli.run reaches the stages through the HANDLERS table.
    assert "cli.cmd_train" in names
    sweeps = [i for i, s in enumerate(spans) if s.name == "triage.sweep_bands"]
    assert any(spans[j].parent == i for i in sweeps for j in range(len(spans))
               if spans[j].name == "metrics.compute_eer"), "triage.compute_eer not traced"


def check_metrics(settings: dict) -> None:
    with open(run.SPEC) as f:
        spec = json.load(f)
    for name, tiny in settings.items():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            result, _, _ = run.run_benchmark(name, 0, 0, trace, settings=tiny)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
                (name, result)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == want, (name, kind, set(want) ^ set(got))
            assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            if not trace:
                assert all(v["value"] > 0 for v in result["metrics"].values()), (name, result)
            print(f"ok {name} {kind}")


def check_failure_counted(settings: dict) -> None:
    def break_scores(stage: str) -> None:
        if stage == "fuse-sweep":
            os.remove(os.path.join("scores", "scores.tsv"))

    result, samples, _ = run.run_benchmark("desk-pipeline", 0, 0, False, settings=settings,
                                           before_stage=break_scores)
    assert result["failed"] >= 1 and not result["correct"], result
    assert samples["error_rate"].value == result["failed"] / result["attempted"] > 0
    print(f"ok injected failure: {result['failed']} of {result['attempted']} stages failed")


def main() -> None:
    run._import_package()
    work = os.path.join(run.WORK, "selftest")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    settings = tiny_settings(work)
    check_spans(settings["desk-pipeline"])
    print("ok spans nest, self times >= 0, bindings traced and restored")
    check_metrics(settings)
    check_failure_counted(settings["desk-pipeline"])
    print("selftest passed")


if __name__ == "__main__":
    main()
