"""Per-layer metrics derived from the spans of one traced pass.

A layer is one svcascade module; `bench` is the benchmark's own code
around the calls.  Every function here reads spans only; nothing calls
the program.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

from spans import BENCH, MODULES, Span, descendants, self_times

LAYERS = MODULES + (BENCH,)


class FlopModel(NamedTuple):
    keyword_frames: int  # TD input
    ti_frames: int  # TI input, keyword + query
    td_flops: float
    ti_flops: float


def _named(spans: list[Span], region: list[int], *names: str) -> list[int]:
    return [i for i in region if spans[i].name in names]


def _total(spans: list[Span], idx: list[int]) -> float:
    return sum(spans[i].duration for i in idx)


def _attr_sum(spans: list[Span], idx: list[int], key: str) -> int:
    return sum(spans[i].attrs.get(key, 0) for i in idx)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _under(spans: list[Span], roots: list[int], name: str) -> int:
    return sum(1 for r in roots for i in descendants(spans, r) if spans[i].name == name)


def _features_ms(spans: list[Span], region: list[int], frames: int) -> list[float]:
    """extract_logmel + stack_and_normalize time for each utterance segment
    that stacks to `frames` frames."""
    out = []
    extract: dict[int, int] = {}  # parent -> its latest extract_logmel span
    for i in region:
        s = spans[i]
        if s.name == "frontend.extract_logmel":
            extract[s.parent] = i
        elif (s.name == "frontend.stack_and_normalize" and s.parent in extract
              and s.attrs.get("frames") == frames):
            out.append(1e3 * (spans[extract.pop(s.parent)].duration + s.duration))
    return out


def derive(spans: list[Span], roots: list[int], model: FlopModel | None) -> dict[str, float]:
    """Per-layer metrics over the spans below `roots` (the traced set-up and
    one pass).  `model` gives the paper's flops of a deployed cascade's TD
    and TI embeddings, which turn measured B = 1 forward times into achieved
    GFLOP/s; without one those metrics are 0."""
    model = model or FlopModel(0, 0, 0.0, 0.0)
    region = sorted({i for r in roots for i in [r] + descendants(spans, r)})
    own = self_times(spans)
    m: dict[str, float] = {}

    fwd = _named(spans, region, "dvector.forward_batch")
    fwd_all = _named(spans, region, "dvector.forward_batch", "dvector.forward_embedding")
    m["dvector.forward.calls"] = len(fwd)
    m["dvector.forward.frames"] = sum(spans[i].attrs.get("batch", 0) * spans[i].attrs.get("frames", 0)
                                      for i in fwd)
    m["dvector.forward.batch_mean"] = _attr_sum(spans, fwd, "batch") / len(fwd) if fwd else 0.0
    m["dvector.forward.self_s"] = sum(own[i] for i in fwd_all)
    bwd = _named(spans, region, "dvector.backward_batch")
    m["dvector.backward.calls"] = len(bwd)
    m["dvector.backward.self_s"] = sum(own[i] for i in bwd)
    for key, frames, flops in (("td70", model.keyword_frames, model.td_flops),
                               ("ti370", model.ti_frames, model.ti_flops)):
        times = [spans[i].duration for i in fwd
                 if spans[i].attrs.get("batch") == 1 and spans[i].attrs.get("frames") == frames]
        m[f"dvector.gflops.{key}"] = flops / _median(times) / 1e9 if times else 0.0
    save = _named(spans, region, "dvector.save_checkpoint")
    m["dvector.ckpt.save_s"] = _total(spans, save)
    m["dvector.ckpt.load_s"] = _total(spans, _named(spans, region, "dvector.load_checkpoint"))
    m["dvector.ckpt.bytes"] = _attr_sum(spans, save, "bytes")

    steps = _named(spans, region, "ge2e.backward")
    m["ge2e.steps"] = len(steps)
    # The TD and TI runs step at different speeds, so take the median step of
    # each `ge2e.train` call and average those.
    per_run = [_median([spans[i].duration for i in descendants(spans, t)
                        if spans[i].name == "ge2e.backward"])
               for t in _named(spans, region, "ge2e.train")]
    m["ge2e.step_ms.p50"] = 1e3 * statistics.fmean(per_run) if per_run else 0.0
    m["ge2e.loss.self_s"] = sum(own[i] for i in steps)

    score = _named(spans, region, "scoring.score_trials")
    m["scoring.score_trials_s"] = _total(spans, score)
    utts = _attr_sum(spans, score, "utterances")
    m["scoring.forwards_per_utt"] = (
        _under(spans, score, "dvector.forward_batch") / utts if utts else 0.0)
    m["scoring.load_scores_s"] = _total(spans, _named(spans, region, "scoring.load_scores"))

    eer = _named(spans, region, "metrics.compute_eer")
    m["metrics.eer.calls"] = len(eer)
    m["metrics.eer.self_s"] = sum(own[i] for i in eer)
    m["metrics.eer.us_per_call"] = 1e6 * m["metrics.eer.self_s"] / len(eer) if eer else 0.0
    m["metrics.eer.trials_per_call"] = _attr_sum(spans, eer, "trials") / len(eer) if eer else 0.0

    m["fusion.sweep_s"] = _total(spans, _named(spans, region, "fusion.sweep_fusion_weight"))

    bands = _named(spans, region, "triage.sweep_bands")
    prior = _named(spans, region, "triage.prior_sensitivity_curve")
    m["triage.sweep_bands_s"] = _total(spans, bands)
    m["triage.prior_curve_s"] = _total(spans, prior)
    cells = _attr_sum(spans, bands, "cells")
    m["triage.eer_calls_per_cell"] = (
        _under(spans, bands + prior, "metrics.compute_eer") / cells if cells else 0.0)
    decide = _named(spans, region, "triage.triage_decide")
    judged = _named(spans, region, "triage.triage_decide", "triage.apply_triage")
    m["triage.trigger_count"] = _attr_sum(spans, judged, "triggered")
    decisions = _attr_sum(spans, judged, "decisions")
    m["triage.trigger_rate"] = m["triage.trigger_count"] / decisions if decisions else 0.0
    # The paper's cost model (TD always, TI on trigger) at the measured rate
    # of the deployed cascade, and what the wall clock makes of it.
    flops = 0.0
    if decide:
        rate = _attr_sum(spans, decide, "triggered") / len(decide)
        flops = model.td_flops + rate * model.ti_flops
    m["triage.model_flops_per_decision"] = flops
    timed = [spans[i].duration for i in _named(spans, region, f"{BENCH}.decision")]
    m["triage.cascade.gflops"] = flops / statistics.fmean(timed) / 1e9 if timed and flops else 0.0

    m["frontend.features_ms.p50"] = _median(_features_ms(spans, region, model.keyword_frames))

    m["synthcorpus.generate_s"] = _total(spans, _named(spans, region, "synthcorpus.generate_corpus"))
    saves = _named(spans, region, "synthcorpus.save_corpus", "synthcorpus.save_trials")
    m["synthcorpus.save_s"] = _total(spans, saves)
    m["synthcorpus.load_s"] = _total(spans, _named(spans, region, "synthcorpus.load_corpus"))
    m["synthcorpus.load_trials_s"] = _total(spans, _named(spans, region, "synthcorpus.load_trials"))
    m["synthcorpus.bytes"] = _attr_sum(spans, saves, "bytes")

    m["config.parse_s"] = _total(spans, _named(spans, region, "config.parse_config"))
    runs = _named(spans, region, "cli.run")
    m["cli.stage_failures"] = sum(1 for i in runs
                                  if spans[i].failed or spans[i].attrs.get("exit_code", 0) != 0)

    busy = {layer: 0.0 for layer in LAYERS}
    for i in region:
        busy[spans[i].layer] += own[i]
    total = sum(busy.values())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = busy[layer] / total if total else 0.0
    m["trace.hook_errors"] = sum(1 for i in region if "hook_error" in spans[i].attrs)
    return m


def coverage(spans: list[Span], root: int) -> float:
    """Share of a pass's wall time that its direct child spans cover."""
    children = [i for i in descendants(spans, root) if spans[i].parent == root]
    return _total(spans, children) / spans[root].duration
