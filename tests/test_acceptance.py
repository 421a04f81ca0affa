"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line so the whole gate can be read off
a `pytest -s` run at a glance.  Tolerances are pinned in the assertions.
"""

import os
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest

from svcascade import cli, dvector, ge2e, triage
from svcascade.fusion import FusionWeight, alpha_grid, sweep_fusion_weight
from svcascade.metrics import compute_eer

from conftest import make_scores
from test_metrics import eer_bruteforce


def report(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def test_criterion_1_parameter_counts():
    td = dvector.param_count(dvector.TD_SPEC)
    ti = dvector.param_count(dvector.TI_SPEC)
    report(f"parameter counts exact (td={td}, ti={ti})",
           td == 235_072 and ti == 1_274_496)


def test_criterion_2_latency_model():
    cost = triage.CostModel(keyword_seconds=0.7, query_seconds=3.0,
                            td_flops=0, ti_flops=0)
    latency, _ = cost.expected(0.27)
    always, _ = cost.expected(1.0)
    savings = always - latency
    report(f"latency model (latency={latency:.4f}s, savings={savings:.4f}s)",
           abs(latency - 1.51) <= 0.01 and abs(savings - 2.19) <= 0.01)


def test_criterion_3_gradient_correctness(small_corpus):
    start = time.time()
    by_speaker = small_corpus.speaker_rows(range(small_corpus.spec.languages))
    rows = [list(by_speaker[s][:2]) for s in sorted(by_speaker)[:3]]
    kw = small_corpus.keyword[rows]
    both = np.concatenate([kw, small_corpus.query[rows]], axis=2)
    errors = {}
    for name, spec, batch in (("td-small", dvector.TD_SMALL, kw),
                              ("ti-small", dvector.TI_SMALL, both)):
        params = dvector.init_network(spec, seed=100)
        errors[name] = ge2e.gradient_check(
            params, batch, epsilon=1e-4, sample_count=200, seed=101)
    elapsed = time.time() - start
    report(f"gradient check (max rel err td={errors['td-small']:.2e}, "
           f"ti={errors['ti-small']:.2e}, {elapsed:.1f}s)",
           max(errors.values()) < 1e-4 and elapsed < 60.0)


def test_criterion_4_eer_oracle_equivalence():
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(100):
        n_tar = int(rng.integers(1, 500))
        n_non = int(rng.integers(1, 500))
        if trial % 4 == 0:
            # quantized scores exercise the tie conventions
            tar = rng.integers(-5, 6, n_tar) / 5.0
            non = rng.integers(-5, 6, n_non) / 5.0
        else:
            tar = rng.standard_normal(n_tar) + rng.uniform(0, 1)
            non = rng.standard_normal(n_non)
        worst = max(worst, abs(compute_eer(tar, non).eer - eer_bruteforce(tar, non)))
    elapsed = time.time() - start
    report(f"EER oracle equivalence (max diff={worst:.2e}, {elapsed:.1f}s)",
           worst <= 1e-9 and elapsed < 10.0)


def random_scored(rng, n=50):
    td_tgt, ti_tgt, td_non, ti_non = [], [], [], []
    for _ in range(n):
        td_tgt.append(float(np.tanh(rng.normal(0.5, 0.4))))
        ti_tgt.append(float(np.tanh(rng.normal(0.5, 0.4))))
        td_non.append(float(np.tanh(rng.normal(0.0, 0.4))))
        ti_non.append(float(np.tanh(rng.normal(0.0, 0.4))))
    return make_scores(td_tgt, ti_tgt, td_non, ti_non)


def test_criterion_5_triage_degeneracies():
    start = time.time()
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(50):
        scored = random_scored(rng)
        alpha = FusionWeight(float(rng.uniform(0, 1)))
        td, ti, labels = scored.td, scored.ti, scored.labels
        fused = alpha.alpha * td + (1 - alpha.alpha) * ti
        td_eer = compute_eer(td[labels], td[~labels]).eer
        fused_eer = compute_eer(fused[labels], fused[~labels]).eer

        empty_final, empty_triggered = triage.apply_triage(
            scored, triage.TriagePolicy(0.0, 0.0, alpha))
        full_final, full_triggered = triage.apply_triage(
            scored, triage.TriagePolicy(-1.0, 1.0, alpha))
        for final, expect in ((empty_final, td_eer), (full_final, fused_eer)):
            got = compute_eer(final[labels], final[~labels]).eer
            ok = ok and got == expect
        ok = ok and not empty_triggered.any()
        ok = ok and full_triggered.all()

        # nested bands: wider band => trigger rate can only grow, at any prior
        bands = sorted([tuple(sorted(rng.uniform(-1, 1, 2))) for _ in range(4)])
        nested = []
        lo, hi = bands[0]
        for b_lo, b_hi in bands:
            lo, hi = min(lo, b_lo), max(hi, b_hi)
            nested.append((lo, hi))
        cells = []
        for lo, hi in nested:
            triggered = triage.apply_triage(scored, triage.TriagePolicy(lo, hi, alpha))[1]
            cells.append(triage.BandCell(lo, hi, 0.0, triggered[labels].mean(),
                                         triggered[~labels].mean()))
        for prior in (0.0, float(rng.uniform(0, 1)), 1.0):
            rates = [cell.rate_at(prior) for cell in cells]
            ok = ok and all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))
    elapsed = time.time() - start
    report(f"triage degeneracy identities (50 sets, {elapsed:.1f}s)",
           ok and elapsed < 10.0)


def test_criterion_6_fusion_dominance():
    start = time.time()
    rng = np.random.default_rng(13)
    ok = True
    for _ in range(50):
        scored = random_scored(rng, n=int(rng.integers(5, 80)))
        result = sweep_fusion_weight(scored, alpha_grid(0.05))
        table = dict(result.table)
        ok = ok and result.eer_at_alpha_star <= min(table[0.0], table[1.0]) + 1e-12
    elapsed = time.time() - start
    report(f"fusion dominance over endpoints (50 sets, {elapsed:.1f}s)",
           ok and elapsed < 10.0)


@pytest.mark.slow
def test_criterion_7_multilingual_generalization(multilingual_runs):
    pooled_unseen = statistics.median(r["pooled_unseen"] for r in multilingual_runs)
    mono_unseen = {lang: statistics.median(r["mono_unseen"][lang]
                                           for r in multilingual_runs)
                   for lang in range(4)}
    beats_every_mismatched = all(pooled_unseen < mono_unseen[lang]
                                 for lang in range(4))
    within_factor = True
    for run in multilingual_runs:
        for lang in range(4):
            pooled, matched = run["pooled_seen"][lang], run["mono_matched"][lang]
            # a pooled model may be strictly better; only a >1.5x regression fails
            within_factor = within_factor and pooled <= 1.5 * max(matched, 1e-9) + 1e-12
    report(f"multilingual generalization (pooled unseen median={pooled_unseen:.4f}, "
           f"mono unseen medians={[round(mono_unseen[l], 4) for l in range(4)]})",
           beats_every_mismatched and within_factor)


def test_criterion_8_triage_efficiency(scored_trials):
    td, labels = scored_trials.td, scored_trials.labels
    td_eer = compute_eer(td[labels], td[~labels]).eer
    alpha = FusionWeight(sweep_fusion_weight(scored_trials, alpha_grid(0.01)).alpha_star)
    cells = triage.sweep_bands(scored_trials, triage.band_grid(-1.0, 1.0, 0.05), alpha)
    efficient = [c for c in cells if c.trigger_rate <= 0.5 and c.eer <= 0.9 * td_eer]
    best = min(cells, key=lambda c: (c.eer, c.trigger_rate))
    report(f"triage efficiency (td EER={td_eer:.4f}, best cell EER={best.eer:.4f} "
           f"at rate={best.trigger_rate:.3f}, cheap cells={len(efficient)})",
           len(efficient) > 0 and best.trigger_rate < 1.0)


def test_criterion_9_determinism(tmp_path):
    from test_config_cli import write_config

    def run_pipeline(workdir):
        os.makedirs(workdir)
        cfg_path = write_config(os.path.join(workdir, "exp.cfg"), workdir)
        for command in ("gen-data", "train", "score", "fuse-sweep",
                        "triage-sweep", "triage-apply", "eval", "report"):
            assert cli.main([command, "--config", cfg_path]) == 0
        artifacts = {}
        for sub in ("corpus", "checkpoints", "scores", "reports"):
            base = os.path.join(workdir, sub)
            for name in sorted(os.listdir(base)):
                with open(os.path.join(base, name), "rb") as f:
                    artifacts[f"{sub}/{name}"] = f.read()
        return artifacts

    a = run_pipeline(str(tmp_path / "run_a"))
    b = run_pipeline(str(tmp_path / "run_b"))
    identical = sorted(a) == sorted(b) and all(a[k] == b[k] for k in a)
    report(f"pipeline determinism ({len(a)} artifacts byte-compared)", identical)
