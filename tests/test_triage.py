import errno
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade import errors, triage
from svcascade.errors import ValidationError
from svcascade.fusion import FusionWeight, alpha_grid, sweep_fusion_weight
from svcascade.metrics import compute_eer
from svcascade.triage import (
    BandCell, CostModel, Decision, TriagePolicy, apply_triage, band_grid, in_band, sweep_bands,
    triage_decide)

from conftest import interleaved_scores, make_scores

POLICY = TriagePolicy(lower=0.23, upper=0.65, alpha=FusionWeight(0.5))


def test_decide_regions():
    assert triage_decide(0.9, POLICY) is Decision.CONFIDENT_ACCEPT
    assert triage_decide(0.1, POLICY) is Decision.CONFIDENT_REJECT
    assert triage_decide(0.3, POLICY) is Decision.TRIGGER


def test_decide_boundaries_are_confident():
    assert triage_decide(0.65, POLICY) is Decision.CONFIDENT_ACCEPT
    assert triage_decide(0.23, POLICY) is Decision.CONFIDENT_REJECT
    assert triage_decide(0.4, TriagePolicy(0.4, 0.4, FusionWeight(0.5))) \
        is Decision.CONFIDENT_ACCEPT
    assert in_band(np.array([0.23, 0.24, 0.65]), 0.23, 0.65).tolist() == [False, True, False]


def test_decide_validates():
    with pytest.raises(ValidationError):
        triage_decide(float("inf"), POLICY)
    with pytest.raises(ValidationError):
        TriagePolicy(0.7, 0.3, FusionWeight(0.5))
    with pytest.raises(ValidationError):
        TriagePolicy(-2.0, 0.3, FusionWeight(0.5))
    with pytest.raises(ValidationError, match="fusion weight"):
        TriagePolicy(0.2, 0.3, FusionWeight(1.5))


def test_apply_mixed_hand_case():
    scores = make_scores([0.9, 0.3], [0.5, 0.7], [0.1], [0.8])
    final, triggered = apply_triage(scores, POLICY)
    assert triggered.tolist() == [False, True, False]
    assert final[0] == 0.9
    assert final[1] == pytest.approx(0.5 * 0.3 + 0.5 * 0.7)
    assert final[2] == 0.1


def test_apply_empty_band_never_triggers():
    scores = make_scores([0.9, 0.3], [0.5, 0.7], [0.1], [0.8])
    policy = TriagePolicy(0.0, 0.0, FusionWeight(0.5))
    final, triggered = apply_triage(scores, policy)
    assert not triggered.any()
    assert final.tolist() == scores.td.tolist()


def test_apply_full_band_always_triggers():
    scores = make_scores([0.9, 0.3], [0.5, 0.7], [0.1], [0.8])
    policy = TriagePolicy(-1.0, 1.0, FusionWeight(0.3))
    final, triggered = apply_triage(scores, policy)
    assert triggered.all()
    assert final == pytest.approx(0.3 * scores.td + 0.7 * scores.ti)


def test_trigger_rate_prior_arithmetic():
    scores = make_scores([0.4, 0.9], [0.5, 0.5], [0.3, 0.5, 0.1, 0.05, 0.7],
                         [0.5] * 5)
    _, triggered = apply_triage(scores, POLICY)
    labels = scores.labels
    cell = BandCell(POLICY.lower, POLICY.upper, 0.0, triggered[labels].mean(),
                    triggered[~labels].mean())
    # target fraction 1/2, nontarget fraction 2/5
    assert cell.rate_at(1.0) == pytest.approx(0.5)
    assert cell.rate_at(0.0) == pytest.approx(0.4)
    assert cell.rate_at(0.5) == pytest.approx(0.45)
    # the quoted hand case: fractions (0.5, 0.2) at prior 0.4 -> 0.32
    assert 0.4 * 0.5 + (1 - 0.4) * 0.2 == pytest.approx(0.32)


def test_expected_latency_hand_cases():
    cost = CostModel(keyword_seconds=0.7, query_seconds=3.0,
                     td_flops=10, ti_flops=100)
    assert cost.expected(0.27) == pytest.approx((1.51, 37.0))
    assert cost.expected(0.0) == (pytest.approx(0.7), 10.0)
    assert cost.expected(1.0) == pytest.approx((3.7, 110.0))
    with pytest.raises(ValidationError):
        cost.expected(1.2)
    with pytest.raises(ValidationError):
        CostModel(0.0, 3.0, 1, 1).expected(0.5)


def random_scores(seed, n=60):
    rng = np.random.default_rng(seed)
    return make_scores(
        np.tanh(rng.standard_normal(n) * 0.3 + 0.5),
        np.tanh(rng.standard_normal(n) * 0.3 + 0.5),
        np.tanh(rng.standard_normal(n) * 0.3),
        np.tanh(rng.standard_normal(n) * 0.3))


def test_sweep_degenerate_cells_match_pure_systems():
    scores = random_scores(0)
    alpha = FusionWeight(0.5)
    cells = {(c.lower, c.upper): c for c in sweep_bands(scores, band_grid(-1.0, 1.0, 0.5), alpha)}
    td, ti, labels = scores.td, scores.ti, scores.labels
    td_eer = compute_eer(td[labels], td[~labels]).eer
    fused = 0.5 * td + 0.5 * ti
    fused_eer = compute_eer(fused[labels], fused[~labels]).eer
    empty = cells[(0.0, 0.0)]
    assert empty.eer == pytest.approx(td_eer, abs=1e-12)
    assert empty.trigger_rate == 0.0
    full = cells[(-1.0, 1.0)]
    assert full.eer == pytest.approx(fused_eer, abs=1e-12)
    assert full.trigger_rate == 1.0


def assert_cells_equal_per_cell_eer(scores, cells, alpha):
    """Every cell equals the masked computation on its own final scores."""
    td, labels = scores.td, scores.labels
    fused = alpha * td + (1.0 - alpha) * scores.ti
    for c in cells:
        triggered = in_band(td, c.lower, c.upper)
        final = np.where(triggered, fused, td)
        assert c.eer == compute_eer(final[labels], final[~labels]).eer, (c.lower, c.upper)
        assert c.target_rate == triggered[labels].mean()
        assert c.nontarget_rate == triggered[~labels].mean()


def test_sweep_cells_equal_per_cell_eer():
    scores = interleaved_scores(0)
    cells = sweep_bands(scores, band_grid(-1.0, 1.0, 0.25), FusionWeight(0.3))
    assert_cells_equal_per_cell_eer(scores, cells, 0.3)
    rates = {(c.lower, c.upper): (c.target_rate, c.nontarget_rate) for c in cells}
    assert rates[(0.0, 0.0)] == (0.0, 0.0)  # triggers no trial
    assert rates[(-1.0, 1.0)] == (1.0, 1.0)  # triggers every trial


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.0, 1.0, 0.3, 0.5]), st.sampled_from([0.25, 0.3, 0.5, 0.7]),
       st.booleans())
def test_sweep_equals_per_cell_eer_on_tied_scores(seed, n_tar, n_non, alpha, step, ti_is_td):
    # scores drawn from the band values themselves (including -1.0 and 1.0)
    # and a few others, so ties within and across classes and on band edges
    # are common; steps 0.3 and 0.7 do not divide [-1, 1], so the grid ends
    # on an appended 1.0
    rng = np.random.default_rng(seed)
    pool = np.concatenate([band_grid(-1.0, 1.0, step), [0.0], rng.uniform(-1.0, 1.0, 3)])
    td = rng.choice(pool, n_tar + n_non)
    ti = td.copy() if ti_is_td else rng.choice(pool, n_tar + n_non)
    scores = make_scores(td[:n_tar], ti[:n_tar], td[n_tar:], ti[n_tar:])
    cells = sweep_bands(scores, band_grid(-1.0, 1.0, step), FusionWeight(alpha))
    assert_cells_equal_per_cell_eer(scores, cells, alpha)


def test_sweep_cells_do_not_depend_on_block_size(monkeypatch):
    scores = interleaved_scores(1)
    cells = sweep_bands(scores, band_grid(-1.0, 1.0, 0.25), FusionWeight(0.4))
    # 45 cells in blocks of 4: the last block holds only the empty band (1, 1)
    monkeypatch.setattr(triage, "_CELL_BLOCK", 4)
    assert sweep_bands(scores, band_grid(-1.0, 1.0, 0.25), FusionWeight(0.4)) == cells


@pytest.mark.parametrize("td, ti", [(np.nan, 0.5), (np.inf, 0.5), (0.5, np.nan),
                                    (0.5, -np.inf)])
def test_sweep_rejects_non_finite_scores(td, ti):
    scores = make_scores([0.9, td], [0.8, ti], [0.1, -0.3], [0.2, -0.1])
    with pytest.raises(ValidationError, match="scores must be finite"):
        sweep_bands(scores, band_grid(-1.0, 1.0, 0.5), FusionWeight(0.5))


def test_sweep_nested_bands_have_monotone_rates():
    for seed in range(10):
        cells = sweep_bands(random_scores(seed), band_grid(-1.0, 1.0, 0.25), FusionWeight(0.4))
        by_band = {(round(c.lower, 6), round(c.upper, 6)): c.trigger_rate
                   for c in cells}
        for (lo1, up1), r1 in by_band.items():
            for (lo2, up2), r2 in by_band.items():
                if lo2 <= lo1 and up1 <= up2:
                    assert r1 <= r2 + 1e-12


def test_sweep_cell_count():
    cells = sweep_bands(random_scores(1), band_grid(-1.0, 1.0, 0.5), FusionWeight(0.5))
    assert len(cells) == 5 * 6 // 2  # pairs with lower <= upper on a 5-point grid


def test_band_grid_includes_endpoints():
    # 100 steps of 0.019999998 end at 0.9999998000000001, which heatmap.csv
    # would write as 1.000000 beside the appended 1.0
    for step in (0.5, 0.3, 0.7, 0.02, 0.04, 0.019999998, 0.002):
        grid = band_grid(-1.0, 1.0, step)
        assert grid[0] == -1.0 and grid[-1] == 1.0
        written = [float("%.6f" % v) for v in grid]  # as save_heatmap_csv writes them
        assert all(b > a for a, b in zip(written, written[1:]))
    assert band_grid(-1.0, 1.0, 0.019999998)[-2] == pytest.approx(0.98, abs=1e-6)


def test_band_grid_value_bound():
    """At most 1,001 values, counted before anything is allocated."""
    assert band_grid(-1.0, 1.0, 0.002).size == 1001
    for step in (0.0019, 1e-5, 1e-300, 5e-324):
        with pytest.raises(ValidationError, match="more than 1001 values; use a step of at least 0.002"):
            band_grid(-1.0, 1.0, step)
    # no wider than the grid end gap: sweep_grid would drop 0.5, and the parent
    # asked np.arange for ~1e293 values here
    with pytest.raises(ValidationError, match="min < max - 5e-07"):
        band_grid(0.5, 0.5000001, 1e-300)
    # a narrow range passes the cap, but a step this fine would write hundreds
    # of 0.500000 rows: the floor the alpha grid has too refuses it
    with pytest.raises(ValidationError, match="band grid step must be at least 1e-05"):
        band_grid(0.5, 0.5000005000001, 1e-16)
    assert band_grid(0.5, 0.5000005000001, 1e-5).tolist() == [0.5, 0.5000005000001]


def test_final_scores_match_manual_mixing(scored_trials):
    final, _ = apply_triage(scored_trials, POLICY)
    for got, td, ti in zip(final, scored_trials.td, scored_trials.ti):
        if POLICY.lower < td < POLICY.upper:
            assert got == pytest.approx(0.5 * (td + ti))
        else:
            assert got == td


def test_prior_curve_rates_interpolate(tmp_path):
    cells = sweep_bands(random_scores(2), band_grid(-1.0, 1.0, 0.5), FusionWeight(0.5))
    path = tmp_path / "prior_curve.csv"
    triage.save_prior_curve_csv(str(path), cells, [0.0, 0.5, 1.0])
    rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 3 * len(cells)
    for cell, (lo, mid, hi) in zip(cells, zip(*[iter(rows)] * 3)):
        assert [lo[0], mid[0], hi[0]] == [0.0, 0.5, 1.0]
        for row in (lo, mid, hi):
            assert row[1:3] == [float("%.6f" % cell.lower), float("%.6f" % cell.upper)]
            assert row[4] == float("%.9f" % cell.eer)  # EER does not depend on the prior
        assert (lo[3], hi[3]) == (float("%.9f" % cell.nontarget_rate),
                                  float("%.9f" % cell.target_rate))
        assert mid[3] == float("%.9f" % cell.trigger_rate)
        assert mid[3] == pytest.approx(0.5 * (lo[3] + hi[3]), abs=1e-9)


def test_triage_beats_td_alone_on_trained_scores(scored_trials):
    sweep = sweep_fusion_weight(scored_trials, alpha_grid(0.01))
    alpha = FusionWeight(sweep.alpha_star)
    cells = sweep_bands(scored_trials, band_grid(-1.0, 1.0, 0.1), alpha)
    td, labels = scored_trials.td, scored_trials.labels
    base = compute_eer(td[labels], td[~labels]).eer
    best = min(cells, key=lambda c: (c.eer, c.trigger_rate))
    assert best.eer <= base + 1e-12
    assert best.trigger_rate < 1.0


def test_pareto_frontier_hand_case():
    def cell(rate, eer):
        return triage.BandCell(0.0, 0.0, eer, rate, rate)  # trigger rate `rate` at any prior
    cells = [cell(0.5, 0.1), cell(0.0, 0.3), cell(0.5, 0.2), cell(0.2, 0.3),
             cell(1.0, 0.1), cell(0.8, 0.05)]
    assert triage.pareto_frontier(cells) == [cell(0.0, 0.3), cell(0.5, 0.1), cell(0.8, 0.05)]


def test_interrupted_text_save_keeps_previous_artifact(tmp_path):
    path = tmp_path / "heatmap.csv"
    cells = triage.sweep_bands(interleaved_scores(0), band_grid(-1.0, 1.0, 0.5), FusionWeight(0.5))
    triage.save_heatmap_csv(str(path), cells)
    before = path.read_bytes()
    with pytest.raises(AttributeError):  # the writer fails at the third row
        triage.save_heatmap_csv(str(path), cells[:2] + [None] + cells[2:])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["heatmap.csv"]


def test_failed_close_is_named_and_keeps_previous_artifact(tmp_path, monkeypatch):
    """A write that fails only as the file is closed (a full disk at the last
    flush) is a ValidationError naming the artifact, and leaves no .partial."""
    path = tmp_path / "heatmap.csv"
    path.write_text("before\n")

    class FullOnClose:
        def __init__(self, f):
            self.f = f

        def __getattr__(self, name):
            return getattr(self.f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.close()

        def close(self):
            self.f.close()
            raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(errors, "open", lambda *a, **k: FullOnClose(open(*a, **k)), raising=False)
    cells = triage.sweep_bands(interleaved_scores(0), band_grid(-1.0, 1.0, 0.5), FusionWeight(0.5))
    with pytest.raises(ValidationError, match=re.escape(f"cannot write {path}: ") + ".*No space"):
        triage.save_heatmap_csv(str(path), cells)
    assert path.read_text() == "before\n"
    assert os.listdir(tmp_path) == ["heatmap.csv"]
