import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from svcascade.errors import ValidationError
from svcascade.fusion import (
    GRID_FORMAT, MIN_GRID_STEP, alpha_grid, load_sweep_csv, save_sweep_csv, sweep_fusion_weight,
    sweep_grid)
from svcascade.metrics import compute_eer
from svcascade.triage import band_grid

from conftest import interleaved_scores, make_scores


def test_alpha_grid_includes_endpoints():
    # 49 steps of 1/49 end at 0.9999999999999999, which must not precede 1
    for step in (0.01, 0.02, 0.03, 0.07, 0.5, 1 / 49, 1e-5):
        grid = alpha_grid(step)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        written = ["%.6f" % alpha for alpha in grid]  # as save_sweep_csv writes them
        assert all(b > a for a, b in zip(written, written[1:]))
    for step in (0.0, 9e-6, 0.6):
        with pytest.raises(ValidationError):
            alpha_grid(step)


def assert_written_grid(grid, lo, hi):
    """Each value is the float of its GRID_FORMAT text, the values rise
    strictly with distinct texts, and the ends are lo and hi as written."""
    texts = [GRID_FORMAT % v for v in grid]
    assert [float(t) for t in texts] == list(grid)
    assert all(b > a for a, b in zip(grid, grid[1:])) and len(set(texts)) == len(texts)
    assert (grid[0], grid[-1]) == (float(GRID_FORMAT % lo), float(GRID_FORMAT % hi))


@settings(deadline=None)
@given(st.floats(MIN_GRID_STEP, 0.5))
@example(0.01)
@example(1 / 49)
@example(MIN_GRID_STEP)
def test_alpha_grid_values_are_their_written_decimals(step):
    assert_written_grid(alpha_grid(step), 0.0, 1.0)


@settings(deadline=None)
@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(MIN_GRID_STEP, 2.0))
@example(-1.0, 1.0, 0.02)
@example(-1.0, 1.0, 0.019999998)
@example(0.5, 0.5000005000001, 1e-5)
@example(-0.1234564, 0.9876545, 0.0123457)
def test_band_grid_values_are_their_written_decimals(a, b, step):
    """Over every range and step the config's band grid accepts."""
    lo, hi = min(a, b), max(a, b)
    try:
        grid = band_grid(lo, hi, step)
    except ValidationError:
        reject()
    assert_written_grid(grid.tolist(), lo, hi)


@pytest.mark.parametrize("make, named", [
    pytest.param(alpha_grid, "step", id="alpha-step"),
    pytest.param(lambda x: band_grid(-1.0, 1.0, x), "step", id="band-step"),
    pytest.param(lambda x: sweep_grid(x, 1.0, 0.1), "lo", id="lo"),
    pytest.param(lambda x: sweep_grid(0.0, x, 0.1), "hi", id="hi"),
])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_grids_refuse_non_finite_bounds_and_steps(make, named, value):
    """A band step of inf once left only hi: band_grid(-1, 1, inf) == [1.0]."""
    with pytest.raises(ValidationError, match=rf"\b{named}\b"):
        make(value)


@pytest.mark.parametrize("rows, line", [
    pytest.param("0.500000,0.1\n1.000000,0.2\n", 2, id="no-alpha-0"),
    pytest.param("0.000000,0.1\n0.500000,0.2\n", 3, id="no-alpha-1"),
    pytest.param("0.000000,0.1\n0.500000,0.2\n0.500000,0.2\n1.000000,0.3\n", 4,
                 id="repeated-alpha"),
    pytest.param("0.000000,0.1\n0.600000,0.2\n0.500000,0.2\n1.000000,0.3\n", 4,
                 id="falling-alpha"),
])
def test_load_sweep_csv_needs_alphas_rising_from_0_to_1(tmp_path, rows, line):
    path = tmp_path / "fusion_sweep.csv"
    path.write_text("alpha,eer\n" + rows)
    with pytest.raises(ValidationError, match=f"fusion_sweep.csv:{line}: "):
        load_sweep_csv(str(path))


def test_identical_scores_pick_smallest_alpha():
    rng = np.random.default_rng(0)
    tgt = rng.uniform(0.4, 1.0, 30)
    non = rng.uniform(-1.0, 0.6, 30)
    scored = make_scores(tgt, tgt, non, non)
    result = sweep_fusion_weight(scored, alpha_grid(0.1))
    assert result.alpha_star == 0.0  # all alphas tie, smallest wins
    base = compute_eer(tgt, non).eer
    assert result.eer_at_alpha_star == pytest.approx(base, abs=1e-12)
    assert all(eer == pytest.approx(base, abs=1e-12) for _, eer in result.table)


def test_complementary_scores_perfect_at_midpoint():
    # each system alone misorders one pair; their mean separates cleanly:
    # fused targets all 0.6, fused nontargets all 0.4 at alpha = 0.5
    scored = make_scores(td_tgt=[0.9, 0.3, 0.6], ti_tgt=[0.3, 0.9, 0.6],
                         td_non=[0.8, 0.0, 0.4], ti_non=[0.0, 0.8, 0.4])
    result = sweep_fusion_weight(scored, alpha_grid(0.05))
    assert result.eer_at_alpha_star == 0.0
    td_eer = dict(result.table)[1.0]
    ti_eer = dict(result.table)[0.0]
    assert td_eer == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert ti_eer == pytest.approx(1.0 / 3.0, abs=1e-9)
    perfect = [a for a, e in result.table if e == 0.0]
    assert 0.5 in [pytest.approx(a) for a in perfect]


def test_sweep_never_worse_than_endpoints():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        scored = make_scores(rng.standard_normal(n) + 0.8, rng.standard_normal(n) + 0.8,
                             rng.standard_normal(n), rng.standard_normal(n))
        result = sweep_fusion_weight(scored, alpha_grid(0.05))
        endpoint = {a: e for a, e in result.table}
        assert result.eer_at_alpha_star <= min(endpoint[0.0], endpoint[1.0]) + 1e-12
        assert result.eer_at_alpha_star == min(e for _, e in result.table)


def test_sweep_table_equals_per_alpha_eer():
    scores = interleaved_scores(1)
    td, ti, labels = scores.td, scores.ti, scores.labels
    result = sweep_fusion_weight(scores, alpha_grid(0.05))
    for alpha, eer in result.table:
        fused = alpha * td + (1.0 - alpha) * ti
        assert eer == compute_eer(fused[labels], fused[~labels]).eer
    assert (result.alpha_star, result.eer_at_alpha_star) == min(
        result.table, key=lambda ae: (ae[1], ae[0]))


def test_finer_grid_never_hurts():
    rng = np.random.default_rng(3)
    scored = make_scores(rng.standard_normal(40) + 0.5, rng.standard_normal(40) + 0.7,
                         rng.standard_normal(40), rng.standard_normal(40))
    coarse = sweep_fusion_weight(scored, alpha_grid(0.25))
    fine = sweep_fusion_weight(scored, alpha_grid(0.05))
    assert fine.eer_at_alpha_star <= coarse.eer_at_alpha_star + 1e-12


def test_sweep_on_trained_scores(scored_trials):
    result = sweep_fusion_weight(scored_trials, alpha_grid(0.01))
    table = dict(result.table)
    assert result.eer_at_alpha_star <= min(table[0.0], table[1.0]) + 1e-12
    assert 0.0 <= result.alpha_star <= 1.0
    assert len(result.table) == 101


def test_sweep_requires_both_labels_and_ti():
    only_tgt = make_scores([0.9], [0.9], [], [])
    with pytest.raises(ValidationError):
        sweep_fusion_weight(only_tgt, alpha_grid(0.01))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_sweep_csv_roundtrip(tmp_path_factory, seed):
    rng = np.random.default_rng(seed)
    scored = make_scores(rng.standard_normal(10) + 1.0, rng.standard_normal(10) + 1.0,
                         rng.standard_normal(10), rng.standard_normal(10))
    result = sweep_fusion_weight(scored, alpha_grid(0.1))
    path = tmp_path_factory.mktemp("sweep") / "fusion_sweep.csv"
    save_sweep_csv(str(path), result)
    data = path.read_bytes()
    assert data.startswith(("alpha,eer\r\n%.6f,%.9f\r\n" % result.table[0]).encode())
    assert data.count(b"\r\n") == data.count(b"\n") == len(result.table) + 1
    loaded = load_sweep_csv(str(path))
    path.write_bytes(data.replace(b"\r\n", b"\r\n\r\n"))  # a blank line after each
    assert load_sweep_csv(str(path)).table == loaded.table
    assert loaded.alpha_star == pytest.approx(result.alpha_star, abs=1e-6)
    assert loaded.eer_at_alpha_star == pytest.approx(result.eer_at_alpha_star, abs=1e-9)
    assert len(loaded.table) == len(result.table)
