import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade.errors import ValidationError
from svcascade.metrics import _operating_points, compute_eer, cross_eval_matrix

from conftest import make_scores


def eer_bruteforce(tar, non):
    """Independent oracle: sweep every midpoint between adjacent distinct
    scores (plus one beyond each end), interpolate the FAR/FRR crossing."""
    tar = np.asarray(tar, float)
    non = np.asarray(non, float)
    distinct = sorted(set(tar) | set(non))
    mids = [distinct[0] - 1.0]
    mids += [(a + b) / 2.0 for a, b in zip(distinct, distinct[1:])]
    mids += [distinct[-1], distinct[-1] + 1.0]
    mids = sorted(set(mids))
    points = []
    for t in mids:
        far = float(np.mean(non >= t))
        frr = float(np.mean(tar < t))
        points.append((far, frr))
    points.sort(key=lambda p: (-p[0], p[1]))
    for (far1, frr1), (far2, frr2) in zip(points, points[1:]):
        d1, d2 = far1 - frr1, far2 - frr2
        if d1 >= 0 and d2 <= 0:
            if d1 == d2:
                return frr1
            lam = d1 / (d1 - d2)
            return frr1 + lam * (frr2 - frr1)
    raise AssertionError("no FAR/FRR crossing found")


def test_perfect_separation():
    assert compute_eer([0.9], [0.1]).eer == 0.0


def test_perfectly_inverted():
    assert compute_eer([0.1], [0.9]).eer == 1.0


def test_hand_case_one_third():
    result = compute_eer([0.8, 0.6, 0.4], [0.7, 0.3, 0.2])
    assert result.eer == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_empty_class_rejected():
    with pytest.raises(ValidationError):
        compute_eer([], [0.1])
    with pytest.raises(ValidationError):
        compute_eer([0.4], [])


def far_frr_curve(tar, non):
    """(threshold, FAR, FRR) rows of the operating points compute_eer uses."""
    return list(zip(*_operating_points(np.asarray(tar, float), np.asarray(non, float))))


def test_curve_extremes():
    curve = far_frr_curve([0.3, 0.8], [0.1, 0.5])
    assert curve[0][2] == 0.0 and curve[0][1] == 1.0
    assert curve[-1][1] == 0.0 and curve[-1][2] == 1.0


def test_curve_tie_convention():
    curve = far_frr_curve([0.5], [0.5])
    at_half = [(far, frr) for t, far, frr in curve if t == 0.5]
    assert at_half == [(1.0, 0.0)]  # score >= threshold accepts


def test_curve_length_is_distinct_plus_two():
    curve = far_frr_curve([0.1, 0.2, 0.2], [0.3, 0.1])
    assert len(curve) == 3 + 2


def test_curve_monotone():
    rng = np.random.default_rng(0)
    curve = far_frr_curve(rng.standard_normal(50), rng.standard_normal(60))
    fars = [far for _, far, _ in curve]
    frrs = [frr for _, _, frr in curve]
    assert all(a >= b for a, b in zip(fars, fars[1:]))
    assert all(a <= b for a, b in zip(frrs, frrs[1:]))


def test_matches_bruteforce_on_random_sets():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n_tar = int(rng.integers(1, 500))
        n_non = int(rng.integers(1, 500))
        if trial % 3 == 0:
            # discrete scores force ties
            tar = rng.integers(0, 10, n_tar) / 10.0
            non = rng.integers(0, 10, n_non) / 10.0
        else:
            tar = rng.standard_normal(n_tar) + 0.5
            non = rng.standard_normal(n_non)
        assert compute_eer(tar, non).eer == pytest.approx(
            eer_bruteforce(tar, non), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["affine", "cube", "exp"]))
def test_invariance_under_increasing_transform(seed, kind):
    rng = np.random.default_rng(seed)
    tar = rng.standard_normal(40) + 0.3
    non = rng.standard_normal(50)
    transform = {
        "affine": lambda x: 3.0 * x + 1.0,
        "cube": lambda x: x ** 3,
        "exp": lambda x: np.exp(x / 2.0),
    }[kind]
    base = compute_eer(tar, non).eer
    mapped = compute_eer(transform(tar), transform(non)).eer
    assert mapped == pytest.approx(base, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_negate_and_swap_leaves_eer_unchanged(seed):
    rng = np.random.default_rng(seed)
    tar = rng.standard_normal(30) + 0.4
    non = rng.standard_normal(30)
    base = compute_eer(tar, non).eer
    flipped = compute_eer(-non, -tar).eer
    assert flipped == pytest.approx(base, abs=1e-12)


def test_cross_eval_matrix_shape_and_flags():
    def scorer(td_params, ti_params, corpus, trials):
        return make_scores([0.9], [0.9], [0.1], [0.1])

    models = [("mono0", 0, None, None), ("mono1", 1, None, None)]
    eval_sets = [(0, None, None), (1, None, None)]
    cells = cross_eval_matrix(models, eval_sets, scorer)
    assert len(cells) == 2 * 2 * 2  # models x languages x {td, ti}
    for cell in cells:
        assert cell.cross_lingual == (cell.train_language != cell.eval_language)
        assert cell.result.eer == 0.0
        assert cell.system in ("td", "ti")


def test_cross_lingual_pattern_over_seeds(multilingual_runs):
    # a monolingual model on an unseen language is no better than on its own
    # language, for the majority of (model, seed) pairs
    wins, total = 0, 0
    for run in multilingual_runs:
        for lang in range(4):
            total += 1
            if run["mono_unseen"][lang] >= run["mono_matched"][lang]:
                wins += 1
    assert wins > total / 2
