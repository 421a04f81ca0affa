import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade.errors import ValidationError
from svcascade.metrics import _far_frr, compute_eer


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


def rates(tar, non, t):
    """(FAR, FRR) at t through the rate function compute_eer uses."""
    return _far_frr(np.sort(np.asarray(tar, float)), np.sort(np.asarray(non, float)), t)


def test_curve_extremes():
    tar, non = [0.3, 0.8], [0.1, 0.5]
    assert rates(tar, non, 0.1 - 1.0) == (1.0, 0.0)
    assert rates(tar, non, 0.8 + 1.0) == (0.0, 1.0)


def test_curve_tie_convention():
    assert rates([0.5], [0.5], 0.5) == (1.0, 0.0)  # score >= threshold accepts


def test_curve_monotone():
    # FAR - FRR never increases with t, which the bisection relies on
    rng = np.random.default_rng(0)
    tar, non = np.round(rng.standard_normal(50), 1), np.round(rng.standard_normal(60), 1)
    thresholds = np.unique(np.concatenate([tar, non, [tar.min() - 1, non.max() + 1]]))
    fars, frrs = zip(*(rates(tar, non, t) for t in thresholds))
    assert all(a >= b for a, b in zip(fars, fars[1:]))
    assert all(a <= b for a, b in zip(frrs, frrs[1:]))
    diffs = [far - frr for far, frr in zip(fars, frrs)]
    assert all(a >= b for a, b in zip(diffs, diffs[1:]))


def eer_full_curve(tar, non):
    """Reference: FAR/FRR at every candidate (the distinct scores plus one
    beyond each end), crossing at the first FAR - FRR <= 0."""
    tar, non = np.asarray(tar, float), np.asarray(non, float)
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate([[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    frr = np.searchsorted(np.sort(tar), thresholds, side="left") / tar.size
    far = (non.size - np.searchsorted(np.sort(non), thresholds, side="left")) / non.size
    diff = far - frr
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        return float(far[idx]), float(thresholds[idx])
    lam = diff[idx - 1] / (diff[idx - 1] - diff[idx])
    return (float(frr[idx - 1] + lam * (frr[idx] - frr[idx - 1])),
            float(thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1])))


def score_set(rng, kind, n_tar, n_non):
    if kind == "ties":  # a few score levels shared by both classes
        levels = int(rng.integers(1, 5))
        return rng.integers(0, levels + 1, n_tar) / levels, \
            rng.integers(0, levels + 1, n_non) / levels
    if kind == "separated":
        return 1.0 + rng.random(n_tar), -rng.random(n_non)
    if kind == "inverted":  # EER 1, reached at the lowest nontarget score
        return -rng.random(n_tar), 1.0 + rng.random(n_non)
    if kind == "single":  # every score equal: the crossing is at the top sentinel
        return np.full(n_tar, 0.25), np.full(n_non, 0.25)
    return rng.standard_normal(n_tar) + 0.5, rng.standard_normal(n_non)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.sampled_from(["ties", "separated", "inverted", "single", "normal"]),
       st.integers(1, 300), st.integers(1, 300))
def test_kernel_equals_full_curve_reference(seed, kind, n_tar, n_non):
    tar, non = score_set(np.random.default_rng(seed), kind, n_tar, n_non)
    result = compute_eer(tar, non)
    assert (result.eer, result.eer_threshold) == eer_full_curve(tar, non)


def test_crossing_at_top_sentinel():
    # FAR - FRR > 0 at every score, so the crossing lies between the top
    # score and the sentinel one beyond it
    for tar, non in (([0.25], [0.25]), ([0.5, 0.9], [0.9, 0.9])):
        result = compute_eer(tar, non)
        assert result.eer_threshold > max(tar + non)
        assert (result.eer, result.eer_threshold) == eer_full_curve(tar, non)


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


@pytest.mark.slow
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
