"""Equal error rate and FAR/FRR machinery.

Conventions, fixed and documented: a trial is accepted when score >= threshold
(so FAR(t) counts nontargets >= t and FRR(t) counts targets < t), candidate
thresholds are the sorted distinct scores plus one beyond the top, and the EER
is linearly interpolated between the two adjacent candidates where FAR - FRR
changes sign.  FAR - FRR does not increase with t, so no curve is built: each
class is sorted once, and bisection finds the first candidate with
FAR - FRR <= 0 among the targets, then among the nontargets below it.
`compute_eer` is the kernel for one score set; the band sweep shares its
rates from counts and its interpolation (`far_frr_from_counts`,
`interpolate_eer`), and `system_eers` applies it to each column of a score
table.
EER is a fraction in [0, 1] internally; reports convert to percent.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class EvalResult:
    eer: float
    eer_threshold: float
    num_targets: int
    num_nontargets: int


def far_frr_from_counts(tar_below, non_below, n_tar: int, n_non: int):
    """(FAR, FRR) at a threshold from the counts of target and nontarget
    scores below it; elementwise on arrays of counts."""
    return (n_non - non_below) / n_non, tar_below / n_tar


def _far_frr(tar: np.ndarray, non: np.ndarray, t):
    """(FAR, FRR) at threshold t, for sorted target and nontarget scores."""
    return far_frr_from_counts(tar.searchsorted(t), non.searchsorted(t), tar.size, non.size)


def interpolate_eer(far, frr, far_prev, frr_prev, t, prev):
    """(EER, threshold) between adjacent candidates prev < t, from the rates
    at each: FAR - FRR > 0 at prev and <= 0 at t.  Elementwise on arrays."""
    diff, diff_prev = far - frr, far_prev - frr_prev
    lam = diff_prev / (diff_prev - diff)
    exact = diff == 0.0
    return (np.where(exact, far, frr_prev + lam * (frr - frr_prev)),
            np.where(exact, t, prev + lam * (t - prev)))


def compute_eer(target_scores, nontarget_scores) -> EvalResult:
    tar = np.sort(np.asarray(target_scores, dtype=np.float64))
    non = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    if tar.size == 0 or non.size == 0:
        raise ValidationError("need at least one target and one nontarget score")
    if not (np.all(np.isfinite(tar)) and np.all(np.isfinite(non))):
        raise ValidationError("scores must be finite")

    def crossed(t) -> bool:
        far, frr = _far_frr(tar, non, t)
        return far - frr <= 0.0

    i = bisect_left(tar, True, key=crossed)
    # only nontargets between tar[i - 1] (not crossed) and tar[i] can cross first
    lo = non.searchsorted(tar[i - 1], side="right") if i > 0 else 0
    hi = non.searchsorted(tar[i]) if i < tar.size else non.size
    j = bisect_left(non, True, lo, hi, key=crossed)
    t = non[j] if j < hi else tar[i] if i < tar.size else max(tar[-1], non[-1]) + 1.0
    prev = max(s[k - 1] for s in (tar, non) if (k := s.searchsorted(t)) > 0)
    eer, threshold = interpolate_eer(*_far_frr(tar, non, t), *_far_frr(tar, non, prev), t, prev)
    return EvalResult(eer=float(eer), eer_threshold=float(threshold),
                      num_targets=int(tar.size), num_nontargets=int(non.size))


def system_eers(scores) -> dict[str, EvalResult]:
    """compute_eer of the "td" and the "ti" column of a `scoring.ScoreTable`."""
    return {system: compute_eer(column[scores.labels], column[~scores.labels])
            for system, column in (("td", scores.td), ("ti", scores.ti))}
