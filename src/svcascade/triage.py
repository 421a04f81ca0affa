"""Confidence-band triage between the cheap TD score and TD+TI fusion,
with trigger-rate, latency and flop analytics.

A trial escalates to fusion only when its TD score falls strictly inside
the (lower, upper) band; boundary scores count as confident.  Triaged EER
is computed on the mixed axis of raw TD scores (confident trials) and
fused scores (triggered trials), with no per-branch recalibration.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DependencyError, ValidationError
from .fusion import FusionWeight
from .metrics import compute_eer
from .scoring import ScoreTable


class Decision(Enum):
    CONFIDENT_ACCEPT = "confident-accept"
    CONFIDENT_REJECT = "confident-reject"
    TRIGGER = "trigger"


@dataclass(frozen=True)
class TriagePolicy:
    lower: float
    upper: float
    alpha: FusionWeight

    def validate(self) -> None:
        if not (-1.0 <= self.lower <= self.upper <= 1.0):
            raise ValidationError(
                f"triage band must satisfy -1 <= lower <= upper <= 1, "
                f"got ({self.lower}, {self.upper})")
        self.alpha.validate()


@dataclass(frozen=True)
class CostModel:
    keyword_seconds: float
    query_seconds: float
    td_flops: int
    ti_flops: int

    def validate(self) -> None:
        if not (self.keyword_seconds > 0 and self.query_seconds > 0):
            raise ValidationError("cost model durations must be positive")
        if self.td_flops < 0 or self.ti_flops < 0:
            raise ValidationError("cost model flop counts must be nonnegative")


def in_band(td, lower: float, upper: float):
    """True where a TD score lies strictly inside (lower, upper), i.e. the
    trial escalates to fusion; for a scalar or an array of scores."""
    return (td > lower) & (td < upper)


def triage_decide(td_score: float, policy: TriagePolicy) -> Decision:
    policy.validate()
    if not np.isfinite(td_score):
        raise ValidationError(f"TD score must be finite, got {td_score}")
    if in_band(td_score, policy.lower, policy.upper):
        return Decision.TRIGGER
    return Decision.CONFIDENT_ACCEPT if td_score >= policy.upper else Decision.CONFIDENT_REJECT


def apply_triage(scores: ScoreTable, policy: TriagePolicy) -> tuple[np.ndarray, np.ndarray]:
    """(final, triggered): final is the fused score on triggered trials and
    the TD score elsewhere.  TI scores are needed only where a trial triggers."""
    policy.validate()
    triggered = in_band(scores.td, policy.lower, policy.upper)
    if scores.ti is None:
        if triggered.any():
            first = scores.utterances[int(np.argmax(triggered))]
            raise ValidationError(f"trial {first} triggers but has no TI score")
        fused = scores.td
    else:
        fused = policy.alpha.alpha * scores.td + (1.0 - policy.alpha.alpha) * scores.ti
    return np.where(triggered, fused, scores.td), triggered


def trigger_rate(triggered: np.ndarray, labels: np.ndarray, prior: float) -> float:
    """Prior-weighted trigger probability: p * (target trigger fraction)
    + (1-p) * (nontarget trigger fraction)."""
    if not (0.0 <= prior <= 1.0):
        raise ValidationError(f"prior must be in [0, 1], got {prior}")
    rate = 0.0
    if prior > 0.0:
        if not labels.any():
            raise ValidationError("prior > 0 needs target trials in the set")
        rate += prior * triggered[labels].mean()
    if prior < 1.0:
        if labels.all():
            raise ValidationError("prior < 1 needs nontarget trials in the set")
        rate += (1.0 - prior) * triggered[~labels].mean()
    return float(rate)


def expected_latency(rate: float, cost: CostModel) -> float:
    """Seconds until a verification decision, assuming an immediate system
    response: the keyword is always consumed, the query only on trigger."""
    cost.validate()
    if not (0.0 <= rate <= 1.0):
        raise ValidationError(f"trigger rate must be in [0, 1], got {rate}")
    return cost.keyword_seconds + rate * cost.query_seconds


def expected_flops(rate: float, cost: CostModel) -> float:
    cost.validate()
    if not (0.0 <= rate <= 1.0):
        raise ValidationError(f"trigger rate must be in [0, 1], got {rate}")
    return cost.td_flops + rate * cost.ti_flops


@dataclass(frozen=True)
class BandCell:
    lower: float
    upper: float
    eer: float
    target_rate: float  # fraction of target trials that trigger
    nontarget_rate: float

    def rate_at(self, prior: float) -> float:
        return prior * self.target_rate + (1.0 - prior) * self.nontarget_rate

    @property
    def trigger_rate(self) -> float:
        return self.rate_at(0.5)


def band_grid(grid_min: float, grid_max: float, step: float) -> np.ndarray:
    if step <= 0:
        raise ValidationError(f"band grid step must be positive, got {step}")
    if grid_min >= grid_max:
        raise ValidationError(f"band grid needs min < max, got [{grid_min}, {grid_max}]")
    count = int(np.floor((grid_max - grid_min) / step + 1e-9)) + 1
    values = grid_min + step * np.arange(count)
    if values[-1] < grid_max - 1e-12:
        values = np.append(values, grid_max)
    return values


def sweep_bands(scores: ScoreTable, grid_min: float, grid_max: float,
                step: float, alpha: FusionWeight) -> list[BandCell]:
    """One cell per (lower, upper) grid pair with lower <= upper: the EER on
    the triaged final-score axis and the per-class trigger rates."""
    alpha.validate()
    values = band_grid(grid_min, grid_max, step)
    n_tar, td, ti = scores.fusable("band sweep")
    fused = alpha.alpha * td + (1.0 - alpha.alpha) * ti
    cells = []
    for i, lower in enumerate(values):
        for upper in values[i:]:
            triggered = in_band(td, lower, upper)
            final = np.where(triggered, fused, td)
            cells.append(BandCell(lower=float(lower), upper=float(upper),
                                  eer=compute_eer(final[:n_tar], final[n_tar:]).eer,
                                  target_rate=float(triggered[:n_tar].mean()),
                                  nontarget_rate=float(triggered[n_tar:].mean())))
    return cells


@dataclass(frozen=True)
class PriorPoint:
    prior: float
    lower: float
    upper: float
    trigger_rate: float
    eer: float


def prior_sensitivity_curve(cells: list[BandCell], priors: list[float]) -> list[PriorPoint]:
    """For each swept band and each prior: (trigger rate under that prior,
    triaged EER).  The EER is prior-independent; only the rate moves."""
    for p in priors:
        if not (0.0 <= p <= 1.0):
            raise ValidationError(f"prior must be in [0, 1], got {p}")
    return [PriorPoint(prior=p, lower=c.lower, upper=c.upper, trigger_rate=c.rate_at(p),
                       eer=c.eer)
            for c in cells for p in priors]


def save_heatmap_csv(path: str, cells: list[BandCell]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["lower", "upper", "eer", "trigger_rate"])
        for cell in cells:
            writer.writerow(["%.6f" % cell.lower, "%.6f" % cell.upper,
                             "%.9f" % cell.eer, "%.9f" % cell.trigger_rate])


def save_prior_curve_csv(path: str, points: list[PriorPoint]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["prior", "trigger_rate", "eer"])
        for pt in points:
            writer.writerow(["%.6f" % pt.prior, "%.9f" % pt.trigger_rate, "%.9f" % pt.eer])


def load_heatmap_csv(path: str) -> PriorPoint:
    """The best band of a heat map: lowest EER, then lowest trigger rate
    (prior 0.5, as the heat map stores it), then lowest band."""
    best = None
    with open(path, newline="") as f:
        reader = csv.reader(f)
        if next(reader, None) != ["lower", "upper", "eer", "trigger_rate"]:
            raise DependencyError(f"{path} is not a heat map; run `svcascade triage-sweep`")
        for row in reader:
            try:
                lower, upper, eer, rate = (float(v) for v in row)
            except ValueError:
                raise ValidationError(
                    f"{path}:{reader.line_num}: expected four numbers "
                    "(lower, upper, eer, trigger_rate)") from None
            if best is None or (eer, rate, lower, upper) < best:
                best = (eer, rate, lower, upper)
    if best is None:
        raise DependencyError(f"{path} is empty; run `svcascade triage-sweep`")
    eer, rate, lower, upper = best
    return PriorPoint(prior=0.5, lower=lower, upper=upper, trigger_rate=rate, eer=eer)
