"""Confidence-band triage between the cheap TD score and TD+TI fusion,
with trigger-rate, latency and flop analytics.

A trial escalates to fusion only when its TD score falls strictly inside
the (lower, upper) band; boundary scores count as confident.  Triaged EER
is computed on the mixed axis of raw TD scores (confident trials) and
fused scores (triggered trials), with no per-branch recalibration.  The
heat map's EERs come from per-class counts of final scores below each
candidate threshold, for every band at once, so no cell sorts its own final
scores; `metrics.compute_eer` serves single score sets, such as the TD
scores that every empty band leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import errors
from .errors import ValidationError
from .fusion import GRID_END_GAP, MIN_GRID_STEP, FusionWeight, fuse, sweep_grid
from .metrics import compute_eer, far_frr_from_counts, interpolate_eer
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

    def __post_init__(self) -> None:
        if not (-1.0 <= self.lower <= self.upper <= 1.0):
            raise ValidationError(
                f"triage band must satisfy -1 <= lower <= upper <= 1, "
                f"got ({self.lower}, {self.upper})")


@dataclass(frozen=True)
class CostModel:
    keyword_seconds: float
    query_seconds: float
    td_flops: int
    ti_flops: int

    def __post_init__(self) -> None:
        if not (self.keyword_seconds > 0 and self.query_seconds > 0):
            raise ValidationError("cost model durations must be positive")
        if self.td_flops < 0 or self.ti_flops < 0:
            raise ValidationError("cost model flop counts must be nonnegative")

    def expected(self, rate: float) -> tuple[float, float]:
        """(seconds, flops) per decision at a trigger rate, assuming an
        immediate system response: the keyword and the TD model always run,
        the query and the TI model only on trigger."""
        if not (0.0 <= rate <= 1.0):
            raise ValidationError(f"trigger rate must be in [0, 1], got {rate}")
        return (self.keyword_seconds + rate * self.query_seconds,
                self.td_flops + rate * self.ti_flops)


def in_band(td, lower: float, upper: float):
    """True where a TD score lies strictly inside (lower, upper), i.e. the
    trial escalates to fusion; for a scalar or an array of scores."""
    return (td > lower) & (td < upper)


def triage_decide(td_score: float, policy: TriagePolicy) -> Decision:
    if not np.isfinite(td_score):
        raise ValidationError(f"TD score must be finite, got {td_score}")
    if in_band(td_score, policy.lower, policy.upper):
        return Decision.TRIGGER
    return Decision.CONFIDENT_ACCEPT if td_score >= policy.upper else Decision.CONFIDENT_REJECT


def apply_triage(scores: ScoreTable, policy: TriagePolicy) -> tuple[np.ndarray, np.ndarray]:
    """(final, triggered): final is the fused score on triggered trials and
    the TD score elsewhere."""
    triggered = in_band(scores.td, policy.lower, policy.upper)
    fused = fuse(policy.alpha.alpha, scores.td, scores.ti)
    return np.where(triggered, fused, scores.td), triggered


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


BAND_GRID_MAX_VALUES = 1001  # about 500k sweep_bands cells; capped before allocating


def band_grid(grid_min: float, grid_max: float, step: float) -> np.ndarray:
    if not (-1.0 <= grid_min < grid_max - GRID_END_GAP and grid_max <= 1.0):  # keeps grid_min
        raise ValidationError(f"band grid needs -1 <= min < max - {GRID_END_GAP:g} and max <= 1, "
                              f"got [{grid_min}, {grid_max}]")
    # too many values iff sweep_grid would keep (and so allocate) i = BAND_GRID_MAX_VALUES - 1
    if grid_min + step * (BAND_GRID_MAX_VALUES - 1) < grid_max - GRID_END_GAP:
        raise ValidationError(f"band grid step {step} over [{grid_min}, {grid_max}] gives more than "
                              f"{BAND_GRID_MAX_VALUES} values; use a step of at least "
                              f"{(grid_max - grid_min) / (BAND_GRID_MAX_VALUES - 1):g}")
    if not step >= MIN_GRID_STEP:  # after the cap, which names the step a wide range needs
        raise ValidationError(f"band grid step must be at least {MIN_GRID_STEP:g}, got {step}")
    return sweep_grid(grid_min, grid_max, step)


_CELL_BLOCK = 512  # cells per vectorized block, so temporaries do not grow with the grid
_RANK_BLOCK = 32  # fused ranks per stored prefix row
_RANK_COLUMNS = np.arange(_RANK_BLOCK)


class _BandCounts:
    """For one trial class: how many triaged final scores lie below x, for
    many (band, x) pairs at once, without building any final-score array.

    Each trial gets a grid bin from its TD score: bin 2k lies strictly
    between values[k - 1] and values[k], and bin 2k + 1 is values[k] itself,
    so band (values[i], values[j]) with i < j holds bins [2i + 2, 2j + 1)."""

    def __init__(self, td: np.ndarray, fused: np.ndarray, values: np.ndarray):
        self.size = td.size
        self.td = np.sort(td)
        order = np.argsort(fused)
        self.fused = fused[order]
        # TD scores <= values[i] and < values[j]: the in-band count is their difference
        self.at_or_below = self.td.searchsorted(values, side="right")
        self.below = self.td.searchsorted(values)
        k = values.searchsorted(td)
        bins = (2 * k + (values[np.minimum(k, values.size - 1)] == td)).astype(np.int32)
        rows = self.size // _RANK_BLOCK + 1
        by_rank = np.zeros(rows * _RANK_BLOCK, dtype=bins.dtype)
        by_rank[:self.size] = bins[order]
        self.blocks = by_rank.reshape(rows, _RANK_BLOCK)
        # prefix[q, b]: trials among the first q * _RANK_BLOCK fused ranks with bin < b
        width = 2 * values.size + 2
        stored = (rows - 1) * _RANK_BLOCK
        flat = (np.arange(stored) // _RANK_BLOCK + 1) * width + by_rank[:stored] + 1
        hist = np.bincount(flat, minlength=rows * width).reshape(rows, width)
        self.prefix = hist.cumsum(axis=0, dtype=np.int32).cumsum(axis=1, dtype=np.int32)

    def triggered(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Trials inside band (values[i], values[j]), per band."""
        return np.maximum(self.below[j] - self.at_or_below[i], 0)

    def count_below(self, x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Final scores below x[c] under band (values[i[c]], values[j[c]]),
        i < j: TD scores below x, less the in-band ones, plus the in-band
        fused scores below x."""
        td_below = self.td.searchsorted(x)
        in_band_td = np.maximum(np.minimum(td_below, self.below[j]) - self.at_or_below[i], 0)
        # the first r fused ranks hold the fused scores below x: count the
        # in-band ones from the stored prefix row and the rest of r's block
        q, rest = np.divmod(self.fused.searchsorted(x), _RANK_BLOCK)
        lo, hi = 2 * i + 2, 2 * j + 1
        row = self.blocks[q]
        in_band_fused = (self.prefix[q, hi] - self.prefix[q, lo]
                         + ((row >= lo[:, None]) & (row < hi[:, None])
                            & (_RANK_COLUMNS < rest[:, None])).sum(axis=1))
        return td_below - in_band_td + in_band_fused


def _first_true(holds, hi: np.ndarray) -> np.ndarray:
    """Per cell, the first index in [0, hi] where `holds`, which must be
    monotone in the index and true at hi."""
    lo = np.zeros_like(hi)
    while (lo < hi).any():
        mid = (lo + hi) // 2
        ok = holds(mid)
        lo, hi = np.where(ok, lo, mid + 1), np.where(ok, mid, hi)
    return hi


def _band_eers(tar: _BandCounts, non: _BandCounts, candidates: np.ndarray,
               i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """compute_eer's EER for each nonempty band (values[i], values[j]).

    Candidates are every TD and fused score plus +inf, sorted: a superset
    of each cell's final scores and top sentinel.  The first candidate with
    FAR - FRR <= 0 has compute_eer's counts, since no final score lies
    between the two; the previous final score is the candidate before the
    first one with as many final scores below it."""
    def counts(k):
        return tar.count_below(candidates[k], i, j), non.count_below(candidates[k], i, j)

    def rates(below):
        return far_frr_from_counts(*below, tar.size, non.size)

    def crossed(k):
        far, frr = rates(counts(k))
        return far - frr <= 0.0

    t = _first_true(crossed, np.full(i.size, candidates.size - 1))
    at_t = counts(t)
    total = sum(at_t)
    prev = _first_true(lambda k: sum(counts(k)) >= total, t) - 1
    eer, _ = interpolate_eer(*rates(at_t), *rates(counts(prev)), candidates[t], candidates[prev])
    return eer


def sweep_bands(scores: ScoreTable, values, alpha: FusionWeight) -> list[BandCell]:
    """One cell per (lower, upper) pair of `values`, a `band_grid`, with
    lower <= upper: the EER on the triaged final-score axis and the
    per-class trigger rates.

    An empty band (lower == upper) triggers nothing, so its EER is the TD
    system's.  Every other cell's EER comes from per-class counts of final
    scores below each candidate threshold, bisected for all cells at once."""
    values = np.asarray(values, dtype=float)
    td, labels = scores.td, scores.labels
    fused = fuse(alpha.alpha, td, scores.ti)
    if not (np.all(np.isfinite(td)) and np.all(np.isfinite(fused))):
        raise ValidationError("scores must be finite")
    (td_tar, fused_tar), (td_non, fused_non) = ((td[rows], fused[rows])
                                                for rows in (labels, ~labels))
    td_eer = compute_eer(td_tar, td_non).eer
    tar = _BandCounts(td_tar, fused_tar, values)
    non = _BandCounts(td_non, fused_non, values)
    candidates = np.concatenate([td, fused, [np.inf]])
    candidates.sort()
    # flat cell index of each lower bound's first cell, in (lower, upper) order
    starts = np.concatenate([[0], np.cumsum(np.arange(values.size, 0, -1))])
    cells = []
    for first in range(0, int(starts[-1]), _CELL_BLOCK):
        k = np.arange(first, min(first + _CELL_BLOCK, int(starts[-1])))
        i = starts.searchsorted(k, side="right") - 1
        j = i + k - starts[i]
        eer = np.full(k.size, td_eer)
        band = i < j
        eer[band] = _band_eers(tar, non, candidates, i[band], j[band])
        cells.extend(map(BandCell, values[i].tolist(), values[j].tolist(), eer.tolist(),
                         (tar.triggered(i, j) / tar.size).tolist(),
                         (non.triggered(i, j) / non.size).tolist()))
    return cells


def pareto_frontier(cells: list[BandCell]) -> list[BandCell]:
    """The (trigger rate, EER) trade-off: the cells, in order of (trigger
    rate, EER), whose EER is below that of every cell before them."""
    frontier: list[BandCell] = []
    for cell in sorted(cells, key=lambda c: (c.trigger_rate, c.eer)):
        if not frontier or cell.eer < frontier[-1].eer:
            frontier.append(cell)
    return frontier


def save_heatmap_csv(path: str, cells: list[BandCell]) -> None:
    errors.write_table(path, (("%.6f" % c.lower, "%.6f" % c.upper, "%.9f" % c.eer,
                               "%.9f" % c.trigger_rate) for c in cells),
                       header=("lower", "upper", "eer", "trigger_rate"), sep=",")


def save_prior_curve_csv(path: str, cells: list[BandCell], priors: list[float]) -> None:
    """Each cell once per prior, with its trigger rate under that prior."""
    errors.write_table(path, (("%.6f" % p, "%.6f" % c.lower, "%.6f" % c.upper,
                               "%.9f" % c.rate_at(p), "%.9f" % c.eer)
                              for c in cells for p in priors),
                       header=("prior", "lower", "upper", "trigger_rate", "eer"), sep=",")


def load_heatmap_csv(path: str) -> tuple[float, float, float, float]:
    """(lower, upper, eer, trigger_rate) of the best band of a heat map:
    lowest EER, then lowest trigger rate (prior 0.5, as the heat map stores
    it), then lowest band."""
    best = None
    for lineno, *row in (r for numbers, columns in errors.read_table(
            path, 4, header=("lower", "upper", "eer", "trigger_rate"), sep=",")
            for r in zip(numbers, *columns)):
        try:
            lower, upper, eer, rate = (float(v) for v in row)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: expected four numbers "
                "(lower, upper, eer, trigger_rate)") from None
        if not (-1.0 <= lower <= upper <= 1.0 and 0.0 <= eer <= 1.0 and 0.0 <= rate <= 1.0):
            raise ValidationError(
                f"{path}:{lineno}: need -1 <= lower <= upper <= 1 and eer, "
                f"trigger_rate in [0, 1], got {row}")
        if best is None or (eer, rate, lower, upper) < best:
            best = (eer, rate, lower, upper)
    if best is None:
        raise ValidationError(f"{path}: empty heat map")
    eer, rate, lower, upper = best
    return lower, upper, eer, rate
