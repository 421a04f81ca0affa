"""Linear TD/TI score combination and the optimal-weight linear sweep."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import ValidationError
from .metrics import compute_eer
from .scoring import ScoreTable


@dataclass(frozen=True)
class FusionWeight:
    alpha: float  # weight on the TD score

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValidationError(f"fusion weight must be in [0, 1], got {self.alpha}")


@dataclass(frozen=True)
class FusionSweepResult:
    alpha_star: float
    eer_at_alpha_star: float
    table: list[tuple[float, float]]  # (alpha, eer)

    @classmethod
    def of(cls, table: list[tuple[float, float]]) -> FusionSweepResult:
        """`table` and its best alpha: the lowest EER's, the smallest alpha on ties."""
        return cls(*min(table, key=lambda ae: (ae[1], ae[0])), table)


GRID_END_GAP = 5e-7  # half the last of the 6 decimals the sweep files write
MIN_GRID_STEP = 1e-5  # ten units of that last decimal, so grid values write apart


def sweep_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo + step * i for i = 0, 1, ... while below hi - GRID_END_GAP, then hi."""
    for name, x in (("lo", lo), ("hi", hi), ("step", step)):
        if not np.isfinite(x):
            raise ValidationError(f"grid {name} must be finite, got {x}")
    values = lo + step * np.arange(max(int(np.ceil((hi - GRID_END_GAP - lo) / step)), 0) + 1)
    return np.append(values[values < hi - GRID_END_GAP], hi)


def alpha_grid(grid_step: float) -> list[float]:
    """sweep_grid(0, 1, grid_step): 0, grid_step, ... then 1."""
    if not (MIN_GRID_STEP <= grid_step <= 0.5):
        raise ValidationError(f"grid step must be in [{MIN_GRID_STEP:g}, 0.5], got {grid_step}")
    return sweep_grid(0.0, 1.0, grid_step).tolist()


def fuse(alpha: float, td, ti):
    """The fused score alpha * td + (1 - alpha) * ti, for scalars or arrays."""
    return alpha * td + (1.0 - alpha) * ti


def sweep_fusion_weight(scores: ScoreTable, alphas: list[float]) -> FusionSweepResult:
    """EER at each alpha of `alphas`, an `alpha_grid`."""
    tar, non = ((scores.td[rows], scores.ti[rows]) for rows in (scores.labels, ~scores.labels))
    return FusionSweepResult.of([(alpha, compute_eer(fuse(alpha, *tar), fuse(alpha, *non)).eer)
                                 for alpha in alphas])


def save_sweep_csv(path: str, result: FusionSweepResult) -> None:
    errors.write_table(path, (("%.6f" % alpha, "%.9f" % eer) for alpha, eer in result.table),
                       header=("alpha", "eer"), sep=",")


def load_sweep_csv(path: str) -> FusionSweepResult:
    """A save_sweep_csv file, whose alphas rise strictly from 0 to 1."""
    table = []
    for lineno, *row in (r for numbers, columns in errors.read_table(
            path, 2, header=("alpha", "eer"), sep=",") for r in zip(numbers, *columns)):
        try:
            alpha, eer = (float(v) for v in row)
        except ValueError:
            raise ValidationError(
                f"{path}:{lineno}: expected two numbers (alpha, eer)") from None
        if not (0.0 <= alpha <= 1.0 and 0.0 <= eer <= 1.0):
            raise ValidationError(
                f"{path}:{lineno}: alpha and eer must be in [0, 1], got {alpha}, {eer}")
        if alpha <= table[-1][0] if table else alpha != 0.0:
            raise ValidationError(f"{path}:{lineno}: alphas must rise strictly from 0, got {alpha}")
        table.append((alpha, eer))
    if not table:
        raise ValidationError(f"{path}: empty fusion sweep")
    if table[-1][0] != 1.0:
        raise ValidationError(f"{path}:{lineno}: the last alpha must be 1, got {table[-1][0]}")
    return FusionSweepResult.of(table)
