"""Linear TD/TI score fusion, its weight sweep, and both sweeps' grid of written decimals."""

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


GRID_FORMAT = "%.6f"  # how every file writes a grid value, which is the float of that text
GRID_END_GAP = 5e-7  # half GRID_FORMAT's last decimal: steps closer below hi may write as hi
MIN_GRID_STEP = 1e-5  # ten units of GRID_FORMAT's last decimal, so steps write apart


def sweep_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """lo + step * i for i = 0, 1, ... while below hi - GRID_END_GAP and written below hi, then
    hi, each value the float of its GRID_FORMAT text, so that text parses back to it."""
    for name, x in (("lo", lo), ("hi", hi), ("step", step)):
        if not np.isfinite(x):
            raise ValidationError(f"grid {name} must be finite, got {x}")
    steps = lo + step * np.arange(max(int(np.ceil((hi - GRID_END_GAP - lo) / step)), 0) + 1)
    values = np.array([float(GRID_FORMAT % v) for v in steps[steps < hi - GRID_END_GAP].tolist()])
    hi = float(GRID_FORMAT % hi)
    return np.append(values[values < hi], hi)


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
    errors.write_table(path, ((GRID_FORMAT % alpha, "%.9f" % eer) for alpha, eer in result.table),
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
