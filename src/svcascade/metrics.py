"""Equal error rate and FAR/FRR machinery, plus the cross-language
evaluation matrix report.

Conventions, fixed and documented: a trial is accepted when score >= threshold
(so FAR(t) counts nontargets >= t and FRR(t) counts targets < t), candidate
thresholds are the sorted distinct scores plus one value beyond each end, and
the EER is linearly interpolated between the two adjacent operating points
where FAR - FRR changes sign.  EER is a fraction in [0, 1] internally;
reports convert to percent.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class EvalResult:
    eer: float
    eer_threshold: float
    num_targets: int
    num_nontargets: int


def _check_scores(target_scores, nontarget_scores):
    tar = np.asarray(target_scores, dtype=np.float64)
    non = np.asarray(nontarget_scores, dtype=np.float64)
    if tar.size == 0 or non.size == 0:
        raise ValidationError("need at least one target and one nontarget score")
    if not (np.all(np.isfinite(tar)) and np.all(np.isfinite(non))):
        raise ValidationError("scores must be finite")
    return tar, non


def _operating_points(tar: np.ndarray, non: np.ndarray):
    """FAR/FRR at the candidate thresholds (distinct scores plus one beyond
    each end)."""
    distinct = np.unique(np.concatenate([tar, non]))
    thresholds = np.concatenate([[distinct[0] - 1.0], distinct, [distinct[-1] + 1.0]])
    tar_sorted = np.sort(tar)
    non_sorted = np.sort(non)
    frr = np.searchsorted(tar_sorted, thresholds, side="left") / tar.size
    far = (non.size - np.searchsorted(non_sorted, thresholds, side="left")) / non.size
    return thresholds, far, frr


def compute_eer(target_scores, nontarget_scores) -> EvalResult:
    tar, non = _check_scores(target_scores, nontarget_scores)
    thresholds, far, frr = _operating_points(tar, non)
    diff = far - frr  # nonincreasing, from +1 to -1
    idx = int(np.argmax(diff <= 0.0))
    if diff[idx] == 0.0:
        eer = float(far[idx])
        threshold = float(thresholds[idx])
    else:
        lam = diff[idx - 1] / (diff[idx - 1] - diff[idx])
        eer = float(frr[idx - 1] + lam * (frr[idx] - frr[idx - 1]))
        threshold = float(thresholds[idx - 1] + lam * (thresholds[idx] - thresholds[idx - 1]))
    return EvalResult(eer=eer, eer_threshold=threshold,
                      num_targets=int(tar.size), num_nontargets=int(non.size))


@dataclass(frozen=True)
class MatrixCell:
    model_name: str
    train_language: int
    system: str  # "td" or "ti"
    eval_language: int
    result: EvalResult
    cross_lingual: bool


def cross_eval_matrix(models, eval_sets, scorer) -> list[MatrixCell]:
    """EER for every (model, evaluation language) cell, TD and TI separately.

    models: list of (name, train_language, td_params, ti_params).
    eval_sets: list of (language, corpus, trials).
    scorer: callable (td_params, ti_params, corpus, trials) -> ScoreTable,
            normally scoring.score_trials.
    """
    cells: list[MatrixCell] = []
    for name, train_lang, td_params, ti_params in models:
        for eval_lang, corpus, trials in eval_sets:
            try:
                scores = scorer(td_params, ti_params, corpus, trials)
            except Exception as exc:
                raise type(exc)(f"cell (model={name}, eval_lang={eval_lang}): {exc}") from exc
            labels = scores.labels
            for system, column in (("td", scores.td), ("ti", scores.ti)):
                result = compute_eer(column[labels], column[~labels])
                cells.append(MatrixCell(
                    model_name=name, train_language=train_lang, system=system,
                    eval_language=eval_lang, result=result,
                    cross_lingual=train_lang != eval_lang))
    return cells


def save_matrix_csv(path: str, cells: list[MatrixCell]) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["model", "train_lang", "system", "eval_lang",
                         "eer_percent", "cross_lingual"])
        for cell in cells:
            writer.writerow([cell.model_name, cell.train_language, cell.system,
                             cell.eval_language, "%.2f" % (100.0 * cell.result.eer),
                             int(cell.cross_lingual)])
