"""Enrollment aggregation and cosine trial scoring.

TD scores come from keyword segments only; TI scores from the keyword and
query segments concatenated (keyword first).  Enrollment embeddings are
averaged per speaker and renormalized; a zero-mean enrollment is an error
rather than a silent fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import dvector, errors
from .errors import ValidationError
from .synthcorpus import Corpus, TrialList

NORM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class ScoreTable:
    """Scored trials as columns; row i is trial i in trial order.  `ti` is
    None when no TI model scored the trials."""
    speakers: list[str]  # enrollment speaker ids
    utterances: list[str]  # test utterance ids
    labels: np.ndarray  # bool, True for target trials
    td: np.ndarray
    ti: np.ndarray | None = None

    def fusable(self, what: str) -> tuple[int, np.ndarray, np.ndarray]:
        """(target count, td, ti), target rows first: each class is a slice."""
        if self.ti is None:
            raise ValidationError(f"{what} needs a TI score on every trial")
        if not self.labels.any() or self.labels.all():
            raise ValidationError(f"{what} needs both target and nontarget trials")
        order = np.argsort(~self.labels, kind="stable")
        return int(self.labels.sum()), self.td[order], self.ti[order]


def _check_unit(vec: np.ndarray, what: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=np.float64)
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > NORM_TOLERANCE:
        raise ValidationError(f"{what} must be unit-norm (norm={norm!r})")
    return vec


def aggregate_enrollment(embeddings) -> np.ndarray:
    """L2-normalized arithmetic mean of unit-norm enrollment embeddings."""
    if len(embeddings) == 0:
        raise ValidationError("enrollment needs at least one embedding")
    vecs = [_check_unit(e, "enrollment embedding") for e in embeddings]
    mean = np.mean(vecs, axis=0)
    norm = np.linalg.norm(mean)
    if norm < 1e-10:
        raise ValidationError("degenerate enrollment: embeddings cancel to the zero vector")
    return mean / norm


def cosine_score(a: np.ndarray, b: np.ndarray) -> float:
    a = _check_unit(a, "embedding")
    b = _check_unit(b, "embedding")
    return float(a @ b)


def _ti_frames(utt) -> np.ndarray:
    return np.concatenate([utt.keyword, utt.query], axis=0)


def score_trials(td_params: dvector.Parameters, ti_params: dvector.Parameters | None,
                 corpus: Corpus, trials: TrialList) -> ScoreTable:
    """Scores every trial; TI scores are omitted when ti_params is None.

    Embeddings are computed once per utterance and enrollment profiles once
    per (speaker, enrollment set); output order matches trial order.
    """
    td_cache: dict[str, np.ndarray] = {}
    ti_cache: dict[str, np.ndarray] = {}
    profile_cache: dict[tuple, tuple[np.ndarray, np.ndarray | None]] = {}

    def td_embed(uid: str) -> np.ndarray:
        if uid not in td_cache:
            td_cache[uid] = dvector.forward_embedding(td_params, corpus.get(uid).keyword)
        return td_cache[uid]

    def ti_embed(uid: str) -> np.ndarray:
        if uid not in ti_cache:
            ti_cache[uid] = dvector.forward_embedding(ti_params, _ti_frames(corpus.get(uid)))
        return ti_cache[uid]

    td_scores: list[float] = []
    ti_scores: list[float] = []
    for trial in trials:
        key = (trial.enroll_speaker_id, trial.enroll_utterance_ids)
        if key not in profile_cache:
            td_profile = aggregate_enrollment([td_embed(u) for u in trial.enroll_utterance_ids])
            ti_profile = None
            if ti_params is not None:
                ti_profile = aggregate_enrollment([ti_embed(u) for u in trial.enroll_utterance_ids])
            profile_cache[key] = (td_profile, ti_profile)
        td_profile, ti_profile = profile_cache[key]
        td_scores.append(cosine_score(td_profile, td_embed(trial.test_utterance_id)))
        if ti_profile is not None:
            ti_scores.append(cosine_score(ti_profile, ti_embed(trial.test_utterance_id)))
    return ScoreTable(
        speakers=[t.enroll_speaker_id for t in trials],
        utterances=[t.test_utterance_id for t in trials],
        labels=np.array([t.is_target for t in trials], dtype=bool),
        td=np.array(td_scores, dtype=np.float64),
        ti=None if ti_params is None else np.array(ti_scores, dtype=np.float64))


def save_scores(path: str, scores: ScoreTable) -> None:
    """TSV: enroll_speaker, test_utt, label, td_score, ti_score with fixed
    9-decimal formatting for bit-reproducible reports."""
    ti = [None] * len(scores.td) if scores.ti is None else scores.ti.tolist()
    with errors.write_atomic(path) as f:
        for speaker, utt, target, td_score, ti_score in zip(
                scores.speakers, scores.utterances, scores.labels.tolist(),
                scores.td.tolist(), ti):
            label = "tgt" if target else "non"
            ti_text = "NA" if ti_score is None else "%.9f" % ti_score
            f.write(f"{speaker}\t{utt}\t{label}\t{'%.9f' % td_score}\t{ti_text}\n")


def load_scores(path: str) -> ScoreTable:
    """Reads save_scores' TSV; scores must be finite, and the TI column
    must be NA on every line or on none."""
    speakers, utterances, labels, td, ti = [], [], [], [], []
    for lineno, line in enumerate(errors.read_text(path).split("\n"), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 5 or parts[2] not in ("tgt", "non"):
            raise ValidationError(f"{path}:{lineno}: malformed score line")
        try:
            td.append(float(parts[3]))
            if parts[4] != "NA":
                ti.append(float(parts[4]))
        except ValueError:
            raise ValidationError(f"{path}:{lineno}: non-numeric score") from None
        if len(ti) not in (0, len(td)):
            raise ValidationError(
                f"{path}:{lineno}: TI score must be NA on every line or on none")
        if not (math.isfinite(td[-1]) and (not ti or math.isfinite(ti[-1]))):
            raise ValidationError(f"{path}:{lineno}: non-finite score")
        speakers.append(parts[0])
        utterances.append(parts[1])
        labels.append(parts[2] == "tgt")
    return ScoreTable(speakers=speakers, utterances=utterances,
                      labels=np.array(labels, dtype=bool),
                      td=np.array(td, dtype=np.float64),
                      ti=np.array(ti, dtype=np.float64) if ti else None)
