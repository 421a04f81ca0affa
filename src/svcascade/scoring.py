"""Enrollment aggregation and cosine trial scoring.

TD scores come from keyword segments only; TI scores from the keyword and
query segments concatenated (keyword first).  Enrollment embeddings are
averaged per speaker and renormalized; a zero-mean enrollment is an error
rather than a silent fallback.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import dvector, errors, ge2e
from .errors import ValidationError
from .synthcorpus import Corpus, Trial

NORM_TOLERANCE = 1e-4


@dataclass(frozen=True)
class ScoreTable:
    """Scored trials as columns; row i is trial i in trial order."""
    speakers: list[str]  # enrollment speaker ids
    utterances: list[str]  # test utterance ids
    labels: np.ndarray  # bool, True for target trials
    td: np.ndarray
    ti: np.ndarray


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


_SCORE_BATCH = 32  # utterances per forward_batch call, so peak RSS does not grow with the trials


def system_scores(params: dvector.Parameters, segment: str, corpus: Corpus,
                  trials: list[Trial]) -> np.ndarray:
    """One system's cosine score of every trial, in trial order.

    Each distinct utterance is embedded once, in batches of at most
    _SCORE_BATCH, and each (speaker, enrollment set) profile is built once.
    """
    ids = sorted({u for t in trials for u in (*t.enroll_utterance_ids, t.test_utterance_id)})
    emb = np.zeros((len(ids), params.spec.output_dim))
    for start in range(0, len(ids), _SCORE_BATCH):
        rows = [corpus.row(u) for u in ids[start:start + _SCORE_BATCH]]
        emb[start:start + len(rows)] = dvector.forward_batch(
            params, ge2e.segment_frames(corpus, rows, segment))[0]
    norms = np.linalg.norm(emb, axis=1)
    if np.any(np.abs(norms - 1.0) > NORM_TOLERANCE):
        worst = norms[np.argmax(np.abs(norms - 1.0))]
        raise ValidationError(f"embeddings must be unit-norm (norm={worst!r})")
    row = {uid: i for i, uid in enumerate(ids)}
    tests = emb[[row[t.test_utterance_id] for t in trials]]
    enrolled = np.empty_like(tests)
    profiles: dict[tuple, np.ndarray] = {}
    for i, t in enumerate(trials):
        key = (t.enroll_speaker_id, t.enroll_utterance_ids)
        if key not in profiles:
            profiles[key] = aggregate_enrollment(emb[[row[u] for u in t.enroll_utterance_ids]])
        enrolled[i] = profiles[key]
    return np.einsum("ij,ij->i", enrolled, tests)


def score_trials(td_params: dvector.Parameters, ti_params: dvector.Parameters,
                 corpus: Corpus, trials: list[Trial]) -> ScoreTable:
    """Scores every trial: TD on the keyword, TI on keyword + query."""
    return ScoreTable(
        speakers=[t.enroll_speaker_id for t in trials],
        utterances=[t.test_utterance_id for t in trials],
        labels=np.array([t.is_target for t in trials], dtype=bool),
        td=system_scores(td_params, ge2e.SEGMENT_KEYWORD, corpus, trials),
        ti=system_scores(ti_params, ge2e.SEGMENT_KEYWORD_QUERY, corpus, trials))


def save_scores(path: str, scores: ScoreTable) -> None:
    """TSV: enroll_speaker, test_utt, label, td_score, ti_score with fixed
    9-decimal formatting for bit-reproducible reports."""
    errors.write_table(path, zip(
        scores.speakers, scores.utterances, ["tgt" if t else "non" for t in scores.labels.tolist()],
        ["%.9f" % s for s in scores.td.tolist()], ["%.9f" % s for s in scores.ti.tolist()]))


def _score_columns(labels: list[str], td: list[str], ti: list[str]) -> tuple:
    """Target flags, td and ti of some lines' columns, checked as one line is."""
    if labels.count("tgt") + labels.count("non") < len(labels):
        raise ValidationError("malformed score line")
    try:
        td_col, ti_col = (np.fromiter(map(float, column), np.float64) for column in (td, ti))
    except ValueError:
        raise ValidationError("non-numeric score") from None
    if not (np.isfinite(td_col).all() and np.isfinite(ti_col).all()):
        raise ValidationError("non-finite score")
    # every label is "tgt" or "non", so every third character is its first
    return np.frombuffer("".join(labels)[::3].encode(), "S1") == b"t", td_col, ti_col


_last: tuple[str, ScoreTable] | None = None  # the text load_scores parsed last, and its table


def load_scores(path: str) -> ScoreTable:
    """Reads save_scores' TSV; both scores of every line must be finite numbers.
    A file that holds the text parsed last is not parsed again: the tables share
    read-only arrays, and each caller gets lists of its own."""
    global _last
    text = errors.read_text(path)
    if _last is None or _last[0] != text:
        _last = text, _parse_scores(path, text)
    table = _last[1]
    return replace(table, speakers=list(table.speakers), utterances=list(table.utterances))


def _parse_scores(path: str, text: str) -> ScoreTable:
    speakers, utterances = [], []
    labels, td, ti = [np.zeros(0, bool)], [np.zeros(0)], [np.zeros(0)]
    for numbers, (spk, utt, *scored) in errors.read_table(path, 5, text=text):
        try:
            block = _score_columns(*scored)
        except ValidationError:  # the first bad line, checked on its own, names the error
            for i, lineno in enumerate(numbers):
                try:
                    _score_columns(*(column[i:i + 1] for column in scored))
                except ValidationError as exc:
                    raise ValidationError(f"{path}:{lineno}: {exc}") from None
            raise
        speakers += spk
        utterances += utt
        for column, part in zip((labels, td, ti), block):
            column.append(part)
    columns = [np.concatenate(column) for column in (labels, td, ti)]
    for column in columns:
        column.flags.writeable = False
    return ScoreTable(speakers, utterances, *columns)
