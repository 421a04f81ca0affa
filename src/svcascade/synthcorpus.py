"""Deterministic synthetic multilingual corpus of keyword+query feature sequences.

Generative model: each language gets an isotropic Gaussian shift vector, each
speaker a Gaussian voice vector centered on its language shift, and each frame
is voice vector + sinusoidal content trajectory + white noise.  Keyword
segments share one sinusoid bank across all speakers (per-utterance random
phase); query segments draw per-utterance random frequencies.  Cycle counts
are integers, so the content sums to zero over a segment and the mean frame
of a noise-free utterance is exactly the speaker voice vector.

All randomness comes from numpy's PCG64 generator seeded explicitly; draw
order is fixed (languages, then speakers, then utterances) so equal
(spec, seed) reproduces equal bytes.

A `Corpus` holds what `corpus.npz` holds: the spec, and the keyword and the
query frames as two stacked float32 arrays with a row per utterance in draw
order.  Ids follow from the spec; training, scoring and trials use rows.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import errors
from .errors import CapacityError, NumericError, ValidationError

CONTENT_AMPLITUDE = 1.0
_COUNT_FIELDS = ("languages", "speakers_per_language", "utterances_per_speaker",
                 "keyword_frames", "query_frames", "feature_dim")
_SCALE_FIELDS = ("language_shift_scale", "speaker_scale", "utterance_noise_scale")


@dataclass(frozen=True)
class CorpusSpec:
    languages: int = 4
    speakers_per_language: int = 8
    utterances_per_speaker: int = 6
    keyword_frames: int = 10
    query_frames: int = 30
    feature_dim: int = 16
    language_shift_scale: float = 1.0
    speaker_scale: float = 1.0
    utterance_noise_scale: float = 0.3
    seed: int = 0
    # language id -> utterances per speaker, to mimic uneven per-language data
    utterance_overrides: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _COUNT_FIELDS:
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValidationError(f"corpus spec: {name} must be a count >= 1, got {value}")
        for name in _SCALE_FIELDS:
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValidationError(f"corpus spec: {name} must be a nonnegative real, got {value}")
        for lang, count in self.utterance_overrides.items():
            if lang < 0 or lang >= self.languages:
                raise ValidationError(f"corpus spec: override for unknown language {lang}")
            if count < 1:
                raise ValidationError(f"corpus spec: override count for language {lang} must be >= 1")

    def utterances_for(self, language: int) -> int:
        if not 0 <= language < self.languages:
            raise CapacityError(f"corpus has no language {language}, only 0-{self.languages - 1}")
        return self.utterance_overrides.get(language, self.utterances_per_speaker)

    @property
    def utterance_count(self) -> int:
        """Utterances over all languages: a corpus's row count."""
        return self.speakers_per_language * sum(map(self.utterances_for, range(self.languages)))


@dataclass
class Corpus:
    """The frames of every utterance, a row each, in draw order (see the module docstring)."""
    spec: CorpusSpec
    keyword: np.ndarray  # (utterances, keyword_frames, feature_dim) float32
    query: np.ndarray  # (utterances, query_frames, feature_dim) float32

    def __post_init__(self) -> None:
        speakers = self.speaker_rows(range(self.spec.languages))
        # an utterance id is its speaker's id, then u and its index within the speaker
        self.ids = [f"{sid}u{utt}" for sid, rows in speakers.items() for utt in range(len(rows))]
        self.speaker_ids = [sid for sid, rows in speakers.items() for _ in rows]
        self._rows = {uid: row for row, uid in enumerate(self.ids)}

    def row(self, utterance_id: str) -> int:
        try:
            return self._rows[utterance_id]
        except KeyError:
            raise ValidationError(f"unknown utterance id {utterance_id!r}") from None

    def speaker_rows(self, languages) -> dict[str, range]:
        """The rows of each speaker of `languages`, speakers in row order."""
        out, start = {}, 0
        for lang in range(self.spec.languages):
            count = self.spec.utterances_for(lang)
            for spk in range(self.spec.speakers_per_language):
                if lang in languages:
                    out[f"l{lang}s{spk}"] = range(start, start + count)
                start += count
        return out


@dataclass(frozen=True)
class Trial:
    enroll_speaker_id: str
    enroll_utterance_ids: tuple[str, ...]
    test_utterance_id: str
    is_target: bool


def _segment(rng: np.random.Generator, voice: np.ndarray, frames: int, dim: int,
             cycles: np.ndarray, noise_scale: float) -> np.ndarray:
    phases = rng.uniform(0.0, 2.0 * np.pi, size=dim)
    t = np.arange(frames)[:, None]
    content = CONTENT_AMPLITUDE * np.sin(2.0 * np.pi * cycles[None, :] * t / frames + phases[None, :])
    noise = rng.standard_normal((frames, dim)) * noise_scale
    return voice[None, :] + content + noise


def _keyword_cycles(frames: int, dim: int) -> np.ndarray:
    # shared bank: dimension d runs 1 + (d mod floor(frames/2)) full cycles
    kmax = max(1, frames // 2)
    return 1.0 + (np.arange(dim) % kmax)


@np.errstate(over="ignore", invalid="ignore")  # frames beyond float32 are refused below
def generate_corpus(spec: CorpusSpec) -> Corpus:
    rng = np.random.default_rng(spec.seed)
    dim = spec.feature_dim
    kw_cycles = _keyword_cycles(spec.keyword_frames, dim)
    q_kmax = max(2, spec.query_frames // 2)

    corpus = Corpus(spec, np.empty((spec.utterance_count, spec.keyword_frames, dim), np.float32),
                    np.empty((spec.utterance_count, spec.query_frames, dim), np.float32))
    for lang in range(spec.languages):
        shift = rng.standard_normal(dim) * spec.language_shift_scale
        for rows in corpus.speaker_rows([lang]).values():
            voice = shift + rng.standard_normal(dim) * spec.speaker_scale
            for row in rows:
                corpus.keyword[row] = _segment(rng, voice, spec.keyword_frames, dim,
                                               kw_cycles, spec.utterance_noise_scale)
                q_cycles = rng.integers(1, q_kmax, size=dim).astype(float)
                corpus.query[row] = _segment(rng, voice, spec.query_frames, dim,
                                             q_cycles, spec.utterance_noise_scale)
    if not (np.isfinite(corpus.keyword).all() and np.isfinite(corpus.query).all()):
        scales = ", ".join(f"{name}={getattr(spec, name):g}" for name in _SCALE_FIELDS)
        raise NumericError(f"corpus spec: {scales} put frames beyond float32's range")
    return corpus


def check_capacity(spec: CorpusSpec, nontarget_trials: int, enroll: int,
                   languages: list[int]) -> None:
    """Refuses, as a CapacityError, the split_trials call that a corpus of `spec` cannot serve."""
    for lang in languages:
        if spec.utterances_for(lang) <= enroll:
            raise CapacityError(f"language {lang} has {spec.speakers_per_language} speakers of "
                                f"{spec.utterances_for(lang)} utterances, but enrollment of "
                                f"{enroll} plus at least one test utterance needs {enroll + 1}")
    if not languages:
        raise CapacityError("trials need at least one language")
    if nontarget_trials > 0 and len(languages) * spec.speakers_per_language < 2:
        raise CapacityError(f"nontarget trials need >= 2 speakers, but languages {languages} "
                            f"have {len(languages) * spec.speakers_per_language}")


def split_trials(corpus: Corpus, target_trials: int, nontarget_trials: int,
                 enroll_utterances_per_speaker: int, seed: int,
                 languages: list[int] | None = None) -> list[Trial]:
    """Draw trial lists with per-speaker enrollment sets disjoint from test pools.

    Enrollment utterances are chosen once per speaker; trials pair them with
    test utterances uniformly at random (with replacement across trials).
    Restricting `languages` keeps both sides of every trial inside that set.
    """
    if min(target_trials, nontarget_trials) < 0 or enroll_utterances_per_speaker < 1:
        raise ValidationError("trial counts must be >= 0 and enrollment sets >= 1 utterance")
    languages = list(range(corpus.spec.languages)) if languages is None else languages
    check_capacity(corpus.spec, nontarget_trials, enroll_utterances_per_speaker, languages)
    by_speaker = corpus.speaker_rows(languages)
    speakers = sorted(by_speaker)

    rng = np.random.default_rng(seed)
    enroll: dict[str, tuple[str, ...]] = {}
    test_pool: dict[str, list[str]] = {}
    for s in speakers:
        ids = [corpus.ids[row] for row in by_speaker[s]]
        chosen = rng.choice(len(ids), size=enroll_utterances_per_speaker, replace=False)
        chosen_set = set(int(i) for i in chosen)
        enroll[s] = tuple(ids[i] for i in sorted(chosen_set))
        test_pool[s] = [ids[i] for i in range(len(ids)) if i not in chosen_set]

    trials: list[Trial] = []
    for _ in range(target_trials):
        s = speakers[rng.integers(len(speakers))]
        test = test_pool[s][rng.integers(len(test_pool[s]))]
        trials.append(Trial(s, enroll[s], test, True))
    for _ in range(nontarget_trials):
        i = int(rng.integers(len(speakers)))
        j = int(rng.integers(len(speakers) - 1))
        if j >= i:
            j += 1
        s, other = speakers[i], speakers[j]
        test = test_pool[other][rng.integers(len(test_pool[other]))]
        trials.append(Trial(s, enroll[s], test, False))
    return trials


# --- persistence ------------------------------------------------------------

CORPUS_FILE = "corpus.npz"


def save_corpus(corpus: Corpus, directory: str) -> None:
    """One uncompressed npz: each spec field as a 0-d array, the overrides
    as (language, count) rows, and the corpus's keyword and query arrays.
    It is written under a temporary name and renamed, so an interrupted run
    leaves no corpus file."""
    spec = corpus.spec
    arrays = {**asdict(spec), "utterance_overrides": np.array(
                  sorted(spec.utterance_overrides.items()), dtype=np.int64).reshape(-1, 2),
              "keyword": corpus.keyword.astype("<f4", copy=False),
              "query": corpus.query.astype("<f4", copy=False)}
    errors.write_npz(os.path.join(directory, CORPUS_FILE), arrays)


def load_corpus(directory: str) -> Corpus:
    path = os.path.join(directory, CORPUS_FILE)
    types = {f.name: type(f.default) for f in fields(CorpusSpec) if f.name != "utterance_overrides"}
    arrays = errors.read_npz(path, "corpus", {*types, "utterance_overrides", "keyword", "query"})
    for key, kind in types.items():
        if arrays[key].shape != () or arrays[key].dtype.kind != ("i" if kind is int else "f"):
            raise ValidationError(f"{path}: {key} must be a single {kind.__name__}")
    overrides = arrays["utterance_overrides"]
    if overrides.ndim != 2 or overrides.shape[1] != 2 or overrides.dtype.kind != "i":
        raise ValidationError(f"{path}: utterance_overrides must be (language, count) int rows")
    try:
        spec = CorpusSpec(**{key: arrays[key].item() for key in types},
                          utterance_overrides=dict(overrides.tolist()))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None
    for kind, frames in (("keyword", spec.keyword_frames), ("query", spec.query_frames)):
        arr, shape = arrays[kind], (spec.utterance_count, frames, spec.feature_dim)
        if arr.dtype != np.dtype("<f4") or arr.shape != shape or not np.isfinite(arr).all():
            raise ValidationError(f"{path}: {kind} must be <f4 of shape {shape} with finite "
                                  f"values, got {arr.dtype.str} {arr.shape}")
    return Corpus(spec=spec, keyword=arrays["keyword"], query=arrays["query"])


def save_trials(trials: list[Trial], path: str) -> None:
    errors.write_table(path, ((t.enroll_speaker_id, ",".join(t.enroll_utterance_ids),
                               t.test_utterance_id, "tgt" if t.is_target else "non")
                              for t in trials))


def load_trials(path: str, corpus: Corpus) -> list[Trial]:
    trials = []
    for lineno, speaker, enroll_ids, test_id, label in (
            row for numbers, columns in errors.read_table(path, 4) for row in zip(numbers, *columns)):
        if label not in ("tgt", "non"):
            raise ValidationError(f"{path}:{lineno}: malformed trial line")
        trial = Trial(speaker, tuple(enroll_ids.split(",")), test_id, label == "tgt")
        try:
            enroll = [corpus.row(uid) for uid in trial.enroll_utterance_ids]
            test_speaker = corpus.speaker_ids[corpus.row(trial.test_utterance_id)]
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
        if any(corpus.speaker_ids[row] != trial.enroll_speaker_id for row in enroll):
            raise ValidationError(
                f"{path}:{lineno}: enrollment utterances must be from speaker {speaker}")
        if len(set(trial.enroll_utterance_ids)) != len(trial.enroll_utterance_ids):
            raise ValidationError(f"{path}:{lineno}: enrollment set names an utterance twice")
        if trial.test_utterance_id in trial.enroll_utterance_ids:
            raise ValidationError(f"{path}:{lineno}: test utterance is in its own enrollment set")
        if (test_speaker == trial.enroll_speaker_id) != trial.is_target:
            raise ValidationError(
                f"{path}:{lineno}: label {label} disagrees with test speaker {test_speaker}")
        trials.append(trial)
    return trials
