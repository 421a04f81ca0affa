"""Experiment configuration: flat `section.key=value` files with a fixed
schema, strict parsing (unknown or duplicate keys are errors with line
numbers), and documented defaults for every key.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dvector import NetworkSpec
from .errors import ValidationError
from .fusion import FusionWeight
from .ge2e import LOSS_KINDS, TrainConfig
from .synthcorpus import CorpusSpec


def _positive_int(v: str) -> int:
    n = int(v)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _positive_float(v: str) -> float:
    x = float(v)
    if not x > 0:
        raise ValueError("must be > 0")
    return x


def _nonneg_float(v: str) -> float:
    x = float(v)
    if x < 0:
        raise ValueError("must be >= 0")
    return x


def _loss_kind(v: str) -> str:
    if v not in LOSS_KINDS:
        raise ValueError(f"must be one of {LOSS_KINDS}")
    return v


# key -> (parser, default as string)
SCHEMA: dict[str, tuple] = {
    "paths.corpus_dir": (str, "corpus"),
    "paths.checkpoint_dir": (str, "checkpoints"),
    "paths.score_dir": (str, "scores"),
    "paths.report_dir": (str, "reports"),

    "corpus.languages": (_positive_int, "4"),
    "corpus.speakers_per_language": (_positive_int, "8"),
    "corpus.utterances_per_speaker": (_positive_int, "6"),
    "corpus.keyword_frames": (_positive_int, "10"),
    "corpus.query_frames": (_positive_int, "30"),
    "corpus.feature_dim": (_positive_int, "16"),
    "corpus.language_shift_scale": (_nonneg_float, "1.0"),
    "corpus.speaker_scale": (_nonneg_float, "1.0"),
    "corpus.utterance_noise_scale": (_nonneg_float, "0.8"),
    "corpus.seed": (int, "0"),
    "corpus.overrides": (str, ""),  # lang:count comma list

    "trials.targets": (_positive_int, "300"),
    "trials.nontargets": (_positive_int, "300"),
    "trials.enroll_per_speaker": (_positive_int, "3"),
    "trials.seed": (int, "100"),

    "network.td.num_layers": (_positive_int, "3"),
    "network.td.cells": (_positive_int, "16"),
    "network.td.projection_dim": (_positive_int, "8"),
    "network.td.output_dim": (_positive_int, "8"),
    "network.ti.num_layers": (_positive_int, "3"),
    "network.ti.cells": (_positive_int, "32"),
    "network.ti.projection_dim": (_positive_int, "16"),
    "network.ti.output_dim": (_positive_int, "16"),

    "train.td.batch_n": (_positive_int, "4"),
    "train.td.batch_m": (_positive_int, "3"),
    "train.td.steps": (_positive_int, "300"),
    "train.td.learning_rate": (float, "0.01"),
    "train.td.clip_norm": (float, "3.0"),
    "train.td.loss_kind": (_loss_kind, "softmax"),
    "train.td.language_weights": (str, ""),  # lang:weight comma list; empty = uniform
    "train.td.seed": (int, "1"),
    "train.ti.batch_n": (_positive_int, "4"),
    "train.ti.batch_m": (_positive_int, "3"),
    "train.ti.steps": (_positive_int, "300"),
    "train.ti.learning_rate": (float, "0.01"),
    "train.ti.clip_norm": (float, "3.0"),
    "train.ti.loss_kind": (_loss_kind, "softmax"),
    "train.ti.language_weights": (str, ""),
    "train.ti.seed": (int, "2"),

    "fusion.grid_step": (float, "0.01"),

    "triage.lower": (float, "0.23"),
    "triage.upper": (float, "0.65"),
    "triage.alpha": (str, "sweep"),  # "sweep" or a float in [0, 1]
    "triage.band_min": (float, "-1.0"),
    "triage.band_max": (float, "1.0"),
    "triage.band_step": (float, "0.02"),
    "triage.priors": (str, "0,0.5,1"),

    "cost.keyword_seconds": (_positive_float, "0.7"),
    "cost.query_seconds": (_positive_float, "3.0"),

    "xeval.languages": (str, ""),  # comma list of language ids; empty = all
}


@dataclass
class ExperimentConfig:
    raw: dict[str, str]
    corpus_dir: str
    checkpoint_dir: str
    score_dir: str
    report_dir: str
    corpus_spec: CorpusSpec
    td_network: NetworkSpec
    ti_network: NetworkSpec
    td_train: TrainConfig
    ti_train: TrainConfig
    trial_targets: int
    trial_nontargets: int
    enroll_per_speaker: int
    trial_seed: int
    fusion_grid_step: float
    triage_lower: float
    triage_upper: float
    triage_alpha: str
    band_min: float
    band_max: float
    band_step: float
    priors: list[float]
    keyword_seconds: float
    query_seconds: float
    xeval_languages: list[int]

    def fixed_alpha(self) -> FusionWeight | None:
        """The configured fusion weight, or None when alpha comes from the sweep."""
        if self.triage_alpha == "sweep":
            return None
        return FusionWeight(float(self.triage_alpha))


def _parse_overrides(text: str) -> dict[int, int]:
    overrides = {}
    if not text:
        return overrides
    for item in text.split(","):
        lang, _, count = item.partition(":")
        try:
            overrides[int(lang)] = int(count)
        except ValueError:
            raise ValidationError(f"corpus.overrides entry {item!r} is not lang:count") from None
    return overrides


def parse_language_weights(text: str, languages: int) -> dict[int, float]:
    if not text:
        return {lang: 1.0 for lang in range(languages)}
    weights = {}
    for item in text.split(","):
        lang, _, w = item.partition(":")
        try:
            weights[int(lang)] = float(w)
        except ValueError:
            raise ValidationError(f"language_weights entry {item!r} is not lang:weight") from None
    return weights


def _read_flat_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = open(path).read().splitlines()
    except OSError as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from None
    for lineno, line in enumerate(lines, 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected key=value")
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ValidationError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _train_config(raw: dict[str, str], prefix: str, languages: int) -> TrainConfig:
    return TrainConfig(
        batch_n=int(raw[f"{prefix}.batch_n"]),
        batch_m=int(raw[f"{prefix}.batch_m"]),
        steps=int(raw[f"{prefix}.steps"]),
        learning_rate=float(raw[f"{prefix}.learning_rate"]),
        clip_norm=float(raw[f"{prefix}.clip_norm"]),
        loss_kind=raw[f"{prefix}.loss_kind"],
        language_weights=parse_language_weights(raw[f"{prefix}.language_weights"], languages),
        seed=int(raw[f"{prefix}.seed"]),
    )


def parse_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Loads, defaults, types and validates a config file.

    A seed override replaces corpus.seed and shifts the trial/train seeds by
    documented offsets (trials +100, TD +1, TI +2) so one flag reseeds the
    whole experiment deterministically.
    """
    provided = _read_flat_file(path)
    raw: dict[str, str] = {}
    for key, (parser, default) in SCHEMA.items():
        text = provided.get(key, default)
        try:
            parser(text)
        except ValueError as exc:
            raise ValidationError(f"config key {key}={text!r}: {exc}") from None
        raw[key] = text

    if seed_override is not None:
        raw["corpus.seed"] = str(seed_override)
        raw["trials.seed"] = str(seed_override + 100)
        raw["train.td.seed"] = str(seed_override + 1)
        raw["train.ti.seed"] = str(seed_override + 2)

    languages = int(raw["corpus.languages"])
    corpus_spec = CorpusSpec(
        languages=languages,
        speakers_per_language=int(raw["corpus.speakers_per_language"]),
        utterances_per_speaker=int(raw["corpus.utterances_per_speaker"]),
        keyword_frames=int(raw["corpus.keyword_frames"]),
        query_frames=int(raw["corpus.query_frames"]),
        feature_dim=int(raw["corpus.feature_dim"]),
        language_shift_scale=float(raw["corpus.language_shift_scale"]),
        speaker_scale=float(raw["corpus.speaker_scale"]),
        utterance_noise_scale=float(raw["corpus.utterance_noise_scale"]),
        seed=int(raw["corpus.seed"]),
        utterance_overrides=_parse_overrides(raw["corpus.overrides"]),
    )
    corpus_spec.validate()

    def network(prefix: str) -> NetworkSpec:
        spec = NetworkSpec(
            input_dim=corpus_spec.feature_dim,
            num_layers=int(raw[f"{prefix}.num_layers"]),
            cells=int(raw[f"{prefix}.cells"]),
            projection_dim=int(raw[f"{prefix}.projection_dim"]),
            output_dim=int(raw[f"{prefix}.output_dim"]),
        )
        spec.validate()
        return spec

    td_train = _train_config(raw, "train.td", languages)
    ti_train = _train_config(raw, "train.ti", languages)
    td_train.validate()
    ti_train.validate()

    lower, upper = float(raw["triage.lower"]), float(raw["triage.upper"])
    if lower > upper:
        raise ValidationError(f"triage.lower {lower} > triage.upper {upper}")
    alpha_text = raw["triage.alpha"]
    if alpha_text != "sweep":
        try:
            FusionWeight(float(alpha_text)).validate()
        except ValueError:
            raise ValidationError(f"triage.alpha must be 'sweep' or a float, got {alpha_text!r}") from None
    step = float(raw["fusion.grid_step"])
    if not (0 < step <= 0.5):
        raise ValidationError(f"fusion.grid_step must be in (0, 0.5], got {step}")
    if float(raw["triage.band_step"]) <= 0:
        raise ValidationError("triage.band_step must be positive")
    if float(raw["triage.band_min"]) >= float(raw["triage.band_max"]):
        raise ValidationError("triage.band_min must be below triage.band_max")
    try:
        priors = [float(p) for p in raw["triage.priors"].split(",") if p.strip() != ""]
    except ValueError:
        raise ValidationError(f"triage.priors must be a comma list of floats") from None
    if not priors or any(not 0 <= p <= 1 for p in priors):
        raise ValidationError("triage.priors must be nonempty values in [0, 1]")
    if raw["xeval.languages"]:
        try:
            xeval_languages = [int(x) for x in raw["xeval.languages"].split(",")]
        except ValueError:
            raise ValidationError("xeval.languages must be a comma list of ints") from None
        bad = [x for x in xeval_languages if not 0 <= x < languages]
        if bad:
            raise ValidationError(f"xeval.languages out of range: {bad}")
    else:
        xeval_languages = list(range(languages))

    return ExperimentConfig(
        raw=raw,
        corpus_dir=raw["paths.corpus_dir"],
        checkpoint_dir=raw["paths.checkpoint_dir"],
        score_dir=raw["paths.score_dir"],
        report_dir=raw["paths.report_dir"],
        corpus_spec=corpus_spec,
        td_network=network("network.td"),
        ti_network=network("network.ti"),
        td_train=td_train,
        ti_train=ti_train,
        trial_targets=int(raw["trials.targets"]),
        trial_nontargets=int(raw["trials.nontargets"]),
        enroll_per_speaker=int(raw["trials.enroll_per_speaker"]),
        trial_seed=int(raw["trials.seed"]),
        fusion_grid_step=step,
        triage_lower=lower,
        triage_upper=upper,
        triage_alpha=alpha_text,
        band_min=float(raw["triage.band_min"]),
        band_max=float(raw["triage.band_max"]),
        band_step=float(raw["triage.band_step"]),
        priors=priors,
        keyword_seconds=float(raw["cost.keyword_seconds"]),
        query_seconds=float(raw["cost.query_seconds"]),
        xeval_languages=xeval_languages,
    )
