"""Experiment configuration: flat `section.key=value` files with a fixed
schema, strict parsing (unknown or duplicate keys are errors with line
numbers), and documented defaults for every key.

Each value is parsed once, by its schema parser, into the type the stages
use.  Range rules that a stage owns (spec shapes, training settings, the
fusion and band grids, the triage band, the cost model) are checked at
parse time by building that stage's own types and grids, which the config
then hands to the stages.  The corpus shape that trial splitting and
training batches need, and the embedding size that training needs, are
checked by the checks of `synthcorpus` and `ge2e` that `split_trials` and
`train` make, so a config that parses is one every stage accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from . import dvector, errors, ge2e, synthcorpus
from .errors import ValidationError
from .fusion import FusionWeight, alpha_grid
from .triage import CostModel, TriagePolicy, band_grid


def _count(v: str) -> int:
    n = int(v)
    if n < 1:
        raise ValueError("must be >= 1")
    return n


def _seed(v: str) -> int:
    n = int(v)
    if n < 0:
        raise ValueError("must be >= 0")
    return n


def _real(v: str) -> float:
    x = float(v)
    if not math.isfinite(x):
        raise ValueError("must be a finite number")
    return x


def _path(v: str) -> str:
    if not v:
        raise ValueError("must not be empty")
    return v


def _sweep_or(parse):
    """Parser for `sweep` (None: a sweep's file gives the value) or a value of `parse`."""
    return lambda v: None if v == "sweep" else parse(v)


def _priors(v: str) -> list[float]:
    priors = [float(p) for p in v.split(",") if p.strip() != ""]
    if not priors or any(not 0 <= p <= 1 for p in priors):
        raise ValueError("must be a nonempty comma list of values in [0, 1]")
    return priors


def _ids(v: str) -> list[int]:
    ids = [int(x) for x in v.split(",")] if v else []
    if len(set(ids)) != len(ids):
        raise ValueError("names a language twice")
    return ids


def _lang_map(value):
    """Parser for a `lang:value` comma list into {language id: value}."""
    def parse(v: str) -> dict:
        out = {}
        for item in v.split(",") if v else []:
            lang, _, x = item.partition(":")
            try:
                lang_id, parsed = int(lang), value(x)
            except ValueError as exc:
                raise ValueError(f"entry {item!r} (lang:value): {exc}") from None
            if lang_id in out:
                raise ValueError(f"names language {lang_id} twice")
            out[lang_id] = parsed
        return out
    return parse


# key -> (parser, default as string)
SCHEMA: dict[str, tuple] = {
    "paths.corpus_dir": (_path, "corpus"),
    "paths.checkpoint_dir": (_path, "checkpoints"),
    "paths.score_dir": (_path, "scores"),
    "paths.report_dir": (_path, "reports"),

    "corpus.languages": (_count, "4"),
    "corpus.speakers_per_language": (_count, "8"),
    "corpus.utterances_per_speaker": (_count, "6"),
    "corpus.keyword_frames": (_count, "10"),
    "corpus.query_frames": (_count, "30"),
    "corpus.feature_dim": (_count, "16"),
    "corpus.language_shift_scale": (_real, "1.0"),
    "corpus.speaker_scale": (_real, "1.0"),
    "corpus.utterance_noise_scale": (_real, "0.8"),
    "corpus.seed": (_seed, "0"),
    "corpus.overrides": (_lang_map(int), ""),  # lang:count comma list

    "trials.targets": (_count, "300"),
    "trials.nontargets": (_count, "300"),
    "trials.enroll_per_speaker": (_count, "3"),
    "trials.seed": (_seed, "100"),

    "network.td.num_layers": (_count, "3"),
    "network.td.cells": (_count, "16"),
    "network.td.projection_dim": (_count, "8"),
    "network.td.output_dim": (_count, "8"),
    "network.ti.num_layers": (_count, "3"),
    "network.ti.cells": (_count, "32"),
    "network.ti.projection_dim": (_count, "16"),
    "network.ti.output_dim": (_count, "16"),

    "train.td.batch_n": (_count, "4"),
    "train.td.batch_m": (_count, "3"),
    "train.td.steps": (_count, "300"),
    "train.td.learning_rate": (_real, "0.01"),
    "train.td.language_weights": (_lang_map(_real), ""),  # lang:weight; empty = uniform
    "train.td.seed": (_seed, "1"),
    "train.ti.batch_n": (_count, "4"),
    "train.ti.batch_m": (_count, "3"),
    "train.ti.steps": (_count, "300"),
    "train.ti.learning_rate": (_real, "0.01"),
    "train.ti.language_weights": (_lang_map(_real), ""),
    "train.ti.seed": (_seed, "2"),

    "fusion.grid_step": (_real, "0.01"),

    "triage.lower": (_sweep_or(_real), "sweep"),  # both "sweep", or floats in [-1, 1]
    "triage.upper": (_sweep_or(_real), "sweep"),
    "triage.alpha": (_sweep_or(lambda v: FusionWeight(_real(v))), "sweep"),  # or a float in [0, 1]
    "triage.band_min": (_real, "-1.0"),
    "triage.band_max": (_real, "1.0"),
    "triage.band_step": (_real, "0.02"),
    "triage.priors": (_priors, "0,0.5,1"),

    "cost.keyword_seconds": (_real, "0.7"),
    "cost.query_seconds": (_real, "3.0"),

    "xeval.languages": (_ids, ""),  # comma list of language ids; empty = all
}


@dataclass(frozen=True)
class ExperimentConfig:
    corpus_dir: str
    checkpoint_dir: str
    score_dir: str
    report_dir: str
    corpus_spec: synthcorpus.CorpusSpec
    td_network: dvector.NetworkSpec
    ti_network: dvector.NetworkSpec
    td_train: ge2e.TrainConfig
    ti_train: ge2e.TrainConfig
    trial_targets: int
    trial_nontargets: int
    enroll_per_speaker: int
    trial_seed: int
    alphas: list[float]  # the fusion sweep's alpha grid
    fixed_band: tuple[float, float] | None  # None: the band comes from the band sweep
    fixed_alpha: FusionWeight | None  # None: alpha comes from the fusion sweep
    bands: tuple[float, ...]  # the band sweep's grid
    priors: list[float]
    cost: CostModel
    xeval_languages: list[int]

    @property
    def keyword_seconds(self) -> float:
        return self.cost.keyword_seconds

    @property
    def query_seconds(self) -> float:
        return self.cost.query_seconds


def _read_flat_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        lines = errors.read_text(path).split("\n")  # not splitlines: a form feed ends no line
    except ValidationError as exc:
        if not isinstance(exc.__cause__, OSError):
            raise
        raise ValidationError(f"cannot read config {path}: {exc.__cause__}") from None
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


def _check(what: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, a stage's type, grid or check, naming the config keys it refuses."""
    try:
        return make(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"config {what}: {exc}") from None


def parse_config(path: str, seed_override: int | None = None) -> ExperimentConfig:
    """Loads, defaults, types and validates a config file.

    A seed override replaces corpus.seed and shifts the trial/train seeds by
    documented offsets (trials +100, TD +1, TI +2) so one flag reseeds the
    whole experiment deterministically.
    """
    provided = _read_flat_file(path)
    values = {}
    for key, (parser, default) in SCHEMA.items():
        text = provided.get(key, default)
        try:
            values[key] = parser(text)
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"config key {key}={text!r}: {exc}") from None

    if seed_override is not None:
        if seed_override < 0:
            raise ValidationError(f"--seed must be >= 0, got {seed_override}")
        values.update({"corpus.seed": seed_override, "trials.seed": seed_override + 100,
                       "train.td.seed": seed_override + 1, "train.ti.seed": seed_override + 2})

    def build(cls, section: str, **named):
        """A `cls` whose fields are the `section.<field>` keys, except `named`."""
        return _check(section, cls, **{f.name: values[f"{section}.{f.name}"] for f in fields(cls)
                                       if f.name not in named}, **named)

    corpus_spec = build(synthcorpus.CorpusSpec, "corpus",
                        utterance_overrides=values["corpus.overrides"])
    languages = corpus_spec.languages
    networks = {s: build(dvector.NetworkSpec, f"network.{s}", input_dim=corpus_spec.feature_dim)
                for s in ("td", "ti")}
    trains = {s: build(ge2e.TrainConfig, f"train.{s}", language_weights=(
                  values[f"train.{s}.language_weights"] or dict.fromkeys(range(languages), 1.0)))
              for s in ("td", "ti")}
    xeval_languages = values["xeval.languages"] or list(range(languages))
    lower, upper, alpha = values["triage.lower"], values["triage.upper"], values["triage.alpha"]

    for key, ids in (("train.td.language_weights", trains["td"].language_weights),
                     ("train.ti.language_weights", trains["ti"].language_weights),
                     ("xeval.languages", xeval_languages)):
        bad = [lang for lang in ids if not 0 <= lang < languages]
        if bad:
            raise ValidationError(f"config {key}: languages {bad} not in [0, {languages})")
    shape = "corpus.speakers_per_language, corpus.utterances_per_speaker, corpus.overrides"
    for lang in range(languages):  # gen-data splits each language on its own
        _check(f"trials.enroll_per_speaker, {shape}", synthcorpus.check_capacity, corpus_spec,
               values["trials.nontargets"], values["trials.enroll_per_speaker"], [lang])
    for s, train in trains.items():  # xeval trains a model on each of its languages
        _check(f"network.{s}.output_dim, train.{s}.batch_n/batch_m, {shape}", ge2e.check_capacity,
               corpus_spec, networks[s], train, sorted({*train.languages, *xeval_languages}))
    alphas = _check("fusion.grid_step", alpha_grid, values["fusion.grid_step"])
    bands = _check("triage.band_*", band_grid,
                   values["triage.band_min"], values["triage.band_max"], values["triage.band_step"])
    if (lower is None) != (upper is None):
        raise ValidationError("config triage.lower, triage.upper: both sweep or both numbers")
    if lower is not None:  # a swept alpha lies on the [0, 1] grid, so any weight stands in for it
        _check("triage.lower/upper", TriagePolicy, lower, upper, alpha or FusionWeight(0.0))
    kw = corpus_spec.keyword_frames
    cost = _check("cost.keyword_seconds, cost.query_seconds", CostModel,
                  values["cost.keyword_seconds"], values["cost.query_seconds"],
                  dvector.flops_per_utterance(networks["td"], kw),
                  dvector.flops_per_utterance(networks["ti"], kw + corpus_spec.query_frames))

    return ExperimentConfig(
        corpus_dir=values["paths.corpus_dir"],
        checkpoint_dir=values["paths.checkpoint_dir"],
        score_dir=values["paths.score_dir"],
        report_dir=values["paths.report_dir"],
        corpus_spec=corpus_spec,
        td_network=networks["td"],
        ti_network=networks["ti"],
        td_train=trains["td"],
        ti_train=trains["ti"],
        trial_targets=values["trials.targets"],
        trial_nontargets=values["trials.nontargets"],
        enroll_per_speaker=values["trials.enroll_per_speaker"],
        trial_seed=values["trials.seed"],
        alphas=alphas,
        fixed_band=None if lower is None else (lower, upper),
        fixed_alpha=alpha,
        bands=tuple(bands.tolist()),
        priors=values["triage.priors"],
        cost=cost,
        xeval_languages=xeval_languages,
    )
