import csv
import os
import subprocess
import sys
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade import cli, dvector, fusion, ge2e, metrics, scoring, synthcorpus, triage
from svcascade.config import parse_config
from svcascade.dvector import NetworkSpec
from svcascade.errors import CapacityError, ValidationError
from svcascade.frontend import RAW_MEL, FeatureSequence, Waveform
from svcascade.metrics import compute_eer
from svcascade.triage import CostModel, TriagePolicy


def write_config(path, workdir, **overrides):
    """A deliberately tiny experiment so the whole pipeline runs in seconds."""
    values = {
        "paths.corpus_dir": os.path.join(workdir, "corpus"),
        "paths.checkpoint_dir": os.path.join(workdir, "checkpoints"),
        "paths.score_dir": os.path.join(workdir, "scores"),
        "paths.report_dir": os.path.join(workdir, "reports"),
        "corpus.languages": "2",
        "corpus.speakers_per_language": "5",
        "corpus.utterances_per_speaker": "5",
        "corpus.keyword_frames": "8",
        "corpus.query_frames": "16",
        "corpus.utterance_noise_scale": "0.5",
        "trials.targets": "40",
        "trials.nontargets": "40",
        "train.td.steps": "40",
        "train.ti.steps": "40",
        "fusion.grid_step": "0.25",
        "triage.band_step": "0.5",
    }
    values.update(overrides)
    with open(path, "w") as f:
        f.write("# desk-scale smoke experiment\n")
        for k, v in values.items():
            f.write(f"{k} = {v}\n")
    return path


def test_defaults_from_empty_file(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("# nothing here\n\n")
    cfg = parse_config(str(path))
    assert cfg.corpus_spec.languages == 4
    assert cfg.corpus_spec.feature_dim == 16
    assert cfg.td_network.cells == 16 and cfg.ti_network.cells == 32
    assert cfg.td_train.seed == 1 and cfg.ti_train.seed == 2
    assert cfg.fixed_band is None and cfg.fixed_alpha is None  # both come from the sweeps
    assert cfg.priors == [0.0, 0.5, 1.0]
    assert cfg.keyword_seconds == 0.7 and cfg.query_seconds == 3.0


@pytest.mark.parametrize("cls, good, bad, message", [
    pytest.param(NetworkSpec, dict(input_dim=16, num_layers=3, cells=16, projection_dim=8,
                                   output_dim=8), {"cells": 0}, "cells must be a positive count",
                 id="network-spec"),
    pytest.param(synthcorpus.CorpusSpec, {}, {"speaker_scale": float("nan")},
                 "speaker_scale must be a nonnegative real", id="corpus-spec"),
    pytest.param(ge2e.TrainConfig, {"language_weights": {0: 1.0}}, {"learning_rate": 0.0},
                 "learning_rate must be positive", id="train-config"),
    pytest.param(fusion.FusionWeight, {"alpha": 0.5}, {"alpha": 1.5},
                 "fusion weight must be in", id="fusion-weight"),
    pytest.param(TriagePolicy, dict(lower=0.2, upper=0.6, alpha=fusion.FusionWeight(0.5)),
                 {"lower": 0.7}, "triage band must satisfy", id="triage-policy"),
    pytest.param(CostModel, dict(keyword_seconds=0.7, query_seconds=3.0, td_flops=1, ti_flops=1),
                 {"query_seconds": 0.0}, "durations must be positive", id="cost-model"),
    pytest.param(Waveform, {"samples": np.zeros(400)}, {"sample_rate_hz": 8000},
                 "expected 16000 Hz", id="waveform"),
    pytest.param(FeatureSequence, dict(frames=np.zeros((2, 40)), kind=RAW_MEL),
                 {"frames": np.full((2, 40), np.nan)}, "non-finite feature values",
                 id="feature-sequence"),
])
def test_stage_types_refuse_bad_values_when_built(cls, good, bad, message):
    """Every object of a stage type is valid, whether built or copied by `replace`."""
    with pytest.raises(ValidationError, match=message):
        cls(**{**good, **bad})
    with pytest.raises(ValidationError, match=message):
        replace(cls(**good), **bad)


def test_desk_cfg_spells_out_the_defaults(tmp_path):
    path = tmp_path / "empty.cfg"
    path.write_text("")
    desk = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "desk.cfg")
    assert parse_config(desk) == parse_config(str(path))


@pytest.mark.parametrize("rel", ["configs/desk.cfg", "perfbench/inputs/desk.cfg",
                                 "perfbench/inputs/wide.cfg"])
def test_checked_in_configs_parse(rel):
    """The benchmark runs its inputs as they are, so a config-key change
    that breaks one of them must fail here first."""
    parse_config(os.path.join(os.path.dirname(__file__), os.pardir, rel))


def test_seed_override_shifts_all_seeds(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("")
    cfg = parse_config(str(path), seed_override=42)
    assert cfg.corpus_spec.seed == 42
    assert cfg.trial_seed == 142
    assert cfg.td_train.seed == 43
    assert cfg.ti_train.seed == 44


def test_fixed_alpha_parsed(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("triage.alpha = 0.3\n")
    assert parse_config(str(path)).fixed_alpha.alpha == 0.3
    path.write_text("triage.alpha = nonsense\n")
    with pytest.raises(ValidationError, match="triage.alpha"):
        parse_config(str(path))


def test_fixed_band_parsed(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("triage.lower = -0.5\ntriage.upper = 0.25\n")
    assert parse_config(str(path)).fixed_band == (-0.5, 0.25)


def test_band_order_validated(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("triage.lower = 0.8\ntriage.upper = 0.2\n")
    with pytest.raises(ValidationError, match="lower"):
        parse_config(str(path))


def test_unknown_key_reports_line_number(tmp_path):
    """A made-up key, and a retired one: GE2E has one loss, so no key picks it."""
    path = tmp_path / "c.cfg"
    for line, key in (("corpus.bogus = 1", "bogus"), ("train.td.loss_kind = softmax", "loss_kind")):
        path.write_text(f"corpus.languages = 2\n{line}\n")
        with pytest.raises(ValidationError, match=rf"c.cfg:2: unknown key .*{key}"):
            parse_config(str(path))


@pytest.mark.parametrize("brk", ["\x0c", "\x85", "\u2028"],
                         ids=["form-feed", "next-line", "line-separator"])
def test_only_newlines_end_config_lines(tmp_path, brk):
    """str.splitlines would also break a comment at these, and parse its tail."""
    path = tmp_path / "c.cfg"
    text = f"# note{brk} here\ncorpus.languages = 3\n"
    path.write_text(text, encoding="utf-8")
    assert parse_config(str(path)).corpus_spec.languages == 3
    for tail, error in (("bad line\n", "expected key=value"), ("\udcff\n", "not UTF-8 text")):
        path.write_bytes((text + tail).encode("utf-8", "surrogateescape"))
        with pytest.raises(ValidationError, match=rf"c\.cfg:3: {error}$"):
            parse_config(str(path))


def test_duplicate_key_reports_line_number(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("corpus.seed = 1\n\ncorpus.seed = 2\n")
    with pytest.raises(ValidationError, match=r"c.cfg:3.*duplicate"):
        parse_config(str(path))


def test_bad_value_names_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("corpus.languages = 0\n")
    with pytest.raises(ValidationError, match="corpus.languages"):
        parse_config(str(path))


def test_cost_durations_must_be_positive(tmp_path):
    path = tmp_path / "c.cfg"
    for text, key in (("cost.keyword_seconds = 0\n", "cost.keyword_seconds"),
                      ("cost.query_seconds = -1\n", "cost.query_seconds")):
        path.write_text(text)
        with pytest.raises(ValidationError, match=key):
            parse_config(str(path))


@pytest.mark.parametrize("key, value, seed, named", [
    pytest.param("corpus.seed", "-1", None, "corpus.seed", id="corpus-seed"),
    pytest.param("trials.seed", "-200", None, "trials.seed", id="trials-seed"),
    pytest.param(None, None, -5, "--seed", id="seed-flag"),
    pytest.param("paths.corpus_dir", "", None, "paths.corpus_dir", id="empty-path"),
    pytest.param("triage.band_min", "nan", None, "triage.band_min", id="band-nan"),
    pytest.param({"triage.lower": "-2", "triage.upper": "0.5"}, None, None, "triage.lower",
                 id="band-below-minus-one"),
    # one band key swept and the other fixed would describe two bands
    pytest.param("triage.lower", "0.2", None, "config triage.lower, triage.upper",
                 id="band-lower-fixed-upper-swept"),
    pytest.param({"triage.lower": "sweep", "triage.upper": "0.6"}, None, None,
                 "config triage.lower, triage.upper", id="band-lower-swept-upper-fixed"),
    pytest.param("triage.band_min", "-1.5", None, "triage.band_*", id="band-grid-below-minus-one"),
    pytest.param("triage.band_step", "1e-300", None, "triage.band_*", id="band-step-too-fine"),
    pytest.param({"triage.band_min": "0.5", "triage.band_max": "0.5000001",
                  "triage.band_step": "1e-300"}, None, None,
                 "config triage.band_*: band grid needs -1 <= min < max - 5e-07",
                 id="band-range-within-the-grid-end-gap"),
    # 8e-7 apart, but both written 0.500000: the grid's two ends would be one value
    pytest.param({"triage.band_min": "0.4999996", "triage.band_max": "0.5000004",
                  "triage.band_step": "1e-5"}, None, None,
                 "config triage.band_*: band grid needs -1 <= min < max - 5e-07, max <= 1 and "
                 "min, max written apart", id="band-range-written-alike"),
    pytest.param("fusion.grid_step", "1e-6", None, "fusion.grid_step",
                 id="alpha-grid-finer-than-the-sweep-file"),
    pytest.param("triage.priors", "0,1.5", None, "triage.priors", id="prior-above-one"),
    pytest.param("train.td.language_weights", "9:1", None, "train.td.language_weights",
                 id="weight-language-range"),
    pytest.param("train.td.language_weights", "0:nan,1:1", None,
                 "train.td.language_weights", id="weight-nan"),
    pytest.param("cost.keyword_seconds", "inf", None, "cost.keyword_seconds", id="cost-inf"),
    pytest.param("corpus.overrides", "1:5,1:7", None, "corpus.overrides",
                 id="overrides-duplicate-language"),
    pytest.param("train.td.language_weights", "0:1,0:3", None, "train.td.language_weights",
                 id="weight-duplicate-language"),
    pytest.param("xeval.languages", "0,0", None, "xeval.languages",
                 id="xeval-duplicate-language"),
    pytest.param("train.td.batch_n", "9", None, "train.td.batch_n", id="batch-n-above-speakers"),
    pytest.param("trials.enroll_per_speaker", "6", None, "trials.enroll_per_speaker",
                 id="enrollment-leaves-no-test-utterance"),
    pytest.param("corpus.overrides", "1:2", None, "corpus.overrides",
                 id="override-below-enrollment-and-batch"),
    pytest.param("corpus.speakers_per_language", "1", None, "corpus.speakers_per_language",
                 id="one-speaker-has-no-nontargets"),
    pytest.param({"network.td.projection_dim": "1", "network.td.output_dim": "1"}, None, None,
                 "network.td.output_dim", id="td-one-dim-embedding"),
    pytest.param({"network.ti.projection_dim": "1", "network.ti.output_dim": "1"}, None, None,
                 "network.ti.output_dim", id="ti-one-dim-embedding"),
])
def test_rejected_at_parse_time(tmp_path, capsys, key, value, seed, named):
    overrides = key if isinstance(key, dict) else {} if key is None else {key: value}
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path), **overrides)
    assert cli.run("gen-data", str(cfg_path), seed) == 1
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


def test_batch_capacity_counts_only_trained_languages(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("corpus.overrides = 1:2\ntrials.enroll_per_speaker = 1\n"
                    "train.td.language_weights = 0:1,1:0\ntrain.ti.language_weights = 0:1\n"
                    "xeval.languages = 0\n")
    assert parse_config(str(path)).corpus_spec.utterances_for(1) == 2


def test_gen_data_writes_nothing_when_a_split_fails(tmp_path):
    """A config that bypassed the parse-time checks: the trial split fails
    before the corpus is written, so `train` finds no corpus."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path),
                            **{"corpus.utterances_per_speaker": "6"})
    cfg = replace(parse_config(str(cfg_path)), enroll_per_speaker=6)
    with pytest.raises(CapacityError, match="needs 7"):
        cli.cmd_gen_data(cfg)
    assert not (tmp_path / "corpus").exists()
    assert cli.run("train", str(cfg_path)) == 2


@pytest.mark.parametrize("key, value", [("corpus.utterance_noise_scale", "1e300"),
                                        ("corpus.speaker_scale", "1e40")])
def test_gen_data_refuses_frames_beyond_float32(tmp_path, capsys, key, value):
    """Whether a scale overflows depends on the draws, so gen-data, not the
    config parser, refuses it, before it writes anything."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path), **{key: value})
    assert cli.run("gen-data", str(cfg_path)) == 3
    err = capsys.readouterr().err
    assert key.split(".")[1] in err and "float32" in err and "Traceback" not in err
    assert not (tmp_path / "corpus").exists()


def test_checkpoints_of_another_network_are_refused(tmp_path, capsys):
    """`score` and `xeval` refuse `train`'s checkpoints once the config names
    another network, or a corpus of another feature_dim, and write nothing."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path))
    assert cli.run("gen-data", str(cfg_path)) == 0
    assert cli.run("train", str(cfg_path)) == 0
    trained = sorted(os.listdir(tmp_path / "checkpoints"))
    for key, value in (("network.td.cells", "24"), ("corpus.feature_dim", "12")):
        changed = write_config(tmp_path / "changed.cfg", str(tmp_path), **{key: value})
        if key.startswith("corpus."):
            assert cli.run("gen-data", str(changed)) == 0
        capsys.readouterr()
        for command in ("score", "xeval"):
            assert cli.run(command, str(changed)) == 2
            err = capsys.readouterr().err
            assert "td.ckpt" in err and "svcascade train" in err and "Traceback" not in err
            assert err.count("NetworkSpec(") == 2  # the checkpoint's and the config's
        assert not (tmp_path / "scores").exists()
        assert sorted(os.listdir(tmp_path / "checkpoints")) == trained


def test_missing_config_file():
    assert cli.run("gen-data", "/nonexistent/x.cfg") == 1


def test_dependency_errors_in_order(tmp_path, capsys):
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path))
    for command, missing in (("train", "gen-data"), ("score", "gen-data"),
                             ("fuse-sweep", "score"), ("triage-apply", "score"),
                             ("report", "fuse-sweep")):
        assert cli.run(command, str(cfg_path)) == 2
        assert missing in capsys.readouterr().err
    # xeval scores train's pooled checkpoints; their absence is found before any training
    assert cli.run("gen-data", str(cfg_path)) == 0
    assert cli.run("xeval", str(cfg_path)) == 2
    assert "svcascade train" in capsys.readouterr().err
    assert not (tmp_path / "checkpoints").exists()


@pytest.mark.parametrize("command, module, name, call", [
    pytest.param("gen-data", synthcorpus, "save_trials", 1, id="gen-data-at-first-trial-list"),
    pytest.param("train", dvector, "save_checkpoint", 2, id="train-at-ti-checkpoint"),
])
def test_interrupted_rerun_leaves_no_mixed_set(tmp_path, capsys, monkeypatch,
                                               command, module, name, call):
    """A seed-1 rerun of `command` over a complete seed-0 set, cut short by a
    KeyboardInterrupt at the `call`-th call of module.name, leaves a set that
    `score` refuses as incomplete instead of scoring a mix of the two seeds."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path))
    assert cli.run("gen-data", str(cfg_path)) == 0
    assert cli.run("train", str(cfg_path)) == 0
    original, calls = getattr(module, name), []

    def interrupt(*args, **kwargs):
        calls.append(None)
        if len(calls) == call:
            raise KeyboardInterrupt
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.run(command, str(cfg_path), seed=1)
    capsys.readouterr()
    assert cli.run("score", str(cfg_path), seed=1) == 2
    assert f"run `svcascade {command}` first" in capsys.readouterr().err


@pytest.mark.parametrize("command, module, name, removed", [
    pytest.param("triage-sweep", triage, "pareto_frontier", ["frontier.csv", "prior_curve.csv"],
                 id="triage-sweep-at-frontier"),
    pytest.param("xeval", metrics, "system_eers", ["xeval_matrix.csv"],
                 id="xeval-at-matrix"),
])
def test_interrupted_rerun_removes_what_it_replaces(tmp_path, monkeypatch,
                                                    command, module, name, removed):
    """A rerun of `command` with a finer band grid and other training seeds,
    cut short by a KeyboardInterrupt at module.name after it has written
    some of its artifacts, leaves the `removed` ones of the earlier run
    missing instead of beside the new ones."""
    settings = {"train.td.steps": "20", "train.ti.steps": "20", "triage.alpha": "0.5"}
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path), **settings)
    for stage in ("gen-data", "train", "score", command):
        assert cli.run(stage, str(cfg_path)) == 0
    assert set(removed) <= set(os.listdir(tmp_path / "reports"))
    rerun = write_config(tmp_path / "rerun.cfg", str(tmp_path), **settings, **{
        "triage.band_step": "0.25", "train.td.seed": "7", "train.ti.seed": "8"})

    def interrupt(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(module, name, interrupt)
    with pytest.raises(KeyboardInterrupt):
        cli.run(command, str(rerun))
    assert not set(removed) & set(os.listdir(tmp_path / "reports"))


GOOD_ARTIFACTS = {
    "scores/scores.tsv": "s0\tu0\ttgt\t0.9\t0.8\ns0\tu1\tnon\t0.1\t0.2\n",
    "reports/fusion_sweep.csv": "alpha,eer\n0.000000,0.0\n1.000000,0.5\n",
    "reports/heatmap.csv": "lower,upper,eer,trigger_rate\n0.0,0.0,0.0,0.0\n",
}


def _add_member(path):
    with np.load(path) as data:
        arrays = dict(data)
    with open(path, "wb") as f:
        np.savez(f, **arrays, notes=np.zeros(1))


@pytest.mark.parametrize("rel, text, command, where", [
    pytest.param("scores/scores.tsv", "s0\tu0\ttgt\t0.9\t0.8\ns0\tu1\tnon\tlow\t0.2\n",
                 "eval", "scores.tsv:2", id="scores-non-numeric"),
    pytest.param("scores/scores.tsv", "s0\tu0\ttgt\t0.9\t0.8\ns0\tu1\tnon\t0.1\tNA\n",
                 "eval", "scores.tsv:2", id="scores-partial-na"),
    pytest.param("scores/scores.tsv", "s0\tu0\ttgt\t0.9\tNA\ns0\tu1\tnon\t0.1\tNA\n",
                 "eval", "scores.tsv:1: non-numeric score", id="scores-all-na"),
    pytest.param("scores/scores.tsv", "s0\tu0\ttgt\tnan\t0.8\ns0\tu1\tnon\t0.1\t0.2\n",
                 "eval", "scores.tsv:1", id="scores-non-finite"),
    # each stage refuses a score file of one class with compute_eer's message
    *(pytest.param("scores/scores.tsv",
                   f"s0\tu0\t{label}\t0.9\t0.8\ns0\tu1\t{label}\t0.1\t0.2\n", command,
                   "need at least one target and one nontarget score",
                   id=f"scores-one-class-{command}")
      for command, label in (("fuse-sweep", "tgt"), ("triage-sweep", "non"), ("eval", "tgt"))),
    pytest.param("reports/fusion_sweep.csv", "alpha,eer\n0.0,0.1\n1.0\n",
                 "triage-sweep", "fusion_sweep.csv:3", id="sweep-short-row"),
    pytest.param("reports/fusion_sweep.csv", "alpha,eer\n0.0,abc\n",
                 "triage-sweep", "fusion_sweep.csv:2", id="sweep-non-numeric"),
    pytest.param("reports/fusion_sweep.csv", "alpha,eer\n0.0,0.1\n1.5,-0.2\n",
                 "report", "fusion_sweep.csv:3", id="sweep-alpha-out-of-range"),
    pytest.param("reports/fusion_sweep.csv", "alpha,eer\n0.500000,0.1\n1.000000,0.2\n",
                 "report", "fusion_sweep.csv:2", id="sweep-no-alpha-0"),
    pytest.param("reports/fusion_sweep.csv", "alpha,eer\n0.000000,0.1\n0.500000,0.2\n",
                 "report", "fusion_sweep.csv:3", id="sweep-no-alpha-1"),
    pytest.param("reports/fusion_sweep.csv",
                 "alpha,eer\n0.000000,0.1\n0.600000,0.2\n0.500000,0.2\n1.000000,0.3\n",
                 "triage-sweep", "fusion_sweep.csv:4", id="sweep-alpha-falls"),
    pytest.param("reports/fusion_sweep.csv", "alpha,eer\nnan,0.0\n",
                 "triage-sweep", "fusion_sweep.csv:2", id="sweep-nan"),
    pytest.param("reports/fusion_sweep.csv", "alpha,err\n0.0,0.1\n",
                 "report", "fusion_sweep.csv:1", id="sweep-wrong-header"),
    pytest.param("reports/heatmap.csv", "lower,upper,trigger_rate,eer\n0.0,0.0,0.0,0.0\n",
                 "report", "heatmap.csv:1", id="heatmap-wrong-header"),
    pytest.param("reports/heatmap.csv", "lower,upper,eer,trigger_rate\r\n",
                 "report", "heatmap.csv: empty heat map", id="heatmap-no-rows"),
    pytest.param("reports/heatmap.csv", "lower,upper,eer,trigger_rate\n0.0,0.0,x,0.0\n",
                 "report", "heatmap.csv:2", id="heatmap-non-numeric"),
    pytest.param("reports/heatmap.csv", "lower,upper,eer,trigger_rate\n0.0,0.0,0.0,0.0\n"
                 "0.200000,0.400000,nan,0.1\n", "report", "heatmap.csv:3", id="heatmap-nan-eer"),
    pytest.param("reports/heatmap.csv", "lower,upper,eer,trigger_rate\n"
                 "0.500000,0.400000,0.1,0.1\n", "report", "heatmap.csv:2",
                 id="heatmap-band-inverted"),
    pytest.param("corpus/trials.tsv", "l0s0\tl0s0u0,l0s0u1\tl0s0u2\ttgt\n"
                 "l0s0\tl0s0u0,l0s0u1\tl0s1u2\tnon\nl0s0\tl0s0u0,l0s0u1\tl9s9u9\tnon\n",
                 "score", "trials.tsv:3", id="trials-unknown-test-id"),
    pytest.param("corpus/trials.tsv", "l1s0\tl1s0u0,l1s0u1\tl1s0u2\ttgt\n"
                 "l1s0\tl1s0u0,l9s9u9\tl1s1u2\tnon\n",
                 "xeval", "trials.tsv:2", id="trials-unknown-enroll-id"),
    pytest.param("corpus/trials.tsv", "l0s0\tl0s0u0,l0s0u1\tl0s0u2\ttgt\n"
                 "l0s0\tl0s0u0,l0s0u1\tl0s0u3\tnon\n",
                 "score", "trials.tsv:2", id="trials-label-mismatch"),
    pytest.param("corpus/trials.tsv", "l0s0\tl0s0u0,l0s0u1\tl0s0u2\ttgt\n"
                 "l0s0\tl0s0u0,l0s1u1\tl0s1u2\tnon\n",
                 "score", "trials.tsv:2", id="trials-enroll-other-speaker"),
    pytest.param("corpus/trials.tsv", "l0s0\tl0s0u0,l0s0u1\tl0s0u1\ttgt\n",
                 "score", "trials.tsv:1", id="trials-test-in-enrollment"),
    pytest.param("corpus/trials.tsv", "l0s0\tl0s0u0,l0s0u1\tl0s0u2\ttgt\n"
                 "l0s0\tl0s0u0,l0s0u0,l0s0u1\tl0s0u2\ttgt\n",
                 "score", "trials.tsv:2", id="trials-duplicate-enroll-id"),
    pytest.param("exp.cfg", b"corpus.languages = 2\n\xff\n",
                 "gen-data", "exp.cfg:2", id="config-not-utf8"),
    pytest.param("scores/scores.tsv", b"s0\tu0\ttgt\t0.9\t0.8\ns0\tu1\tnon\t0.1\t0.2\xff\n",
                 "eval", "scores.tsv:2", id="scores-not-utf8"),
    pytest.param("corpus/trials.tsv", b"l0s0\tl0s0u0,l0s0u1\tl0s0u2\ttgt\n\xff\n",
                 "score", "trials.tsv:2", id="trials-not-utf8"),
    pytest.param("reports/fusion_sweep.csv", b"alpha,eer\n0.0,0.1\n\xff,0.5\n",
                 "triage-sweep", "fusion_sweep.csv:3", id="sweep-not-utf8"),
    pytest.param("reports/heatmap.csv", b"lower,upper,eer,trigger_rate\n\xff\n",
                 "report", "heatmap.csv:2", id="heatmap-not-utf8"),
    pytest.param("checkpoints/td.ckpt", "format 2\nspec input_dim=16 num_layers=3 cells=16 "
                 "projection_dim=8 output_dim=8\nlayer0/w 64 24\n",
                 "score", "td.ckpt: not a readable checkpoint", id="checkpoint-text-format"),
    pytest.param("checkpoints/ti.ckpt", lambda p: p.write_bytes(p.read_bytes()[:5000]),
                 "score", "ti.ckpt: not a readable checkpoint", id="checkpoint-truncated"),
    pytest.param("checkpoints/ti.ckpt", _add_member, "score",
                 "ti.ckpt: unknown members ['notes']",
                 id="checkpoint-unknown-member"),
])
def test_bad_artifact_names_file_and_line(tmp_path, capsys, rel, text, command, where):
    """`text` replaces the artifact, or, if callable, edits the one that the
    pipeline wrote."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path))
    if rel.startswith(("corpus/", "checkpoints/")):
        assert cli.run("gen-data", str(cfg_path)) == 0
    if rel.startswith("checkpoints/"):
        assert cli.run("train", str(cfg_path)) == 0
    for name, content in {**GOOD_ARTIFACTS, rel: text}.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        if callable(content):
            content(tmp_path / name)
        else:
            (tmp_path / name).write_bytes(
                content if isinstance(content, bytes) else content.encode())
    assert cli.run(command, str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err


@pytest.mark.parametrize("command, make_unusable, where", [
    pytest.param("fuse-sweep", lambda d: (d / "reports").write_text("a file\n"),
                 "cannot write {}/reports/fusion_sweep.csv", id="report-dir-names-a-file"),
    pytest.param("fuse-sweep", lambda d: (d / "reports" / "fusion_sweep.csv").mkdir(parents=True),
                 "cannot write {}/reports/fusion_sweep.csv", id="sweep-csv-is-a-directory"),
    pytest.param("eval", lambda d: (d / "scores" / "scores.tsv").mkdir(parents=True),
                 "cannot read {}/scores/scores.tsv", id="scores-tsv-is-a-directory"),
    pytest.param("train", lambda d: (cli.run("gen-data", str(d / "exp.cfg")),
                                     (d / "checkpoints" / "td.ckpt").mkdir(parents=True)),
                 "cannot replace {}/checkpoints/td.ckpt", id="checkpoint-is-a-directory"),
])
def test_unusable_artifact_path_is_named(tmp_path, capsys, command, make_unusable, where):
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path))
    make_unusable(tmp_path)
    scores = tmp_path / "scores" / "scores.tsv"
    if not scores.exists():
        scores.parent.mkdir()
        scores.write_text(GOOD_ARTIFACTS["scores/scores.tsv"])
    assert cli.run(command, str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert where.format(tmp_path) in err and "Traceback" not in err
    assert not list(tmp_path.glob("**/*.partial"))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    workdir = str(tmp_path_factory.mktemp("pipeline"))
    cfg_path = write_config(os.path.join(workdir, "exp.cfg"), workdir)
    for command in ("gen-data", "train", "score", "fuse-sweep",
                    "triage-sweep", "triage-apply", "eval", "report"):
        assert cli.main([command, "--config", cfg_path]) == 0
    return workdir


def test_pipeline_artifacts_exist(pipeline):
    expected = [
        "corpus/corpus.npz", "corpus/trials.tsv", "checkpoints/td.ckpt", "checkpoints/ti.ckpt",
        "checkpoints/loss_td.csv", "checkpoints/loss_ti.csv",
        "scores/scores.tsv", "scores/triaged.tsv", "reports/fusion_sweep.csv",
        "reports/heatmap.csv", "reports/frontier.csv", "reports/prior_curve.csv",
        "reports/eval.csv", "reports/report.txt",
    ]
    for rel in expected:
        assert os.path.exists(os.path.join(pipeline, rel)), rel


def report_rows(pipeline, name):
    with open(os.path.join(pipeline, "reports", name), newline="") as f:
        return list(csv.reader(f))


def test_frontier_is_pareto_front_of_heatmap(pipeline):
    heatmap, frontier = report_rows(pipeline, "heatmap.csv"), report_rows(pipeline, "frontier.csv")
    assert frontier[0] == heatmap[0] == ["lower", "upper", "eer", "trigger_rate"]
    heatmap, frontier = heatmap[1:], frontier[1:]
    assert frontier and all(row in heatmap for row in frontier)
    rates, eers = [float(r[3]) for r in frontier], [float(r[2]) for r in frontier]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(a > b for a, b in zip(eers, eers[1:]))
    assert eers[-1] == min(float(r[2]) for r in heatmap)


def test_prior_curve_rows_are_heatmap_cells(pipeline):
    heatmap, curve = report_rows(pipeline, "heatmap.csv"), report_rows(pipeline, "prior_curve.csv")
    assert curve[0] == ["prior", "lower", "upper", "trigger_rate", "eer"]
    cells = {(lower, upper, eer): rate for lower, upper, eer, rate in heatmap[1:]}
    assert len(curve) - 1 == 3 * len(cells)  # the default priors 0, 0.5 and 1
    for prior, lower, upper, rate, eer in curve[1:]:
        assert (lower, upper, eer) in cells
        if prior == "0.500000":
            assert rate == cells[lower, upper, eer]


def test_report_fields(pipeline):
    text = open(os.path.join(pipeline, "reports/report.txt")).read()
    fields = dict(line.split("=") for line in text.strip().splitlines())
    for key in ("eer_td", "eer_ti", "alpha", "eer_fused", "band_lower",
                "band_upper", "eer", "trigger_rate",
                "expected_latency_seconds", "expected_flops"):
        assert key in fields, key
    rate = float(fields["trigger_rate"])
    assert 0.0 <= rate <= 1.0
    assert float(fields["expected_latency_seconds"]) == pytest.approx(
        0.7 + rate * 3.0, abs=1e-6)
    assert float(fields["eer"]) <= float(fields["eer_td"]) + 1e-9


def save_tie_heavy_scores(workdir, seed=5):
    """A scores.tsv of 300 trials whose scores lie on a 0.1 grid, signed zeros included."""
    rng = np.random.default_rng(seed)
    labels = rng.random(300) < 0.4
    td, ti = (np.clip(np.round(rng.standard_normal(300) * 0.3 + 0.2 * labels, 1), -0.9, 0.9)
              for _ in range(2))
    scoring.save_scores(os.path.join(workdir, "scores/scores.tsv"), scoring.ScoreTable(
        ["s0"] * 300, [f"u{i}" for i in range(300)], labels, td, ti))


@pytest.mark.parametrize("tie_heavy", [False, True])
def test_report_eers_are_the_single_system_eers(pipeline, tmp_path, tie_heavy):
    """report reads eer_td and eer_ti from the sweep's alpha = 1 and alpha = 0
    rows; they are compute_eer of the TD and TI columns to the bit."""
    workdir, cfg_path = pipeline, os.path.join(pipeline, "exp.cfg")
    if tie_heavy:
        workdir, cfg_path = str(tmp_path), str(write_config(tmp_path / "exp.cfg", str(tmp_path)))
        save_tie_heavy_scores(workdir)
        for command in ("fuse-sweep", "triage-sweep", "report"):
            assert cli.run(command, cfg_path) == 0
    scores = scoring.load_scores(os.path.join(workdir, "scores/scores.tsv"))
    sweep = fusion.sweep_fusion_weight(scores, parse_config(cfg_path).alphas)
    with open(os.path.join(workdir, "reports/report.txt")) as f:
        fields = dict(line.split("=") for line in f.read().split())
    for key, column, row in (("eer_td", scores.td, -1), ("eer_ti", scores.ti, 0)):
        eer = compute_eer(column[scores.labels], column[~scores.labels]).eer
        assert sweep.table[row][1] == eer
        assert fields[key] == "%.9f" % eer


def triage_tie_heavy_scores(workdir, seed, **overrides):
    """fuse-sweep, triage-sweep, triage-apply and report on save_tie_heavy_scores(seed):
    report.txt's fields, and triaged.tsv's labels, final scores and trigger flags."""
    cfg_path = str(write_config(workdir / "exp.cfg", str(workdir), **overrides))
    save_tie_heavy_scores(str(workdir), seed)
    for command in ("fuse-sweep", "triage-sweep", "triage-apply", "report"):
        assert cli.run(command, cfg_path) == 0
    fields = dict(line.split("=") for line in (workdir / "reports/report.txt").read_text().split())
    rows = [line.split("\t") for line in (workdir / "scores/triaged.tsv").read_text().splitlines()]
    return (fields, np.array([row[2] == "tgt" for row in rows]),
            np.array([float(row[3]) for row in rows]), np.array([row[4] == "1" for row in rows]))


def test_triaged_tsv_applies_the_band_of_the_report(tmp_path):
    """With the band at `sweep`, triage-apply applies the heat map's best
    cell, the band that report.txt states: the per-class trigger fractions of
    triaged.tsv, weighted 0.5 each, are its trigger_rate to all 9 decimals.
    The best band is (-0.8, 0.4): its bounds are the decimals the heat map
    writes, so the TD scores of exactly 0.4 are confident and those of 0.3
    trigger, in the sweep's count and in triaged.tsv alike."""
    fields, labels, _, triggered = triage_tie_heavy_scores(tmp_path, 5, **{
        "triage.band_step": "0.1"})
    assert (fields["band_lower"], fields["band_upper"]) == ("-0.800000", "0.400000")
    rate = 0.5 * triggered[labels].mean() + 0.5 * triggered[~labels].mean()
    assert "%.9f" % rate == fields["trigger_rate"]


def test_swept_band_needs_the_heat_map_of_the_config_grid(tmp_path, capsys):
    """triage-apply with the band at `sweep` exits 2, naming triage-sweep and
    writing nothing, when heatmap.csv is missing and when the heat map's best
    band is not on the config's grid: it was swept with another band_step."""
    cfg_path = str(write_config(tmp_path / "exp.cfg", str(tmp_path), **{"triage.band_step": "0.1"}))
    save_tie_heavy_scores(str(tmp_path))
    assert cli.run("fuse-sweep", cfg_path) == 0
    assert cli.run("triage-apply", cfg_path) == 2
    err = capsys.readouterr().err
    assert "heatmap.csv" in err and "run `svcascade triage-sweep` first" in err
    assert cli.run("triage-sweep", cfg_path) == 0  # best band (-0.8, 0.4)
    other = str(write_config(tmp_path / "other.cfg", str(tmp_path),
                             **{"triage.band_step": "0.25"}))
    assert cli.run("triage-apply", other) == 2
    err = capsys.readouterr().err
    assert "band (-0.800000, 0.400000) is not on the config's band grid" in err
    assert "run `svcascade triage-sweep` first" in err and "Traceback" not in err
    assert not (tmp_path / "scores" / "triaged.tsv").exists()


def test_triaged_tsv_fuses_at_the_alpha_of_the_report(tmp_path):
    """triage-apply fuses at the alpha that fuse-sweep computed eer_fused
    with: under a band that triggers every trial, the EER of triaged.tsv's
    final scores is report.txt's eer_fused to all 9 decimals.  These scores
    lie on a 0.1 grid, so a one-ulp change of alpha can move fused scores
    across each other and change the EER; the best alpha is 0.71."""
    fields, labels, final, triggered = triage_tie_heavy_scores(
        tmp_path, 72, **{"fusion.grid_step": "0.01", "triage.lower": "-1", "triage.upper": "1"})
    assert triggered.all()
    assert "%.9f" % compute_eer(final[labels], final[~labels]).eer == fields["eer_fused"]
    assert fields["alpha"] == "0.710000"


def test_stages_in_one_process_and_in_their_own_agree(tmp_path):
    """The stages that read scores.tsv write the same bytes when they run one
    after another in one process, and when each runs in a process of its own."""
    stages = ("fuse-sweep", "triage-sweep", "triage-apply", "eval", "report")
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    outputs = []
    for workdir in (tmp_path / "one", tmp_path / "each"):
        workdir.mkdir()
        cfg_path = str(write_config(workdir / "exp.cfg", str(workdir)))
        save_tie_heavy_scores(str(workdir))
        for command in stages:
            if workdir.name == "one":
                assert cli.run(command, cfg_path) == 0
            else:
                done = subprocess.run(
                    [sys.executable, "-m", "svcascade.cli", command, "--config", cfg_path],
                    env=env, capture_output=True, text=True, timeout=300)
                assert done.returncode == 0, done.stderr
        files = {name: (workdir / "reports" / name).read_bytes()
                 for name in os.listdir(workdir / "reports")}
        files["triaged.tsv"] = (workdir / "scores" / "triaged.tsv").read_bytes()
        outputs.append(files)
    assert {"fusion_sweep.csv", "heatmap.csv", "eval.csv", "report.txt"} <= outputs[0].keys()
    assert outputs[0] == outputs[1]


def test_eval_csv_has_both_systems(pipeline):
    rows = report_rows(pipeline, "eval.csv")
    assert rows[0] == ["system", "eer_percent", "threshold", "targets", "nontargets"]
    assert [r[0] for r in rows[1:]] == ["td", "ti"]
    assert rows[1][3] == "80" and rows[1][4] == "80"  # pooled over 2 languages


def test_triaged_tsv_shape(pipeline):
    lines = open(os.path.join(pipeline, "scores/triaged.tsv")).read().splitlines()
    assert len(lines) == 160
    for line in lines:
        parts = line.split("\t")
        assert len(parts) == 5 and parts[4] in ("0", "1")


def test_gen_data_idempotent(pipeline, tmp_path):
    src = os.path.join(pipeline, "corpus")
    before = {f: open(os.path.join(src, f), "rb").read() for f in os.listdir(src)}
    cfg_path = write_config(tmp_path / "again.cfg", pipeline)
    assert cli.run("gen-data", str(cfg_path)) == 0
    after = {f: open(os.path.join(src, f), "rb").read() for f in os.listdir(src)}
    assert before == after


def test_gen_data_writes_one_list_of_per_language_draws(tmp_path):
    """The rows of trials.tsv enrolled in language l are, in order, the
    trials drawn for l alone: the split that xeval makes."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path), **{"corpus.languages": "3"})
    assert cli.run("gen-data", str(cfg_path)) == 0
    cfg = parse_config(str(cfg_path))
    assert sorted(os.listdir(cfg.corpus_dir)) == ["corpus.npz", "trials.tsv"]
    corpus = synthcorpus.load_corpus(cfg.corpus_dir)
    trials = synthcorpus.load_trials(os.path.join(cfg.corpus_dir, "trials.tsv"), corpus)
    assert len(trials) == 3 * (cfg.trial_targets + cfg.trial_nontargets)
    for lang in range(3):
        speakers = corpus.speaker_rows([lang])
        assert [t for t in trials if t.enroll_speaker_id in speakers] == synthcorpus.split_trials(
            corpus, cfg.trial_targets, cfg.trial_nontargets, cfg.enroll_per_speaker,
            seed=cfg.trial_seed + lang, languages=[lang])


def test_xeval_matrix(tmp_path):
    workdir = str(tmp_path)
    cfg_path = write_config(os.path.join(workdir, "exp.cfg"), workdir,
                            **{"train.td.steps": "20", "train.ti.steps": "20"})
    assert cli.run("gen-data", cfg_path) == 0
    assert cli.run("train", cfg_path) == 0
    pooled = {name: open(os.path.join(workdir, f"checkpoints/{name}.ckpt"), "rb").read()
              for name in ("td", "ti")}
    assert cli.run("xeval", cfg_path) == 0
    with open(os.path.join(workdir, "reports/xeval_matrix.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 1 + 3 * 2 * 2  # (pooled + 2 mono models) x 2 langs x 2 systems
    assert [r[:4] + r[5:] for r in rows[1:5]] == [
        ["pooled", "0+1", "td", "0", "0"], ["pooled", "0+1", "ti", "0", "0"],
        ["pooled", "0+1", "td", "1", "0"], ["pooled", "0+1", "ti", "1", "0"]]
    assert [(r[0], r[1], r[3], r[5]) for r in rows[5:]] == [
        (f"mono{m}", str(m), str(e), str(int(m != e))) for m in (0, 1) for e in (0, 1)
        for _ in ("td", "ti")]
    for name, data in pooled.items():  # scored, not retrained
        assert open(os.path.join(workdir, f"checkpoints/{name}.ckpt"), "rb").read() == data
    for lang in (0, 1):
        assert os.path.exists(os.path.join(workdir, f"checkpoints/td_mono{lang}.ckpt"))
        assert os.path.exists(os.path.join(workdir, f"checkpoints/ti_mono{lang}.ckpt"))

    # TD and TI trained on different languages, xeval languages out of
    # order: each row names its own system's training languages
    cfg_path = write_config(os.path.join(workdir, "exp.cfg"), workdir, **{
        "train.td.steps": "20", "train.ti.steps": "20", "train.ti.language_weights": "1:1",
        "xeval.languages": "1,0"})
    assert cli.run("train", cfg_path) == 0
    assert cli.run("xeval", cfg_path) == 0
    with open(os.path.join(workdir, "reports/xeval_matrix.csv"), newline="") as f:
        rows = list(csv.reader(f))
    assert [r[:4] + r[5:] for r in rows[1:]] == [
        ["pooled", "0+1", "td", "1", "0"], ["pooled", "1", "ti", "1", "0"],
        ["pooled", "0+1", "td", "0", "0"], ["pooled", "1", "ti", "0", "1"],
        ["mono1", "1", "td", "1", "0"], ["mono1", "1", "ti", "1", "0"],
        ["mono1", "1", "td", "0", "1"], ["mono1", "1", "ti", "0", "1"],
        ["mono0", "0", "td", "1", "1"], ["mono0", "0", "ti", "1", "1"],
        ["mono0", "0", "td", "0", "0"], ["mono0", "0", "ti", "0", "0"]]


def test_xeval_scoring_failure_names_model_and_language(tmp_path, capsys):
    """A language whose trials are all targets cannot be scored: the error
    keeps its type (exit 1) and names the model and the language."""
    workdir = str(tmp_path)
    cfg_path = write_config(os.path.join(workdir, "exp.cfg"), workdir,
                            **{"train.td.steps": "5", "train.ti.steps": "5"})
    assert cli.run("gen-data", cfg_path) == 0
    assert cli.run("train", cfg_path) == 0
    trials = tmp_path / "corpus" / "trials.tsv"
    trials.write_text("".join(line for line in trials.read_text().splitlines(keepends=True)
                              if line.startswith("l0") or line.endswith("\ttgt\n")))
    assert cli.run("xeval", cfg_path) == 1
    err = capsys.readouterr().err
    assert "model pooled, eval language 1: need at least one target and one nontarget" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "checkpoints").glob("*_mono*"))  # scored before any training


def test_a_worker_error_reaches_cli_run_as_in_process(tmp_path, capsys):
    """`train` on a corpus of fewer utterances than its config's: the TD and
    the TI worker each raise the CapacityError of `ge2e.train`, and `cli.run`
    reports the TD one, the first model, with its exit code, as in process."""
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path), **{
        "corpus.utterances_per_speaker": "3", "trials.enroll_per_speaker": "2"})
    assert cli.run("gen-data", str(cfg_path)) == 0
    cfg_path = write_config(tmp_path / "exp.cfg", str(tmp_path), **{
        "train.td.batch_m": "4", "train.ti.batch_m": "5"})
    cfg = parse_config(str(cfg_path))
    with pytest.raises(CapacityError) as expected:
        ge2e.train(synthcorpus.load_corpus(cfg.corpus_dir), cfg.td_network, cfg.td_train,
                   ge2e.SEGMENT_KEYWORD)
    assert cli.run("train", str(cfg_path)) == expected.value.exit_code
    assert capsys.readouterr().err == f"svcascade train: {expected.value}\n"
    assert not (tmp_path / "checkpoints").exists()


@st.composite
def tiny_configs(draw):
    """Config keys drawn from the schema's ranges at tiny sizes.  Values are
    drawn evenly, not toward the bounds, and projection_dim equals
    output_dim, so about a third of the configs parse (a uniform draw of
    every key would rarely parse)."""
    languages = draw(st.integers(1, 4))
    size = st.sampled_from(range(1, 7))
    values = {"corpus.languages": languages,
              "corpus.speakers_per_language": draw(size),
              "corpus.utterances_per_speaker": draw(st.sampled_from(range(1, 9))),
              "corpus.keyword_frames": draw(size), "corpus.query_frames": draw(size),
              "corpus.feature_dim": draw(size),
              "corpus.utterance_noise_scale": draw(st.sampled_from([0.0, 0.5, 2.0])),
              "trials.targets": draw(st.integers(1, 20)),
              "trials.nontargets": draw(st.integers(1, 20)),
              "trials.enroll_per_speaker": draw(st.sampled_from((1, 2, 3))),
              "fusion.grid_step": draw(st.sampled_from([0.1, 0.25, 0.5])),
              "triage.band_step": draw(st.sampled_from([0.1, 0.25, 0.5])),
              "triage.alpha": draw(st.sampled_from(["sweep", "0", "0.5", "1"])),
              "xeval.languages": ",".join(map(str, draw(
                  st.lists(st.integers(0, languages - 1), unique=True, max_size=2))))}
    if draw(st.booleans()):  # a fixed band; else the default, the heat map's best cell
        values["triage.lower"], values["triage.upper"] = draw(
            st.sampled_from([("-1", "1"), ("0.2", "0.6"), ("0.5", "0.5")]))
    for s in ("td", "ti"):
        values[f"network.{s}.projection_dim"] = values[f"network.{s}.output_dim"] = draw(size)
        values.update({f"network.{s}.num_layers": draw(st.integers(1, 3)),
                       f"network.{s}.cells": draw(size),
                       f"train.{s}.batch_n": draw(st.sampled_from((2, 3))),
                       f"train.{s}.batch_m": draw(st.sampled_from((2, 3))),
                       f"train.{s}.steps": draw(st.integers(1, 3))})
    return {key: str(value) for key, value in values.items()}


@settings(max_examples=50, deadline=None)
@given(tiny_configs())
def test_a_config_that_parses_runs_every_stage(values):
    """A config refused at parse time fails every command with exit 1; one
    that parses runs all nine commands, and can fail only on its data, as a
    numeric failure (exit 3).  No command raises."""
    with tempfile.TemporaryDirectory() as workdir:
        cfg_path = write_config(os.path.join(workdir, "exp.cfg"), workdir, **values)
        try:
            parse_config(cfg_path)
        except ValidationError:
            assert {cli.run(command, cfg_path) for command in cli.COMMANDS} == {1}
            return
        for command in cli.COMMANDS:
            code = cli.run(command, cfg_path)
            if code:
                assert code == 3, command
                return
