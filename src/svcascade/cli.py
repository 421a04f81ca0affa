"""Command-line entry point wiring the pipeline:
gen-data -> train -> score -> fuse-sweep -> triage-sweep -> triage-apply
-> eval / xeval -> report.

Every command reads one config file and writes only its documented
artifacts; re-running with unchanged inputs rewrites identical bytes.
Exit codes: 0 ok, 1 validation, 2 missing prerequisite, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import dvector, errors, fusion, ge2e, metrics, scoring, synthcorpus, triage
from .config import ExperimentConfig, parse_config
from .errors import DependencyError, ToolError, ValidationError
from .fusion import FusionWeight


def _require(path: str, producer: str) -> str:
    if not os.path.exists(path):
        raise DependencyError(f"missing {path}; run `svcascade {producer}` first")
    return path


def _trials_path(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.corpus_dir, "trials.tsv")


def _ckpt_path(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.checkpoint_dir, f"{name}.ckpt")


def _load_checkpoint(cfg: ExperimentConfig, name: str,
                     spec: dvector.NetworkSpec) -> dvector.Parameters:
    """`train`'s checkpoint `name`, which must hold the network `spec` of the config."""
    path = _require(_ckpt_path(cfg, name), "train")
    params = dvector.load_checkpoint(path)
    if params.spec != spec:
        raise DependencyError(f"{path} holds {params.spec}, but the config asks for {spec}; "
                              "run `svcascade train` first")
    return params


def _scores_path(cfg: ExperimentConfig) -> str:
    return os.path.join(cfg.score_dir, "scores.tsv")


def _load_corpus(cfg: ExperimentConfig) -> synthcorpus.Corpus:
    _require(os.path.join(cfg.corpus_dir, synthcorpus.CORPUS_FILE), "gen-data")
    return synthcorpus.load_corpus(cfg.corpus_dir)


def _remove(directory: str, *names: str) -> None:
    """Removes artifacts about to be replaced, so that a run cut short
    leaves them missing rather than mixed with an older run's."""
    for path in (os.path.join(directory, name) for name in names):
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ValidationError(f"cannot replace {path}: {exc}") from None


def cmd_gen_data(cfg: ExperimentConfig) -> None:
    """Draws each language's trials on their own, with seed trials.seed plus
    the language, into one list in language order.  Every draw comes before
    any write, and the corpus is written last, so a split that fails or a run
    cut short leaves no corpus."""
    corpus = synthcorpus.generate_corpus(cfg.corpus_spec)
    trials = [trial for lang in range(cfg.corpus_spec.languages)
              for trial in synthcorpus.split_trials(
                  corpus, cfg.trial_targets, cfg.trial_nontargets,
                  cfg.enroll_per_speaker, seed=cfg.trial_seed + lang, languages=[lang])]
    _remove(cfg.corpus_dir, synthcorpus.CORPUS_FILE)
    synthcorpus.save_trials(trials, _trials_path(cfg))
    synthcorpus.save_corpus(corpus, cfg.corpus_dir)


def cmd_train(cfg: ExperimentConfig) -> None:
    corpus = _load_corpus(cfg)
    _remove(cfg.checkpoint_dir, "td.ckpt", "ti.ckpt", "loss_td.csv", "loss_ti.csv")
    models = ge2e.train_models(corpus, [
        (cfg.td_network, cfg.td_train, ge2e.SEGMENT_KEYWORD),
        (cfg.ti_network, cfg.ti_train, ge2e.SEGMENT_KEYWORD_QUERY)])
    for name, (params, trace) in zip(("td", "ti"), models):
        dvector.save_checkpoint(_ckpt_path(cfg, name), params)
        ge2e.save_loss_trace(os.path.join(cfg.checkpoint_dir, f"loss_{name}.csv"), trace)


def cmd_score(cfg: ExperimentConfig) -> None:
    corpus = _load_corpus(cfg)
    trials = synthcorpus.load_trials(_require(_trials_path(cfg), "gen-data"), corpus)
    td_params = _load_checkpoint(cfg, "td", cfg.td_network)
    ti_params = _load_checkpoint(cfg, "ti", cfg.ti_network)
    scores = scoring.score_trials(td_params, ti_params, corpus, trials)
    scoring.save_scores(_scores_path(cfg), scores)


def _load_scores(cfg: ExperimentConfig) -> scoring.ScoreTable:
    return scoring.load_scores(_require(_scores_path(cfg), "score"))


def cmd_fuse_sweep(cfg: ExperimentConfig) -> None:
    result = fusion.sweep_fusion_weight(_load_scores(cfg), cfg.alphas)
    fusion.save_sweep_csv(os.path.join(cfg.report_dir, "fusion_sweep.csv"), result)


def _resolve_alpha(cfg: ExperimentConfig) -> FusionWeight:
    if cfg.fixed_alpha is not None:
        return cfg.fixed_alpha
    sweep_path = _require(os.path.join(cfg.report_dir, "fusion_sweep.csv"), "fuse-sweep")
    return FusionWeight(fusion.load_sweep_csv(sweep_path).alpha_star)


def cmd_triage_sweep(cfg: ExperimentConfig) -> None:
    scores = _load_scores(cfg)
    alpha = _resolve_alpha(cfg)
    _remove(cfg.report_dir, "heatmap.csv", "frontier.csv", "prior_curve.csv")
    cells = triage.sweep_bands(scores, cfg.bands, alpha)
    triage.save_heatmap_csv(os.path.join(cfg.report_dir, "heatmap.csv"), cells)
    triage.save_heatmap_csv(os.path.join(cfg.report_dir, "frontier.csv"),
                            triage.pareto_frontier(cells))
    triage.save_prior_curve_csv(
        os.path.join(cfg.report_dir, "prior_curve.csv"), cells, cfg.priors)


def _resolve_band(cfg: ExperimentConfig) -> tuple[float, float]:
    """The config's band, or the heat map's best cell: the band-grid values written as its bounds."""
    if cfg.fixed_band is not None:
        return cfg.fixed_band
    path = _require(os.path.join(cfg.report_dir, "heatmap.csv"), "triage-sweep")
    best = ["%.6f" % bound for bound in triage.load_heatmap_csv(path)[:2]]
    grid = {"%.6f" % value: value for value in cfg.bands}
    if not set(best) <= grid.keys():
        raise DependencyError(f"{path}: band ({', '.join(best)}) is not on the config's band "
                              "grid; run `svcascade triage-sweep` first")
    return grid[best[0]], grid[best[1]]


def cmd_triage_apply(cfg: ExperimentConfig) -> None:
    scores = _load_scores(cfg)
    alpha = _resolve_alpha(cfg)
    policy = triage.TriagePolicy(*_resolve_band(cfg), alpha)
    final, triggered = triage.apply_triage(scores, policy)
    errors.write_table(os.path.join(cfg.score_dir, "triaged.tsv"), zip(
        scores.speakers, scores.utterances, ["tgt" if t else "non" for t in scores.labels.tolist()],
        ["%.9f" % s for s in final.tolist()], ["1" if t else "0" for t in triggered.tolist()]))


def cmd_eval(cfg: ExperimentConfig) -> None:
    errors.write_table(os.path.join(cfg.report_dir, "eval.csv"), (
        (system, "%.2f" % (100.0 * r.eer), "%.9f" % r.eer_threshold, str(r.num_targets),
         str(r.num_nontargets)) for system, r in metrics.system_eers(_load_scores(cfg)).items()),
        header=("system", "eer_percent", "threshold", "targets", "nontargets"), sep=",")


def cmd_xeval(cfg: ExperimentConfig) -> None:
    """The cross-language EER matrix.  It scores the pooled `train` models,
    and one monolingual TD/TI model per xeval language, trained here, on the
    trials of each xeval language: the rows of `trials.tsv` whose enrolled
    speaker is of that language.  A row per (model, language, system).  The
    pooled models are scored first, so trials they cannot score fail the
    command before any training."""
    corpus = _load_corpus(cfg)
    trials = synthcorpus.load_trials(_require(_trials_path(cfg), "gen-data"), corpus)
    langs = cfg.xeval_languages
    eval_sets = {}
    for lang in langs:
        speakers = corpus.speaker_rows([lang])
        eval_sets[lang] = [t for t in trials if t.enroll_speaker_id in speakers]
    td_pooled = _load_checkpoint(cfg, "td", cfg.td_network)
    ti_pooled = _load_checkpoint(cfg, "ti", cfg.ti_network)
    _remove(cfg.checkpoint_dir, *(f"{s}_mono{lang}.ckpt" for lang in langs for s in ("td", "ti")))
    _remove(cfg.report_dir, "xeval_matrix.csv")

    def model_rows(name, td_params, ti_params, *trained):
        """A model's rows; `trained` holds its TD and its TI training languages."""
        rows = []
        for lang, lang_trials in eval_sets.items():
            try:
                eers = metrics.system_eers(
                    scoring.score_trials(td_params, ti_params, corpus, lang_trials))
            except ToolError as exc:
                raise type(exc)(f"model {name}, eval language {lang}: {exc}") from None
            rows += [(name, "+".join(map(str, train_langs)), system, str(lang),
                      "%.2f" % (100.0 * result.eer), str(int(lang not in train_langs)))
                     for (system, result), train_langs in zip(eers.items(), trained)]
        return rows

    matrix = model_rows("pooled", td_pooled, ti_pooled, cfg.td_train.languages,
                        cfg.ti_train.languages)
    # the longer TI jobs first, so that the TD jobs fill in behind them
    models = [params for params, _ in ge2e.train_models(corpus, [
        *((cfg.ti_network, cfg.ti_train.monolingual(lang, cfg.ti_train.seed + 2000 + lang),
           ge2e.SEGMENT_KEYWORD_QUERY) for lang in langs),
        *((cfg.td_network, cfg.td_train.monolingual(lang, cfg.td_train.seed + 1000 + lang),
           ge2e.SEGMENT_KEYWORD) for lang in langs)])]
    for lang, ti, td in zip(langs, models[:len(langs)], models[len(langs):]):
        dvector.save_checkpoint(_ckpt_path(cfg, f"td_mono{lang}"), td)
        dvector.save_checkpoint(_ckpt_path(cfg, f"ti_mono{lang}"), ti)
        matrix += model_rows(f"mono{lang}", td, ti, (lang,), (lang,))
    errors.write_table(os.path.join(cfg.report_dir, "xeval_matrix.csv"), matrix,
                       header=("model", "train_lang", "system", "eval_lang", "eer_percent",
                               "cross_lingual"), sep=",")


def cmd_report(cfg: ExperimentConfig) -> None:
    sweep = fusion.load_sweep_csv(
        _require(os.path.join(cfg.report_dir, "fusion_sweep.csv"), "fuse-sweep"))
    lower, upper, eer, rate = triage.load_heatmap_csv(
        _require(os.path.join(cfg.report_dir, "heatmap.csv"), "triage-sweep"))
    # the sweep's alpha = 1 and alpha = 0 rows fuse TD and TI alone, exactly
    td_eer, ti_eer = sweep.table[-1][1], sweep.table[0][1]
    seconds, flops = cfg.cost.expected(rate)

    lines = [
        "eer_td=%.9f" % td_eer,
        "eer_ti=%.9f" % ti_eer,
        "alpha=%.6f" % sweep.alpha_star,
        "eer_fused=%.9f" % sweep.eer_at_alpha_star,
        "band_lower=%.6f" % lower,
        "band_upper=%.6f" % upper,
        "eer=%.9f" % eer,
        "trigger_rate=%.9f" % rate,
        "expected_latency_seconds=%.9f" % seconds,
        "expected_flops=%.1f" % flops,
    ]
    with errors.write_atomic(os.path.join(cfg.report_dir, "report.txt")) as f:
        f.write("\n".join(lines) + "\n")


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "score": cmd_score,
    "fuse-sweep": cmd_fuse_sweep,
    "triage-sweep": cmd_triage_sweep,
    "triage-apply": cmd_triage_apply,
    "eval": cmd_eval,
    "xeval": cmd_xeval,
    "report": cmd_report,
}
COMMANDS = tuple(HANDLERS)


def run(command: str, config_path: str, seed: int | None = None) -> int:
    try:
        cfg = parse_config(config_path, seed_override=seed)
        HANDLERS[command](cfg)
    except ToolError as exc:
        print(f"svcascade {command}: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="svcascade",
        description="speaker-verification cascade experiments on a synthetic corpus")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="experiment config file")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the experiment seeds")
    args = parser.parse_args(argv)
    return run(args.command, args.config, args.seed)


if __name__ == "__main__":
    sys.exit(main())
