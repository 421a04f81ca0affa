import numpy as np
import pytest

from svcascade import dvector, ge2e, metrics, scoring, synthcorpus


def make_scores(td_tgt, ti_tgt, td_non, ti_non):
    """A ScoreTable of the given target trials followed by the nontargets."""
    n_tgt, n_non = len(td_tgt), len(td_non)
    return scoring.ScoreTable(
        speakers=["s0"] * (n_tgt + n_non),
        utterances=[f"t{i}" for i in range(n_tgt)] + [f"n{i}" for i in range(n_non)],
        labels=np.r_[np.ones(n_tgt, bool), np.zeros(n_non, bool)],
        td=np.array(list(td_tgt) + list(td_non), dtype=np.float64),
        ti=np.array(list(ti_tgt) + list(ti_non), dtype=np.float64))


def interleaved_scores(seed, n=400):
    """A ScoreTable whose target and nontarget rows alternate irregularly,
    with scores on a 0.05 grid inside (-1, 1), so band edges hit scores."""
    rng = np.random.default_rng(seed)
    labels = rng.random(n) < 0.4
    td = np.round((rng.standard_normal(n) * 0.4 + 0.3 * labels) / 0.05) * 0.05
    td = np.clip(td, -0.95, 0.95)
    ti = np.clip(rng.standard_normal(n) * 0.4 + 0.5 * labels, -0.99, 0.99)
    return scoring.ScoreTable(speakers=["s0"] * n, utterances=[f"u{i}" for i in range(n)],
                              labels=labels, td=td, ti=ti)


@pytest.fixture(scope="session")
def small_corpus():
    spec = synthcorpus.CorpusSpec(
        languages=4, speakers_per_language=10, utterances_per_speaker=8,
        keyword_frames=10, query_frames=30, feature_dim=16,
        utterance_noise_scale=0.5, seed=7)
    return synthcorpus.generate_corpus(spec)


@pytest.fixture(scope="session")
def trained_models(small_corpus):
    weights = {lang: 1.0 for lang in range(4)}
    td_cfg = ge2e.TrainConfig(batch_n=4, batch_m=3, steps=400,
                              language_weights=weights, seed=3)
    ti_cfg = ge2e.TrainConfig(batch_n=4, batch_m=3, steps=400,
                              language_weights=weights, seed=4)
    (td, _), (ti, _) = ge2e.train_models(small_corpus, [
        (dvector.TD_SMALL, td_cfg, ge2e.SEGMENT_KEYWORD),
        (dvector.TI_SMALL, ti_cfg, ge2e.SEGMENT_KEYWORD_QUERY)])
    return {"td": td, "ti": ti}


@pytest.fixture(scope="session")
def scored_trials(small_corpus, trained_models):
    trials = synthcorpus.split_trials(small_corpus, 200, 200, 3, seed=11)
    return scoring.score_trials(trained_models["td"], trained_models["ti"],
                                small_corpus, trials)


@pytest.fixture(scope="session")
def multilingual_runs():
    """The held-out-language experiment: 5 languages, TI models trained on
    the first 4 (pooled) and on each single language (monolingual), per-seed
    EERs on every language.  Shared by the cross-lingual pattern test and the
    multilingual-generalization acceptance criterion."""
    num_languages, held_out = 5, 4
    seeds = range(5)
    runs = []
    for seed in seeds:
        spec = synthcorpus.CorpusSpec(
            languages=num_languages, speakers_per_language=10,
            utterances_per_speaker=8, keyword_frames=10, query_frames=30,
            feature_dim=16, utterance_noise_scale=0.6,
            language_shift_scale=1.2, speaker_scale=1.0, seed=seed)
        corpus = synthcorpus.generate_corpus(spec)
        trials = {lang: synthcorpus.split_trials(
            corpus, 150, 150, 3, seed=50 + seed * 10 + lang, languages=[lang])
            for lang in range(num_languages)}

        def eer(params, lang):
            scores = scoring.system_scores(params, ge2e.SEGMENT_KEYWORD_QUERY,
                                           corpus, trials[lang])
            labels = np.array([t.is_target for t in trials[lang]])
            return metrics.compute_eer(scores[labels], scores[~labels]).eer

        pooled_cfg = ge2e.TrainConfig(
            batch_n=4, batch_m=3, steps=500,
            language_weights={lang: 1.0 for lang in range(4)}, seed=seed * 100)
        cfgs = [pooled_cfg, *(pooled_cfg.monolingual(lang, seed * 100 + 1 + lang)
                              for lang in range(4))]
        pooled, *monos = (params for params, _ in ge2e.train_models(
            corpus, [(dvector.TI_SMALL, cfg, ge2e.SEGMENT_KEYWORD_QUERY) for cfg in cfgs]))
        run = {"seed": seed,
               "pooled_unseen": eer(pooled, held_out),
               "pooled_seen": {}, "mono_matched": {}, "mono_unseen": {}}
        for lang, mono in enumerate(monos):
            run["pooled_seen"][lang] = eer(pooled, lang)
            run["mono_matched"][lang] = eer(mono, lang)
            run["mono_unseen"][lang] = eer(mono, held_out)
        runs.append(run)
    return runs
