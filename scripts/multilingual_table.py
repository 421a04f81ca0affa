#!/usr/bin/env python3
"""Held-out-language experiment: does pooling languages help on an unseen one?

Generates a corpus with one extra language held out of training, trains a
pooled model on the rest plus one monolingual model per training language,
then prints EER (%) of every model on every language, repeated over seeds.

    python scripts/multilingual_table.py --languages 5 --seeds 3
"""

import argparse
import statistics
import sys

import numpy as np

from svcascade import dvector, ge2e, metrics, scoring, synthcorpus


def eer_for(params, corpus, trials):
    """EER of a model trained on keyword+query, scored on that segment."""
    scores = scoring.system_scores(params, ge2e.SEGMENT_KEYWORD_QUERY, corpus, trials)
    labels = np.array([t.is_target for t in trials])
    return metrics.compute_eer(scores[labels], scores[~labels]).eer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--languages", type=int, default=5,
                        help="total languages; the last one is held out")
    parser.add_argument("--seeds", type=int, default=3)
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--trials", type=int, default=150)
    args = parser.parse_args()
    held_out = args.languages - 1
    trained = list(range(held_out))

    rows = {name: [] for name in ["pooled"] + [f"mono{lang}" for lang in trained]}
    for seed in range(args.seeds):
        spec = synthcorpus.CorpusSpec(
            languages=args.languages, speakers_per_language=10,
            utterances_per_speaker=8, keyword_frames=10, query_frames=30,
            feature_dim=16, utterance_noise_scale=0.6,
            language_shift_scale=1.2, seed=seed)
        corpus = synthcorpus.generate_corpus(spec)
        trials = {lang: synthcorpus.split_trials(
            corpus, args.trials, args.trials, 3,
            seed=50 + seed * 10 + lang, languages=[lang])
            for lang in range(args.languages)}

        def train(weights, seed):
            cfg = ge2e.TrainConfig(batch_n=4, batch_m=3, steps=args.steps,
                                   language_weights=weights, seed=seed)
            params, _ = ge2e.train(corpus, dvector.TI_SMALL, cfg,
                                   ge2e.SEGMENT_KEYWORD_QUERY)
            return params

        models = {"pooled": train({lang: 1.0 for lang in trained}, seed * 100)}
        for lang in trained:
            models[f"mono{lang}"] = train({lang: 1.0}, seed * 100 + 1 + lang)
        for name, params in models.items():
            rows[name].append([eer_for(params, corpus, trials[lang])
                               for lang in range(args.languages)])
        print(f"seed {seed} done", file=sys.stderr)

    header = ["model"] + [f"lang{lang}" for lang in range(args.languages)]
    header[-1] += " (unseen)"
    print("median EER %% over %d seeds:" % args.seeds)
    print("\t".join(header))
    for name, per_seed in rows.items():
        medians = [statistics.median(run[lang] for run in per_seed)
                   for lang in range(args.languages)]
        print("\t".join([name] + ["%.2f" % (100 * m) for m in medians]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
