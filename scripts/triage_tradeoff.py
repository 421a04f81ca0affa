#!/usr/bin/env python3
"""Accuracy/cost trade-off of the confidence-band triage on a score file.

Reads scores.tsv from a pipeline run, sweeps symmetric-ish bands on a grid,
and prints the Pareto frontier of (trigger rate at p=0.5, triaged EER) with
the implied latency and flops per decision.

    python scripts/triage_tradeoff.py --scores scores/scores.tsv
"""

import argparse
import sys

from svcascade import dvector, scoring, triage
from svcascade.fusion import FusionWeight, sweep_fusion_weight


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scores", required=True)
    parser.add_argument("--band-step", type=float, default=0.02)
    parser.add_argument("--keyword-seconds", type=float, default=0.7)
    parser.add_argument("--query-seconds", type=float, default=3.0)
    parser.add_argument("--keyword-frames", type=int, default=70)
    parser.add_argument("--query-frames", type=int, default=300)
    args = parser.parse_args()

    scores = scoring.load_scores(args.scores)
    sweep = sweep_fusion_weight(scores, grid_step=0.01)
    alpha = FusionWeight(sweep.alpha_star)
    print(f"# alpha*={sweep.alpha_star:.2f} fused EER={sweep.eer_at_alpha_star:.4f}",
          file=sys.stderr)

    cost = triage.CostModel(
        keyword_seconds=args.keyword_seconds, query_seconds=args.query_seconds,
        td_flops=dvector.flops_per_utterance(dvector.TD_SPEC, args.keyword_frames),
        ti_flops=dvector.flops_per_utterance(
            dvector.TI_SPEC, args.keyword_frames + args.query_frames))

    cells = triage.sweep_bands(scores, -1.0, 1.0, args.band_step, alpha)
    frontier = []
    for cell in sorted(cells, key=lambda c: (c.trigger_rate, c.eer)):
        if not frontier or cell.eer < frontier[-1].eer - 1e-12:
            frontier.append(cell)

    print("trigger_rate\teer\tband\tlatency_s\tmflops")
    for cell in frontier:
        seconds, flops = cost.expected(cell.trigger_rate)
        print("%.3f\t%.4f\t[%.2f, %.2f]\t%.2f\t%.1f" % (
            cell.trigger_rate, cell.eer, cell.lower, cell.upper, seconds, flops / 1e6))
    return 0


if __name__ == "__main__":
    sys.exit(main())
