#!/usr/bin/env python3
"""Runs the full experiment pipeline from one config file.

Equivalent to invoking the CLI subcommands in order; stops at the first
failure and propagates its exit code.  After each stage it prints the
stage's wall time on stdout (`== svcascade <stage>: 1.234 s`), never into
an artifact directory, so reruns still write identical artifacts.

    python scripts/run_pipeline.py --config configs/desk.cfg [--seed N]
"""

import argparse
import sys
import time

from svcascade import cli

# every stage in CLI order; xeval, the slow one, runs last and only on request
ORDER = tuple(command for command in cli.COMMANDS if command != "xeval")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--config", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--with-xeval", action="store_true",
                        help="also train per-language models and write the "
                             "cross-language EER matrix (slow)")
    args = parser.parse_args()
    commands = ORDER + (("xeval",) if args.with_xeval else ())
    for command in commands:
        print(f"== svcascade {command}", flush=True)
        start = time.perf_counter()
        code = cli.run(command, args.config, args.seed)
        print(f"== svcascade {command}: {time.perf_counter() - start:.3f} s", flush=True)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
