#!/usr/bin/env python3
"""Produce the data behind the bimodal-target comparison figure.

Runs the three step-size policies on the two-mode 1-D target for a handful
of seeds, writes trace/summary/density artifacts per variant, and prints a
small table of final KL values.

Usage:
    python3 scripts/bimodal_figure_data.py --out runs/bimodal [--iters 10]
"""

import argparse
import sys
from pathlib import Path

from boostvi import ExperimentConfig, Variant, run_experiment, variant_config


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output directory root")
    ap.add_argument("--iters", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args(argv)
    if args.iters < 0:
        ap.error(f"--iters must be >= 0, got {args.iters}")
    if args.seeds < 1:
        ap.error(f"--seeds must be >= 1, got {args.seeds}")

    print(f"{'variant':<18} {'mean final KL':>14} {'std':>8}")
    for variant in Variant:
        cfg = ExperimentConfig(
            model="bimodal",
            n_seeds=args.seeds,
            out_dir=str(Path(args.out) / variant.value),
            fw=variant_config(variant, seed=1, max_iters=args.iters),
        )
        summary = run_experiment(cfg)
        print(f"{variant.value:<18} {summary.mean['kl_oracle']:>14.4f} "
              f"{summary.std['kl_oracle']:>8.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
