#!/usr/bin/env python3
"""Convergence-rate probe on the bimodal target.

Runs the fixed-step and fully-corrective policies for a longer horizon,
averages the KL curves over seeds, and writes them as a CSV alongside the
fitted log-log slope (corrective) and the 1/t envelope constant (fixed step).

Usage:
    python3 scripts/rate_probe.py --out rate_curves.csv [--iters 16]
"""

import argparse
import csv
import sys

import numpy as np

from boostvi import Variant, run_boosting, synthetic_bimodal_target, variant_config


def mean_curve(variant: Variant, iters: int, seeds) -> np.ndarray:
    model = synthetic_bimodal_target()
    curves = []
    for seed in seeds:
        _, trace = run_boosting(model, variant_config(variant, seed, iters))
        kl = [r.kl_oracle for r in trace.records]
        if variant is Variant.FIXED_STEP:
            kl = np.minimum.accumulate(kl)  # best iterate so far
        curves.append(kl)
    return np.mean(curves, axis=0)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", required=True, help="output CSV path")
    ap.add_argument("--iters", type=int, default=16)
    ap.add_argument("--seeds", type=int, default=3)
    args = ap.parse_args(argv)
    # the corrective slope is fitted at t = 2, 4, 8 and min(16, iters)
    if args.iters < 8:
        ap.error(f"--iters must be >= 8, got {args.iters}")
    if args.seeds < 1:
        ap.error(f"--seeds must be >= 1, got {args.seeds}")

    seeds = range(1, args.seeds + 1)
    fc = mean_curve(Variant.FULLY_CORRECTIVE, args.iters, seeds)
    fx = mean_curve(Variant.FIXED_STEP, args.iters, seeds)

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "kl_fully_corrective", "kl_fixed_step_best"])
        for t in range(len(fc)):
            w.writerow([t, f"{fc[t]:.6g}", f"{fx[t]:.6g}"])

    ts = np.array([2, 4, 8, min(16, args.iters)])
    slope = float(np.polyfit(np.log(ts), np.log(fc[ts]), 1)[0])
    t = np.arange(1, len(fx))
    envelope = float(np.max(t * fx[1:]))
    print(f"corrective log-log slope over t={ts.tolist()}: {slope:.3f}")
    print(f"fixed-step envelope constant (max t * err): {envelope:.3f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
