"""Summaries of repeated timings."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10  # samples that must lie beyond a reported tail percentile


def tail_percentile(n: int):
    """Highest whole percentile with at least TAIL_BEYOND of n samples beyond it."""
    if n <= TAIL_BEYOND:
        return None
    return math.floor(100.0 * (n - TAIL_BEYOND) / n)


def timing_summary(samples) -> dict:
    """Median, the highest percentile with >= 10 samples beyond it, and the count."""
    values = sorted(float(v) for v in samples)
    n = len(values)
    p = tail_percentile(n)
    out = {"median": statistics.median(values), "n": n, "tail_pct": p, "tail": None}
    if p is not None:
        # nearest-rank percentile: leaves n - rank >= TAIL_BEYOND samples above
        rank = math.ceil(p / 100.0 * n)
        out["tail"] = values[rank - 1]
    return out


def describe(name: str, summary: dict, unit: str) -> str:
    text = f"{name}: median {summary['median']:.6g} {unit} (n={summary['n']}"
    if summary["tail"] is not None:
        text += f", p{summary['tail_pct']} {summary['tail']:.6g} {unit}"
    return text + ")"
