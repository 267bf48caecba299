"""Kernel microbenchmarks on warmed inputs.

Mixture ``log_prob`` / ``grad_log_prob`` on 1-D Gaussian mixtures of K atoms
at the LMO's batch size n=32 (and n=2048, the certificate's batch), and the
workload's own model: its log-joint at n=32 and n=2048 and its gradient at
n=32.  The model is the one the harness built in a fit of the workload, so
the kernels see the data that fit saw.  Every call is timed on its own, so
each kernel reports a median and a tail percentile over many samples.
"""

from __future__ import annotations

import time

import numpy as np

from stats import timing_summary

N_WARM = 20
N_SAMPLES = 300
# slow kernels stop early: after this many seconds, once they have MIN_SAMPLES
BUDGET_S = 1.0
MIN_SAMPLES = 30

MIXTURE_CASES = (
    ("log_prob", 1, 32), ("log_prob", 5, 32), ("log_prob", 10, 32), ("log_prob", 10, 2048),
    ("grad_log_prob", 1, 32), ("grad_log_prob", 5, 32), ("grad_log_prob", 10, 32),
)


def _time_calls(fn, arg) -> list[float]:
    for _ in range(N_WARM if len(arg) <= 32 else 2):
        fn(arg)
    clock = time.perf_counter
    out = []
    deadline = clock() + BUDGET_S
    while len(out) < N_SAMPLES and (len(out) < MIN_SAMPLES or clock() < deadline):
        t0 = clock()
        fn(arg)
        out.append((clock() - t0) * 1e6)
    return out


def _mixture(k: int, rng):
    from boostvi.densities import BaseDensity, Family, Mixture

    atoms = [
        BaseDensity(Family.GAUSSIAN, [loc], [scale])
        for loc, scale in zip(rng.uniform(-2.0, 2.0, k), rng.uniform(0.2, 1.0, k))
    ]
    return Mixture.from_unnormalized(atoms, rng.uniform(0.5, 1.5, k))


def run_kernels(seed: int, model) -> dict:
    """Name -> timing summary (microseconds per call); ``model`` is the
    workload's ``TargetModel``."""
    rng = np.random.default_rng((seed, 31))
    results = {}
    for method, k, n in MIXTURE_CASES:
        mix = _mixture(k, rng)
        z = mix.sample(n, rng)
        name = f"densities.kernel.{method}_us.K{k}.n{n}"
        results[name] = timing_summary(_time_calls(getattr(mix, method), z))
    for n in (32, 2048):
        z = rng.standard_normal((n, model.dim)) * 0.5
        results[f"models.kernel.log_joint_us.n{n}"] = timing_summary(
            _time_calls(model.log_joint_batch, z))
    z = rng.standard_normal((32, model.dim)) * 0.5
    results["models.kernel.grad_us.n32"] = timing_summary(
        _time_calls(model.grad_log_joint_batch, z))
    return results
