"""Output checks on one ``boostvi run`` directory.

Each check returns a list of failure messages; an empty list means the run's
outputs are correct.  The KL oracle is recomputed here, independently of the
program's quadrature, from the mixtures written to ``trace.json``.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

SIMPLEX_TOL = 1e-9
# the program's oracle: trapezoid rule on [-12, 12] with 4001 points
ORACLE_GRID = np.linspace(-12.0, 12.0, 4001)
KL_RECOMPUTE_TOL = 1e-8
BIMODAL_TARGET = {"mu": (-1.0, 1.0), "sigma": (0.5, 0.5), "pi": (0.4, 0.6)}


def load_run(run_dir: str) -> tuple[dict, dict]:
    with open(os.path.join(run_dir, "trace.json")) as fh:
        trace = json.load(fh)
    with open(os.path.join(run_dir, "summary.json")) as fh:
        summary = json.load(fh)
    return trace, summary


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def _gaussian_mixture_logpdf(z, locs, scales, weights) -> np.ndarray:
    z = z[:, None]
    comp = -0.5 * np.log(2.0 * np.pi) - np.log(scales) - 0.5 * ((z - locs) / scales) ** 2
    with np.errstate(divide="ignore"):
        return _logsumexp(comp + np.log(weights), axis=1)


def _trapezoid(y, x) -> float:
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(x)))


def kl_to_bimodal_target(mixture: dict) -> float:
    """KL(q || p) on the oracle grid for a 1-D Gaussian mixture from trace.json."""
    z = ORACLE_GRID
    t = BIMODAL_TARGET
    lp = _gaussian_mixture_logpdf(z, np.array(t["mu"]), np.array(t["sigma"]),
                                  np.array(t["pi"]))
    lp = lp - (lp.max() + math.log(_trapezoid(np.exp(lp - lp.max()), z)))
    locs = np.array([a["loc"][0] for a in mixture["atoms"]])
    scales = np.array([a["scale"][0] for a in mixture["atoms"]])
    lq = _gaussian_mixture_logpdf(z, locs, scales, np.array(mixture["weights"]))
    dq = np.exp(lq)
    with np.errstate(invalid="ignore"):
        return _trapezoid(np.where(dq > 0, dq * (lq - lp), 0.0), z)


def check_simplex(trace: dict) -> list[str]:
    errors = []
    for ti, tr in enumerate(trace["traces"]):
        for mi, m in enumerate(tr["mixtures"]):
            w = np.asarray(m["weights"], dtype=float)
            if len(w) != len(m["atoms"]):
                errors.append(f"trace {ti} mixture {mi}: {len(w)} weights for "
                              f"{len(m['atoms'])} atoms")
            elif np.any(w < 0) or abs(w.sum() - 1.0) > SIMPLEX_TOL:
                errors.append(f"trace {ti} mixture {mi}: weights off the simplex "
                              f"(min {w.min():.3g}, sum {w.sum():.12f})")
    return errors


def check_finite(trace: dict, summary: dict) -> list[str]:
    errors = []
    for key, value in summary["per_seed"][0].items():
        if value is None or not math.isfinite(value):
            errors.append(f"metric {key} is not finite: {value}")
    for tr in trace["traces"]:
        for rec in tr["records"]:
            for key in ("gamma", "train_ll", "relbo_estimate", "gap_estimate",
                        "gap_stderr", "kl_oracle"):
                value = rec.get(key)
                if value is not None and not math.isfinite(value):
                    errors.append(f"record t={rec['t']}: {key} is not finite: {value}")
    return errors


def check_certificate(trace: dict, delta: float) -> list[str]:
    """Criterion 3: gap / delta + 4 * stderr covers the KL of every iterate."""
    errors = []
    for tr in trace["traces"]:
        for rec in tr["records"]:
            if rec["gap_estimate"] is None or rec["kl_oracle"] is None:
                continue
            slack = rec["gap_estimate"] / delta + 4.0 * rec["gap_stderr"] - rec["kl_oracle"]
            if slack < 0:
                errors.append(f"record t={rec['t']}: certificate misses KL by {-slack:.4g}")
    return errors


def check_kl_oracle(trace: dict) -> list[str]:
    """The program's kl_oracle agrees with an independent recomputation."""
    errors = []
    for tr in trace["traces"]:
        for rec, mix in zip(tr["records"], tr["mixtures"]):
            ours = kl_to_bimodal_target(mix)
            if rec["kl_oracle"] is None or abs(rec["kl_oracle"] - ours) > KL_RECOMPUTE_TOL:
                errors.append(f"record t={rec['t']}: kl_oracle {rec['kl_oracle']} but "
                              f"recomputed {ours:.10g}")
    return errors


def check_run(run_dir: str, model: str, delta: float) -> tuple[list[str], dict, dict]:
    """All per-run checks; returns (failures, trace, summary)."""
    trace, summary = load_run(run_dir)
    errors = check_simplex(trace) + check_finite(trace, summary)
    if model == "bimodal":
        errors += check_certificate(trace, delta) + check_kl_oracle(trace)
    return errors, trace, summary


def check_reference(quality: dict, reference: dict) -> list[str]:
    """Quality at the default seed is no worse than its recorded reference.

    ``reference`` maps a metric to ``{"value", "tol", "better"}``; a metric may
    be better than the reference by any amount, so a quality gain passes.
    """
    errors = []
    for key, ref in reference.items():
        value = quality.get(key)
        if value is None:
            errors.append(f"reference metric {key} missing from the run")
            continue
        worse = ref["value"] - value if ref["better"] == "higher" else value - ref["value"]
        if worse > ref["tol"]:
            errors.append(f"{key} = {value:.6g} is worse than its reference "
                          f"{ref['value']:.6g} by more than {ref['tol']:g}")
    return errors
