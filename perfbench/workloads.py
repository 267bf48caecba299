"""The three boosting workloads: a CLI config per workload, built from the seed.

The seed reaches the program only as ``boostvi run --seed``; it selects the
synthetic data set (logistic, factorization), the train/test split and every
random stream of the Frank-Wolfe loop.  The configs themselves do not depend
on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 1

# first iterate with kl_oracle below this bound stops the time-to-KL clock;
# it is the acceptance criterion-1 bound for the fully-corrective variant
KL_TARGET = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict

    @property
    def model(self) -> str:
        return self.config["model"]

    def cli_config(self, **overrides) -> dict:
        cfg = dict(self.config)
        cfg.update(overrides)
        return cfg


WORKLOADS = {
    w.name: w
    for w in (
        # 1-D two-mode target, fully corrective: ~10 atoms, so mixture
        # log_prob/grad and the corrective weight solve dominate; the only
        # workload with a KL oracle
        Workload(
            name="bimodal-corrective",
            config={
                "model": "bimodal",
                "variant": "fullycorrective",
                "iters": 10,
                "lmo_steps": 2000,
                "mc_samples": 32,
                "lambda": "const:0.2",
                "delta": 0.5,
            },
        ),
        # logistic regression N=400 F=5, fixed step: the model log-joint is
        # ~half the run and the certificate ~28%; no step solve, so mixture or
        # corrective-solve work barely shows
        Workload(
            name="logistic-fixed",
            config={
                "model": "logistic",
                "model_params": {
                    "n": 400, "n_features": 5, "margin": 0.2, "flip_fraction": 0.1,
                },
                "variant": "fixed",
                "iters": 8,
                "lmo_steps": 1000,
                "mc_samples": 32,
                "delta": 1.0,
            },
        ),
        # 20x15 rank-2 factorization, D=105, line search: the only wide atom
        # and line-search step; every atom is rejected (gamma=0), so K stays 1
        Workload(
            name="factorization-linesearch",
            config={
                "model": "matrix_factorization",
                "model_params": {
                    "rows": 20, "cols": 15, "rank": 2, "noise": 0.1,
                    "mask_fraction": 0.5, "latent_dim": 3,
                },
                "variant": "linesearch",
                "iters": 6,
                "lmo_steps": 1000,
                "mc_samples": 32,
                "delta": 1.0,
            },
        ),
    )
}

# short run through every code path of a workload, kept out of the timings
WARMUP_OVERRIDES = {"iters": 1, "lmo_steps": 50}
