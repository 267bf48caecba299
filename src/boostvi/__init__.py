"""Boosting black-box variational inference via functional Frank-Wolfe."""

from .densities import (
    BaseDensity,
    Family,
    Mixture,
    QuadratureGrid,
    kl_gaussian_closed,
    quadrature_kl,
)
from .models import (
    DataError,
    Dataset,
    TargetModel,
    auroc,
    logistic_regression_model,
    matrix_factorization_model,
    predictive_metrics,
    synthetic_bimodal_target,
)
from .lmo import (
    Estimator,
    LmoConfig,
    LmoResult,
    elbo_estimate,
    lambda_at,
    lmo_solve,
    relbo_estimate,
    relbo_grad,
)
from .boosting import (
    BoostTrace,
    FwConfig,
    GapEstimate,
    IterationRecord,
    Variant,
    certificate_gap,
    curvature_probe,
    fixed_step_gamma,
    fully_corrective_weights,
    line_search_gamma,
    mixture_step,
    run_boosting,
    variant_config,
)
from .harness import (
    ExperimentConfig,
    RunSummary,
    load_csv,
    make_lowrank_matrix,
    make_separable_classification,
    run_experiment,
    split,
)

__version__ = "0.1.0"
