"""The benchmark's tracer patches program names from outside the package;
every name it patches or reads must resolve, so that a deletion which breaks
the tracer fails here and not only in a benchmark run."""

import dataclasses
import importlib
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from boostvi import boosting, harness
from boostvi.densities import BaseDensity, Mixture
from boostvi.models import TargetModel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _perfbench_module(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


@pytest.fixture(scope="module")
def tracer():
    return _perfbench_module("tracer")


def test_module_spans_resolve(tracer):
    for mod_name, attr, _ in tracer.MODULE_SPANS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_method_spans_are_class_attributes(tracer):
    # the tracer patches cls.__dict__ entries, so inherited names do not count
    classes = {"Mixture": Mixture, "BaseDensity": BaseDensity}
    for cls_name, attr, _ in tracer.METHOD_SPANS:
        assert attr in classes[cls_name].__dict__, (cls_name, attr)


def test_model_builders_resolve(tracer):
    for mod_name, attr in tracer.MODEL_BUILDERS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (mod_name, attr)


def test_model_callables_are_target_model_fields(tracer):
    fields = {f.name for f in dataclasses.fields(TargetModel)}
    for field, _ in tracer.MODEL_CALLABLES:
        assert field in fields, field


@pytest.mark.parametrize("workload", ["bimodal-corrective", "logistic-fixed",
                                      "factorization-linesearch"])
def test_model_callables_take_a_kernel_batch(tracer, workload):
    # the kernel microbenchmarks call each set model callable on a (32, D)
    # batch; a rename or a call form that breaks them fails here
    config = _perfbench_module("workloads").WORKLOADS[workload].config
    cfg = harness.ExperimentConfig(model=config["model"],
                                   model_params=config.get("model_params", {}))
    model, _ = harness._build_model(cfg, seed=1)
    z = 0.5 * np.random.default_rng(0).standard_normal((32, model.dim))
    called = 0
    for field, _ in tracer.MODEL_CALLABLES:
        fn = getattr(model, field)
        if fn is not None:
            out = fn(z)
            parts = out if isinstance(out, tuple) else (out,)
            assert all(np.isfinite(part).all() for part in parts), field
            called += 1
    assert called >= 3  # log-joint, value-and-gradient and one extra


def test_mixture_kernels_take_their_call_forms():
    # the kernel microbenchmarks build a mixture per case with kernels._mixture
    # and time one method on its own samples; a change to the Mixture API
    # that breaks them fails here, at n cut to 32
    kernels = _perfbench_module("kernels")
    rng = np.random.default_rng(0)
    for method, k, _ in kernels.MIXTURE_CASES:
        mix = kernels._mixture(k, rng)
        z = mix.sample(32, rng)
        out = getattr(mix, method)(z)
        assert out.shape[0] == 32 and np.isfinite(out).all(), (method, k)


# the harness names the tracer and the benchmark runner patch; the harness
# must look each up in its module globals at call time
HARNESS_LOOKUPS = (
    "synthetic_bimodal_target", "logistic_regression_model", "matrix_factorization_model",
    "predictive_metrics", "_build_dataset", "split", "run_boosting",
)


@pytest.mark.parametrize("model, expected", [
    ("bimodal", ["_build_dataset", "synthetic_bimodal_target", "run_boosting"]),
    ("logistic", ["_build_dataset", "split", "logistic_regression_model", "run_boosting",
                  "predictive_metrics"]),
    ("matrix_factorization", ["_build_dataset", "split", "matrix_factorization_model",
                              "run_boosting", "predictive_metrics"]),
])
def test_harness_calls_patched_names(monkeypatch, model, expected):
    called = []

    def recorder(name, fn):
        def record(*args, **kwargs):
            called.append(name)
            return fn(*args, **kwargs)
        return record

    # no fit: the stubs return a one-record trace and no metrics
    stubs = {
        "run_boosting": lambda model, cfg, progress=None: (None, SimpleNamespace(
            records=[SimpleNamespace(train_ll=0.0, kl_oracle=None)], best_iteration=0)),
        "predictive_metrics": lambda *args, **kwargs: {},
    }
    for name in HARNESS_LOOKUPS:
        monkeypatch.setattr(harness, name, recorder(name, stubs.get(name, getattr(harness, name))))
    harness.run_single_seed(harness.ExperimentConfig(model=model), seed=1)
    assert called == expected


# the boosting names the tracer patches; run_boosting must look each up in
# its module globals at call time, or the tracer's span for it reads zero
BOOSTING_LOOKUPS = (
    "lmo_solve", "certificate_gap", "fully_corrective_weights", "line_search_gamma",
    "_kl_oracle",
)


@pytest.mark.parametrize("variant, expected", [
    (boosting.Variant.FIXED_STEP, {"lmo_solve", "certificate_gap", "_kl_oracle"}),
    (boosting.Variant.LINE_SEARCH, {"lmo_solve", "certificate_gap", "line_search_gamma",
                                    "_kl_oracle"}),
    (boosting.Variant.FULLY_CORRECTIVE, {"lmo_solve", "certificate_gap",
                                         "fully_corrective_weights", "_kl_oracle"}),
])
def test_run_boosting_calls_patched_names(monkeypatch, variant, expected):
    called = set()

    def recorder(name, fn):
        def record(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return record

    for name in BOOSTING_LOOKUPS:
        monkeypatch.setattr(boosting, name, recorder(name, getattr(boosting, name)))
    cfg = boosting.FwConfig(variant=variant, max_iters=1, gap_samples=64, seed=1,
                            lmo=boosting.LmoConfig(n_steps=20, n_mc_samples=8))
    boosting.run_boosting(harness.synthetic_bimodal_target(), cfg)
    assert called == expected
