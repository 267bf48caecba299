"""Span tracing installed from outside the program.

``Tracer.install`` replaces layer entry points with timing wrappers:

* module attributes of ``boostvi.cli``, ``boostvi.harness``,
  ``boostvi.boosting`` and ``boostvi.lmo`` (the names each module looks up at
  call time);
* the ``Mixture`` and ``BaseDensity`` methods;
* the batch callables of every ``TargetModel`` the harness builds, swapped in
  through ``dataclasses.replace`` on the returned model.

Each call becomes a span (name, start, end, parent, run id) held in compact
in-memory arrays; ``uninstall`` restores the originals.  A span's layer is the
part of its name before the first dot, and a layer's self time is the time
its spans cover minus the time covered by their child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import time
from array import array

import numpy as np

LAYERS = ("cli", "harness", "boosting", "lmo", "densities", "models")

# (module, attribute, span name): each entry point where one layer calls into
# another, patched in the module that looks it up at call time
MODULE_SPANS = (
    ("boostvi.cli", "run_experiment", "harness.run_experiment"),
    ("boostvi.harness", "_build_dataset", "harness.data"),
    ("boostvi.harness", "split", "harness.data"),
    ("boostvi.harness", "predictive_metrics", "harness.predictive_metrics"),
    ("boostvi.harness", "write_artifacts", "harness.write_artifacts"),
    ("boostvi.harness", "run_boosting", "boosting.run_boosting"),
    ("boostvi.boosting", "lmo_solve", "lmo.solve"),
    ("boostvi.boosting", "certificate_gap", "boosting.certificate_gap"),
    ("boostvi.boosting", "fully_corrective_weights", "boosting.fully_corrective_weights"),
    ("boostvi.boosting", "line_search_gamma", "boosting.line_search_gamma"),
    ("boostvi.boosting", "_kl_oracle", "boosting.oracle"),
    ("boostvi.boosting", "quadrature_kl", "densities.quadrature_kl"),
    ("boostvi.boosting", "standard_noise", "densities.standard_noise"),
    ("boostvi.lmo", "standard_noise", "densities.standard_noise"),
)

METHOD_SPANS = (
    ("Mixture", "log_prob", "densities.mixture_log_prob"),
    ("Mixture", "grad_log_prob", "densities.mixture_grad_log_prob"),
    ("Mixture", "sample", "densities.mixture_sample"),
    ("BaseDensity", "log_prob", "densities.atom_log_prob"),
    ("BaseDensity", "grad_log_prob", "densities.atom_grad_log_prob"),
    ("BaseDensity", "sample", "densities.atom_sample"),
    ("BaseDensity", "transform", "densities.atom_transform"),
    ("BaseDensity", "__post_init__", "densities.atom_construct"),
)

MODEL_BUILDERS = (
    ("boostvi.harness", "synthetic_bimodal_target"),
    ("boostvi.harness", "logistic_regression_model"),
    ("boostvi.harness", "matrix_factorization_model"),
)

MODEL_CALLABLES = (
    ("log_joint_batch", "models.log_joint"),
    ("grad_log_joint_batch", "models.grad"),
    ("posterior_log_pdf", "models.posterior_log_pdf"),
    ("train_log_likelihood", "models.train_ll"),
)


class Tracer:
    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.run_id = 0
        self._saved: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self._names):
            self._names.append(name)
        stack = self._stack
        name_ids, parents, runs = self.name_id, self.parent, self.run
        starts, ends = self.start, self.end
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run_id)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` under a span of its own."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- installing ------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _traced_model(self, model):
        changes = {
            field: self.wrap(name, getattr(model, field))
            for field, name in MODEL_CALLABLES
            if getattr(model, field) is not None
        }
        return dataclasses.replace(model, **changes)

    def install(self) -> None:
        import importlib

        from boostvi.densities import BaseDensity, Mixture

        for mod_name, attr, name in MODULE_SPANS:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self.wrap(name, getattr(mod, attr)))
        classes = {"Mixture": Mixture, "BaseDensity": BaseDensity}
        for cls_name, attr, name in METHOD_SPANS:
            cls = classes[cls_name]
            self._patch(cls, attr, self.wrap(name, cls.__dict__[attr]))
        for mod_name, attr in MODEL_BUILDERS:
            mod = importlib.import_module(mod_name)
            build = getattr(mod, attr)

            def traced_build(*args, _build=build, **kwargs):
                return self._traced_model(_build(*args, **kwargs))

            self._patch(mod, attr, self.wrap("models.build", traced_build))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def arrays(self) -> dict:
        # copies, so the arrays can keep growing afterwards
        return {
            "name_id": np.array(self.name_id, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "run": np.array(self.run, dtype=np.int32),
            "start": np.array(self.start, dtype=np.float64),
            "end": np.array(self.end, dtype=np.float64),
        }

    def summary(self, run_id: int) -> dict:
        """Per span name: calls, inclusive seconds; per layer: self seconds."""
        a = self.arrays()
        sel = a["run"] == run_id
        dur = a["end"] - a["start"]
        child_time = np.zeros(len(dur))
        has_parent = a["parent"] >= 0
        np.add.at(child_time, a["parent"][has_parent], dur[has_parent])
        self_time = dur - child_time
        by_name = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        for nid, name in enumerate(self._names):
            mask = sel & (a["name_id"] == nid)
            if not mask.any():
                continue
            by_name[name] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
            }
            layer = name.split(".", 1)[0]
            layer_self[layer] = layer_self.get(layer, 0.0) + float(self_time[mask].sum())
        return {
            "by_name": by_name,
            "layer_self_s": layer_self,
            "spans": int(sel.sum()),
        }

    @staticmethod
    def span_cost_s(n: int = 100_000) -> float:
        """Seconds one span adds to a call, from wrapping a no-op function."""
        def noop():
            return None

        traced = Tracer().wrap("calibrate", noop)
        clock = time.perf_counter
        t0 = clock()
        for _ in range(n):
            noop()
        plain = clock() - t0
        t0 = clock()
        for _ in range(n):
            traced()
        return max(clock() - t0 - plain, 0.0) / n

    def durations(self, name: str, run_id: int) -> np.ndarray:
        """Seconds of every span of one name in one run."""
        a = self.arrays()
        nid = self._name_ids.get(name, -1)
        mask = (a["run"] == run_id) & (a["name_id"] == nid)
        return (a["end"] - a["start"])[mask]

    def write(self, path: str) -> None:
        """Store every span as compressed arrays plus the span-name table."""
        np.savez_compressed(
            path, names=np.array(json.dumps(self._names)), **self.arrays()
        )
