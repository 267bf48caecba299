"""The benchmark's tracer patches program names from outside the package;
every name it patches or reads must resolve, so that a deletion which breaks
the tracer fails here and not only in a benchmark run."""

import dataclasses
import importlib
import os
import sys

import pytest

from boostvi.densities import BaseDensity, Mixture
from boostvi.models import TargetModel

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("tracer")
    finally:
        sys.path.remove(PERFBENCH)


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
