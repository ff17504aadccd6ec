"""The traced benchmark wraps dimerlab's functions and methods by name
(perfbench/spans.py); a renamed one would drop its layer from the traces
without an error.  Every name it wraps must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize("module, name, span", spans.FUNCTIONS, ids=[f[2] for f in spans.FUNCTIONS])
def test_wrapped_functions_resolve(module, name, span):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize(
    "module, cls, method, span",
    spans.METHODS + spans.COUNTED_METHODS,
    ids=[m[3] for m in spans.METHODS + spans.COUNTED_METHODS],
)
def test_wrapped_methods_resolve(module, cls, method, span):
    assert callable(getattr(getattr(importlib.import_module(module), cls), method))
