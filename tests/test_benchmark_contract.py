"""The package names the benchmark's tracer resolves.

``perfbench/spans.py`` wraps functions by module and name, and binds some
of their arguments by name to count propagations and oracle faults. A
rename in the package would break a traced run of the benchmark.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_spans()
    targets = list(spans.SPAN_TARGETS) + list(spans.COUNT_TARGETS)
    missing = [
        f"{module}.{name}" for module, name, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_bound_arguments_are_parameters():
    spans = load_spans()
    modules = {name: module for module, name, _ in spans.SPAN_TARGETS}
    propagate = getattr(importlib.import_module(modules[spans.PROPAGATE]), spans.PROPAGATE)
    oracle = getattr(importlib.import_module(modules[spans.ORACLE]), spans.ORACLE)
    assert {"circuit", "label", "side", "pauli"} <= set(inspect.signature(propagate).parameters)
    assert "n_faults" in inspect.signature(oracle).parameters
