"""The package names the benchmark's tracer resolves, and the caches it clears.

``perfbench/spans.py`` wraps functions by module and name, and binds some
of their arguments by name to count propagations and oracle faults. A
rename in the package would break a traced run of the benchmark.
``perfbench/run.py`` clears every ``lru_cache`` it finds in the package
before an in-process op, so each op starts as cold as a fresh process.
Within one variant-sweep op, the views, ledgers, classes, depth profile and
flag audit share one classification per (view, ledger).
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(stem: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = load_perfbench("spans")
    targets = list(spans.SPAN_TARGETS) + list(spans.COUNT_TARGETS)
    missing = [
        f"{module}.{name}" for module, name, _ in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_bound_arguments_are_parameters():
    spans = load_perfbench("spans")
    modules = {name: module for module, name, _ in spans.SPAN_TARGETS}
    propagate = getattr(importlib.import_module(modules[spans.PROPAGATE]), spans.PROPAGATE)
    oracle = getattr(importlib.import_module(modules[spans.ORACLE]), spans.ORACLE)
    assert {"circuit", "label", "side", "pauli"} <= set(inspect.signature(propagate).parameters)
    assert "n_faults" in inspect.signature(oracle).parameters


def test_fault_map_memo_is_cleared_between_ops():
    # A traced reproduce command runs in-process and must start as cold as a
    # fresh process: the run clears every lru_cache it finds in the package,
    # and the fault-map memo must be one of them.
    from steanesim import depth, faults
    from steanesim.builders import build_full_ec_circuit

    run_module = load_perfbench("run")
    run_module.depth = depth  # bound by the benchmark's main() before a Run is made
    run = run_module.Run(workload=None)
    memos = (faults._analysis,)  # the map and its view tables, which hold their classes
    assert all(memo in run.caches for memo in memos)
    circuit = build_full_ec_circuit()
    faults.check_flag_conditions(circuit)  # fills every memo
    assert all(memo.cache_info().currsize for memo in memos)
    run.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0]
    misses = faults._analysis.cache_info().misses
    faults.fault_map(circuit)
    assert faults._analysis.cache_info().misses == misses + 1


def test_variant_sweep_op_classifies_each_view_and_ledger_once(monkeypatch):
    from steanesim import depth, faults
    from steanesim.builders import build_full_ec_circuit

    run_module = load_perfbench("run")
    run_module.depth, run_module.faults = depth, faults  # bound by the benchmark's main()
    circuit = build_full_ec_circuit()
    faults._analysis.cache_clear()
    classify, calls = faults._classify, []
    monkeypatch.setattr(faults, "_classify", lambda table, ledger: calls.append((id(table.entries), ledger))
                        or classify(table, ledger))
    x_ledger, z_ledger, *_ = run_module.analyse(circuit)
    view = {id(faults.view_table(circuit, t).entries): t for t in "XYZ"}
    classified = [(view[entries], ledger) for entries, ledger in calls]
    assert len(classified) == len(set(classified))
    assert set(classified) == {("X", frozenset()), ("Z", frozenset()),
                               ("X", x_ledger), ("Y", x_ledger | z_ledger), ("Z", z_ledger)}
