"""The benchmark's op generators are pure functions of the seed.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_workloads.py
"""
from __future__ import annotations

import itertools
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from steanesim.builders import build_full_ec_circuit  # noqa: E402
from steanesim.circuits import parse, serialize  # noqa: E402
from steanesim.faults import reconstruct_meta, view_table  # noqa: E402

GENERATORS = (W.reproduce_passes, W.variant_passes, W.threshold_passes)


def first_ops(generator, seed, n_passes):
    return [op for ops in itertools.islice(generator(seed), n_passes) for op in ops]


def test_same_seed_same_ops():
    for generator in GENERATORS:
        assert first_ops(generator, 7, 8) == first_ops(generator, 7, 8)


def test_other_seed_other_ops():
    for generator in GENERATORS:
        assert first_ops(generator, 7, 8) != first_ops(generator, 8, 8)


def test_no_query_repeats():
    ops = first_ops(W.threshold_passes, 3, 150)
    assert len(set(ops)) == len(ops) == 150 * 100


def test_every_pinned_cell_in_first_six_passes():
    assert set(W.pinned_cells()) <= set(first_ops(W.threshold_passes, 5, 6))


def test_no_circuit_repeats():
    ops = first_ops(W.variant_passes, 3, 5)
    assert {op.config for op in ops} == set(W.STREAM_CONFIGS)
    texts = [serialize(build_full_ec_circuit(**cfg.build_kwargs())) for cfg in W.STREAM_CONFIGS]
    texts += [W.relabel(serialize(build_full_ec_circuit(**op.config.build_kwargs())), op.relabel_seed) for op in ops]
    assert len(set(texts)) == len(texts)


def test_relabel_keeps_the_analysis():
    circuit = build_full_ec_circuit(include_flags=True, block_kind="aux", syndrome_reps=3)
    text = serialize(circuit)
    moved = reconstruct_meta(parse(W.relabel(text, 12345)))
    assert moved.gates != circuit.gates
    for view in "XYZ":
        a = view_table(circuit, view).sorted_entries()
        b = view_table(moved, view).sorted_entries()
        assert [(e.signature, [loc for loc, _ in e.members]) for e in a] == \
               [(e.signature, [loc for loc, _ in e.members]) for e in b]
