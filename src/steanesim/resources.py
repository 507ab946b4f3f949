"""CNOT budgets per error-correction period, runtime and depth-limit checks.

The per-period counts at k=1 are cross-checked against the assembled
circuits (labeled CNOTs; a repeated syndrome round reuses its number, and
the flag scheme contributes CN1-CN16). Per extra concatenation level every
CNOT is replaced transversally, so counts grow by a factor of 7 per level
(an estimate).
"""
from __future__ import annotations

import math
from collections import namedtuple

from . import pinned
from .builders import build_full_ec_circuit, build_t_gadget, build_toffoli_gadget
from .depth import BlockDepth

LEVEL_GROWTH_FACTOR = 7


RuntimeEstimate = namedtuple("RuntimeEstimate", ("total_cnots", "cnot_time", "seconds"))  # int, float, float


def derived_cnot_counts() -> dict[str, int]:
    """Counts recomputed from the circuit builders, in a new dict per call."""
    return {
        "transversal": build_full_ec_circuit(True, "data").count_cnot_labels(),
        "t": build_t_gadget().count_cnot_labels(),
        "toffoli": build_toffoli_gadget().count_cnot_labels(),
    }


def cnot_count(gate_class: str, k: int = 1) -> int:
    """Labeled CNOTs for one period of the gate class at concatenation level k."""
    if k < 1:
        raise ValueError("k must be >= 1")
    try:
        base = pinned.CNOTS_PER_PERIOD[gate_class]
    except KeyError:
        raise ValueError(f"unknown gate class {gate_class!r}") from None
    return base * LEVEL_GROWTH_FACTOR ** (k - 1)


def estimate_runtime(
    gate_counts: dict[str, int],
    k: int = 1,
    cnot_time: float = pinned.CNOT_TIME_SECONDS,
) -> RuntimeEstimate:
    """Total CNOTs across gate classes times the per-CNOT time bound."""
    if not 0 < cnot_time < math.inf:  # NaN included
        raise ValueError(f"cnot_time must be positive and finite, got {cnot_time}")
    total = 0
    for gate_class, count in gate_counts.items():
        if count < 0:
            raise ValueError("gate counts must be nonnegative")
        total += count * cnot_count(gate_class, k)
    try:
        seconds = total * cnot_time
    except OverflowError:  # a CNOT count too large for a float
        seconds = math.inf
    if not math.isfinite(seconds):
        raise ValueError(f"gate counts {gate_counts} at k={k} with cnot_time {cnot_time} give a runtime "
                         "past a float's range")
    return RuntimeEstimate(total, cnot_time, seconds)


# k, x, per_qubit_depth, limit: int; passed: bool; max_admissible_k: int
DepthCheck = namedtuple("DepthCheck", ("k", "x", "per_qubit_depth", "limit", "passed", "max_admissible_k"))


def period_depth(block: BlockDepth, k: int, x: int) -> int:
    """Deepest per-qubit effective depth in one period at level k.

    The first-position lineage accumulates R1 per level; the syndrome and
    recovery work adds gamma per algorithm step.
    """
    return k * block.R[0] + block.gamma * x


def check_permitted_depth(block: BlockDepth, k: int, x: int, limit: int = pinned.PERMITTED_DEPTH) -> DepthCheck:
    """Flag any qubit whose per-period operation count exceeds the limit."""
    if limit <= 0:
        raise ValueError("limit must be positive")
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    if block.R[0] < 1:
        raise ValueError(f"R1 must be >= 1 to bound the level, got {block.R[0]}")
    depth = period_depth(block, k, x)
    max_k = max(0, (limit - block.gamma * x) // block.R[0])
    return DepthCheck(k, x, depth, limit, depth <= limit, max_k)
