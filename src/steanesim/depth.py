"""Effective fault-location counts per block qubit and the period coefficients.

A location-side counts toward a qubit's depth for an error type when a
fault of that type there has any observable effect (it is not result-
neutral) and it is not covered by the perfect-operation ledger. Both copies
of a repeated syndrome round count. Hadamard faults never enter the X-type
depth; each H contributes its one effective fault to the Z-type depth of
its qubit. For the auxiliary block only X-type errors are analyzed: the
Y-type depth equals the X-type depth and the Z-type depth is zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil

from .builders import build_full_ec_circuit
from .circuits import DATA_QUBITS, Circuit
from .faults import (
    FaultLocation,
    PerfectOpLedger,
    counts_as_member,
    derive_perfect_assumptions,
    enumerable_locations,
    fault_map,
    view_table,
)


@dataclass(frozen=True)
class DepthProfile:
    """Per-qubit effective fault-location counts, qubits 1..7."""

    r_x: tuple[int, ...]
    r_y: tuple[int, ...]
    r_z: tuple[int, ...]


@dataclass(frozen=True)
class BlockDepth:
    """Period coefficients R_1..R_7 and the syndrome/recovery depth."""

    R: tuple[int, ...]
    gamma: int = 4  # the paper's syndrome/recovery depth

    def __post_init__(self):
        if len(self.R) != 7:
            raise ValueError("expected seven R coefficients")


def count_fault_locations(
    circuit: Circuit,
    x_ledger: PerfectOpLedger = frozenset(),
    z_ledger: PerfectOpLedger = frozenset(),
) -> DepthProfile:
    """Tally effective locations per block qubit for X, Y and Z faults.

    A location counts when its fault is a classified member
    (:func:`~steanesim.faults.counts_as_member`): a labeled-gate (C/H) fault
    counts on a syndrome, readout or residual trace, a flag CNOT's wire-leg
    fault on any observable effect. Both syndrome-round copies count.
    Hadamards contribute their one effective fault to the Z-type depth only.
    """
    n = len(DATA_QUBITS)
    y_ledger = frozenset(x_ledger | z_ledger)
    r_x = [0] * n
    r_y = [0] * n
    r_z = [0] * n

    faults = fault_map(circuit)
    for _, label, side, i in enumerable_locations(circuit):  # flag legs never count
        x_loc, y_loc, z_loc = (FaultLocation(label, side, pauli) for pauli in ("X", "Y", "Z"))
        x, y, z = (counts_as_member(circuit, loc, *faults[loc]) for loc in (x_loc, y_loc, z_loc))
        if side == "single":
            if x or z:
                r_z[i] += 1
                if y:
                    r_y[i] += 1
            continue
        x_key, z_key = x_loc.ledger_key(), z_loc.ledger_key()
        if x and x_key not in x_ledger:
            r_x[i] += 1
        if y and x_key not in y_ledger and z_key not in y_ledger:
            r_y[i] += 1
        if z and z_key not in z_ledger:
            r_z[i] += 1

    if circuit.layout.block == "aux":
        return DepthProfile(tuple(r_x), tuple(r_x), (0,) * n)
    return DepthProfile(tuple(r_x), tuple(r_y), tuple(r_z))


def effective_R(profile: DepthProfile) -> BlockDepth:
    """R_q = ceil((r_x + r_y + r_z) / 3) per qubit."""
    R = tuple(ceil((x + y + z) / 3) for x, y, z in zip(profile.r_x, profile.r_y, profile.r_z))
    return BlockDepth(R)


@lru_cache(maxsize=None)
def block_analysis(block: str):
    """Circuit, derived ledgers, depth profile and R for one block kind."""
    circuit = build_full_ec_circuit(include_flags=True, block_kind=block)
    x_ledger = derive_perfect_assumptions(view_table(circuit, "X"))
    z_ledger = derive_perfect_assumptions(view_table(circuit, "Z"))
    profile = count_fault_locations(circuit, x_ledger, z_ledger)
    return circuit, x_ledger, z_ledger, profile, effective_R(profile)


def data_block_depth() -> BlockDepth:
    return block_analysis("data")[4]


def aux_block_depth() -> BlockDepth:
    return block_analysis("aux")[4]
