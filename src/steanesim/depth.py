"""Effective fault-location counts per block qubit and the period coefficients.

Depth is a tally of view members: a location-side counts toward a qubit's
depth for an error type when a fault the matching view holds there is a
member of that view's classes under that view's ledger (the one rule,
:func:`~steanesim.faults.counts_as_member`). Both copies of a repeated
syndrome round count. The Z view holds a Hadamard's X and Z faults, so
each H adds at most one location to its qubit's Z-type depth and none to
the X-type depth. For the auxiliary block only X-type errors are analyzed:
the Y-type depth equals the X-type depth and the Z-type depth is zero.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import ceil

from .builders import build_full_ec_circuit
from .circuits import DATA_QUBITS, Circuit
from .faults import (
    PerfectOpLedger,
    classify_collisions,
    derive_perfect_assumptions,
    view_table,
)


class DepthProfile(namedtuple("DepthProfile", ("r_x", "r_y", "r_z"))):
    """Per-qubit effective fault-location counts, qubits 1..7.
    Fields: ``r_x``, ``r_y`` and ``r_z``, each tuple[int, ...]."""

    __slots__ = ()


_BlockDepthFields = namedtuple("_BlockDepthFields", ("R", "gamma"))  # tuple[int, ...], int


class BlockDepth(_BlockDepthFields):
    """Period coefficients R_1..R_7 and the syndrome/recovery depth."""

    __slots__ = ()

    def __new__(cls, R: tuple[int, ...], gamma: int = 4):  # gamma: the paper's syndrome/recovery depth
        if len(R) != 7:
            raise ValueError("expected seven R coefficients")
        return tuple.__new__(cls, (R, gamma))


def count_fault_locations(
    circuit: Circuit,
    x_ledger: PerfectOpLedger = frozenset(),
    z_ledger: PerfectOpLedger = frozenset(),
) -> DepthProfile:
    """Tally, per block qubit, the location-sides with a member in each view.

    A location-side counts for type t when a fault the t view holds there
    is a member of its classes (:func:`~steanesim.faults.classify_collisions`,
    memoized with the view) under that view's ledger: ``x_ledger`` for X,
    ``x_ledger | z_ledger`` for Y, ``z_ledger`` for Z. An aux block
    classifies only the X view.
    """
    wires = {g.label: g.qubits for g in circuit.gates}  # a target leg is its gate's second wire
    ledgers = {"X": x_ledger, "Y": x_ledger | z_ledger, "Z": z_ledger}
    counts = {view: [0] * len(DATA_QUBITS) for view in ledgers}
    for view in "X" if circuit.layout.block == "aux" else "XYZ":
        classes = classify_collisions(view_table(circuit, view), ledgers[view])
        for label, side in {(loc.label, loc.side) for cls in classes for loc, _ in cls.members}:  # never a flag leg
            counts[view][wires[label][1 if side == "target" else 0]] += 1
    r_x, r_y, r_z = (tuple(counts[view]) for view in "XYZ")
    if circuit.layout.block == "aux":
        return DepthProfile(r_x, r_x, (0,) * len(DATA_QUBITS))
    return DepthProfile(r_x, r_y, r_z)


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
