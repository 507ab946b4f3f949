"""The forward frame walk the tests check the backward sweep against.

``faults.fault_frames`` gets every location's frame from one backward
sweep. This walk propagates one fault forward gate by gate instead. It
shares the conjugation rule (``paulis.conjugate_bits``) with the sweep, so
it checks the sweep's bookkeeping (effect sums, readout bits, skipped
preparations, where a location reads), not the rule itself; the dense
oracle behind ``verify`` checks the rule.
"""
from __future__ import annotations

from steanesim.circuits import PREP_KINDS, Circuit
from steanesim.paulis import conjugate_bits


def propagate_fault(circuit: Circuit, start: int, qubit: int, pauli: str) -> tuple[int, int, int]:
    """Frame of one fault at circuit end, and the flip of every readout.

    The fault is ``pauli`` on wire ``qubit`` right after gate ``start``.
    Returns the frame as X and Z bit words over all wires, and a flip word
    whose bit ``i`` is set when the readout at gate index ``i`` flips.
    Preparations after the fault are skipped: they precede every labeled
    gate. A Z readout flips on an X component of the frame, an X readout on
    a Z component.
    """
    if pauli not in ("X", "Y", "Z"):
        raise ValueError(f"unknown Pauli kind {pauli!r}")
    x = 1 << qubit if pauli != "Z" else 0
    z = 1 << qubit if pauli != "X" else 0
    flips = 0
    for i, g in enumerate(circuit.gates[start + 1:], start + 1):
        if g.kind == "MZ":
            flips |= ((x >> g.qubits[0]) & 1) << i
        elif g.kind == "MX":
            flips |= ((z >> g.qubits[0]) & 1) << i
        elif g.kind not in PREP_KINDS:
            x, z = conjugate_bits(g.kind, g.qubits, x, z)
    return x, z, flips
