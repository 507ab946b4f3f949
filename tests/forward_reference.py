"""The forward frame walk and the bit-by-bit decode the tests check the
fault map against.

``faults.fault_frames`` gets every location's frame from one backward
sweep. This walk propagates one fault forward gate by gate instead. It
shares the conjugation rule (``paulis.conjugate_bits``) with the sweep, so
it checks the sweep's bookkeeping (effect sums, readout bits, skipped
preparations, where a location reads), not the rule itself; the dense
oracle behind ``verify`` checks the rule.

``faults.fault_map`` packs each signature into one word inside the sweep.
:func:`decode` reads a walked frame's flip word instead, one parity per
signature bit, into the nested tuples of :class:`ReferenceSignature`, and
applies the decode-side Hadamards to the residual gate by gate.

``depth.count_fault_locations`` tallies the distinct legs among the
members of the memoized classes. :func:`count_locations_one_by_one` asks
the membership rule (``faults.counts_as_member``) at every location-side
and view instead, so the tests check the tally against a count that does
not read the classes.

``statevec`` applies each run of controlled-X gates (``CNOT``, ``CCX`` and
the coupling of ``CAT2``) as one permutation, and a Pauli only on its
support, in place. :func:`controlled_x` and :func:`apply_pauli` act one
gate or qubit at a time on the n-axis view instead, on a copy, and
:func:`simulate_gate_by_gate` applies a circuit with them, gate by gate.
Its ``fork`` puts the faulted rows beside the clean ones inside that one
pass; ``verification._forked``, the propagation oracle's fault placement,
cuts the circuit after the fault gate and runs a prefix and a suffix
instead, and the tests compare the two bit for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from steanesim.circuits import DATA_QUBITS, PREP_KINDS, Circuit
from steanesim.faults import (
    FaultLocation,
    canonical_residual,
    counts_as_member,
    enumerable_locations,
    fault_map,
    view_paulis,
)
from steanesim.paulis import GENERATOR_SUPPORTS, PauliOperator, conjugate_bits
from steanesim.statevec import _MATRICES, apply_1q


def parity(x: int) -> int:
    return x.bit_count() & 1


def flip_bits(circuit: Circuit) -> dict[str, int]:
    """Bit ``i`` for the readout at gate index ``i``: as the ``readouts`` of
    ``fault_frames``, they make its word the flip word of :func:`propagate_fault`."""
    return {g.label: 1 << i for i, g in enumerate(circuit.gates) if g.is_measurement}


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


@dataclass(frozen=True)
class ReferenceSignature:
    """A signature as nested bit tuples, printed the way the map prints one."""

    z_syn: tuple[tuple[int, int, int], ...]  # one triple per Z-stabilizer round
    x_syn: tuple[tuple[int, int, int], ...]
    meas: tuple[int, ...]                    # terminal data readout, qubit order
    flags: tuple[int, ...]                   # one parity bit per flag gadget

    def agreed_z(self) -> tuple[int, int, int] | None:
        return self.z_syn[0] if len(set(self.z_syn)) == 1 else None

    def agreed_x(self) -> tuple[int, int, int] | None:
        return self.x_syn[0] if len(set(self.x_syn)) == 1 else None

    def __str__(self) -> str:
        zs = "/".join("".join(map(str, t)) for t in self.z_syn)
        xs = "/".join("".join(map(str, t)) for t in self.x_syn)
        ms = "".join(map(str, self.meas))
        fs = "".join(map(str, self.flags))
        out = f"zSyn={zs} xSyn={xs} meas={ms}"
        return out + (f" flags={fs}" if self.flags else "")


def readout_masks(circuit: Circuit):
    """Every signature bit as a mask over the flip word, in the shape of
    :class:`ReferenceSignature`: the bit is the parity of the flips its
    mask selects."""
    flip = flip_bits(circuit)
    layout = circuit.layout

    def syndromes(rounds) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(sum(flip[row[q - 1]] for q in s) for s in GENERATOR_SUPPORTS) for row in rounds)

    return (
        syndromes(layout.z_rounds),
        syndromes(layout.x_rounds),
        tuple(flip[lbl] for _, _, lbl in layout.terminal_meas),
        tuple(flip[a] | flip[b] for a, b in (plan.meas_labels for plan in layout.gadgets)),
    )


def decode(circuit: Circuit, masks, x: int, z: int, flips: int) -> tuple[ReferenceSignature, PauliOperator]:
    """Signature and block residual of a walked frame."""
    z_rounds, x_rounds, terminal, flags = masks

    def read(bits: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(parity(flips & m) for m in bits)

    sig = ReferenceSignature(tuple(map(read, z_rounds)), tuple(map(read, x_rounds)), read(terminal), read(flags))
    # Residuals are reported in the pre-decode-Hadamard frame.
    for q in circuit.layout.decode_h_qubits:
        x, z = conjugate_bits("H", (q,), x, z)
    mask = (1 << len(DATA_QUBITS)) - 1
    return sig, PauliOperator(len(DATA_QUBITS), x & mask, z & mask)


def count_locations_one_by_one(circuit: Circuit, x_ledger: frozenset, z_ledger: frozenset):
    """``(r_x, r_y, r_z)`` counted location by location: a location-side on
    qubit q counts for type t when a fault the t view holds there is a
    member under ledger t (X: ``x_ledger``, Y: their union, Z: ``z_ledger``).
    An aux block reports r_y = r_x and no Z-type depth."""
    ledgers = {"X": x_ledger, "Y": x_ledger | z_ledger, "Z": z_ledger}
    counts = {view: [0] * len(DATA_QUBITS) for view in ledgers}
    faults = fault_map(circuit)
    for _, label, side, qubit in enumerable_locations(circuit):
        for view, ledger in ledgers.items():
            for pauli in view_paulis(view, side):
                loc = FaultLocation(label, side, pauli)
                sig, res = faults[loc]
                if counts_as_member(circuit.layout, loc, sig, canonical_residual(circuit, res), ledger):
                    counts[view][qubit] += 1
                    break
    r_x, r_y, r_z = (tuple(counts[view]) for view in "XYZ")
    if circuit.layout.block == "aux":
        return r_x, r_x, (0,) * len(DATA_QUBITS)
    return r_x, r_y, r_z


def controlled_x(state: np.ndarray, controls: tuple[int, ...], target: int, n: int) -> np.ndarray:
    """Flip ``target`` where every control bit is 1, on the ``(2,) * n`` view."""
    psi = state.reshape(state.shape[:-1] + (2,) * n).copy()
    idx = [slice(None)] * n
    for c in controls:
        idx[n - 1 - c] = 1
    sub = (Ellipsis, *idx)
    psi[sub] = np.flip(psi[sub], axis=-1 - target + sum(c < target for c in controls))
    return psi.reshape(state.shape)


def apply_pauli(state: np.ndarray, p: PauliOperator, n: int) -> np.ndarray:
    """``p`` on every row, qubit by qubit over all n: X swaps the bit's 0- and
    1-halves, Z negates the 1-half, Y swaps them and multiplies by -i and i."""
    state = np.array(state, dtype=complex)
    for q in range(n):
        kind = p.kind_on(q + 1)
        psi = state.reshape(-1, 2, 1 << q)
        if kind in ("X", "Y"):
            psi[:] = psi[:, ::-1]
        if kind == "Z":
            psi[:, 1] *= -1
        elif kind == "Y":
            psi[:, 0] *= -1j
            psi[:, 1] *= 1j
    return state


def simulate_gate_by_gate(circuit: Circuit, state: np.ndarray, fork=None) -> np.ndarray:
    """``statevec.simulate_statevector`` on ``CNOT``/``CCX``, ``CAT2`` (H on
    its first wire, then a CNOT), ``PREPP`` (H) and 1-qubit matrix gates, one
    kernel call per gate; ``fork=(label, paulis)`` stacks the clean rows and
    the rows with ``paulis[r]`` on row ``r`` after ``label``."""
    n = circuit.n_qubits
    for g in circuit.gates:
        if g.kind in ("CAT2", "PREPP"):
            state = apply_1q(state, _MATRICES["H"], g.qubits[0], n)
        if g.kind in ("CNOT", "CCX", "CAT2"):
            state = controlled_x(state, g.qubits[:-1], g.qubits[-1], n)
        elif g.kind != "PREPP":
            state = apply_1q(state, _MATRICES[g.kind], g.qubits[0], n)
        if fork is not None and g.label == fork[0]:
            rows = state.reshape(-1, 1 << n)
            faulted = np.stack([apply_pauli(row, p, n) for row, p in zip(rows, fork[1])])
            state = np.stack((state, faulted.reshape(state.shape)))
    return state
