"""Dense statevector oracle for circuits of up to 20 qubits.

Used to verify the bit-vector machinery against exact linear algebra:
encoder output states, decoder inversion, gadget algebra on the trivial
code, and Pauli-frame propagation on syndrome-round segments. Mid-circuit
measurements are handled by explicit branch selection (project on a chosen
outcome and renormalize), never by sampling.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

from .circuits import MACRO_KINDS, PREP_KINDS, Circuit, Gate
from .paulis import PauliOperator

MAX_QUBITS = 20

_T_PHASE = np.exp(1j * np.pi / 4)
_MATRICES = {
    "H": np.array([[1, 1], [1, -1]], dtype=complex) / sqrt(2),
    "S": np.diag([1, 1j]).astype(complex),
    "SDG": np.diag([1, -1j]).astype(complex),
    "T": np.diag([1, _T_PHASE]),
    "TDG": np.diag([1, np.conj(_T_PHASE)]),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Z": np.diag([1, -1]).astype(complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
}

# Codewords of the logical zero state (even-weight half of the classical
# code), written as 1-indexed qubit bit strings q1..q7.
LOGICAL_ZERO_WORDS = (
    "0000000", "0001111", "0110011", "0111100",
    "1010101", "1011010", "1100110", "1101001",
)
LOGICAL_ONE_WORDS = (
    "1111111", "1110000", "1001100", "1000011",
    "0101010", "0100101", "0011001", "0010110",
)


def zero_state(n: int) -> np.ndarray:
    if n > MAX_QUBITS:
        raise ValueError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    state = np.zeros(1 << n, dtype=complex)
    state[0] = 1.0
    return state


def _index_of(word: str) -> int:
    """Basis index for a q1..q7 bit string under bit q -> 1 << (q-1)."""
    return sum(1 << i for i, ch in enumerate(word) if ch == "1")


def _words_state(words, n: int = 7) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    for w in words:
        state[_index_of(w)] = 1.0
    return state / np.linalg.norm(state)


def logical_zero_state() -> np.ndarray:
    """Equal superposition of the eight even-weight codewords."""
    return _words_state(LOGICAL_ZERO_WORDS)


def logical_one_state() -> np.ndarray:
    return _words_state(LOGICAL_ONE_WORDS)


def steane_state() -> np.ndarray:
    """Uniform superposition over all sixteen codewords, amplitude 1/4."""
    return _words_state(LOGICAL_ZERO_WORDS + LOGICAL_ONE_WORDS)


def apply_1q(state: np.ndarray, matrix: np.ndarray, qubit: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n)
    axis = n - 1 - qubit  # qubit q indexes bit (1 << q): axis order is reversed
    psi = np.moveaxis(np.tensordot(matrix, np.moveaxis(psi, axis, 0), axes=([1], [0])), 0, axis)
    return np.ascontiguousarray(psi).reshape(-1)


def apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n).copy()
    c_ax, t_ax = n - 1 - control, n - 1 - target
    idx1 = [slice(None)] * n
    idx1[c_ax] = 1
    sub = psi[tuple(idx1)]
    psi[tuple(idx1)] = np.flip(sub, axis=t_ax if t_ax < c_ax else t_ax - 1)
    return psi.reshape(-1)


def apply_ccx(state: np.ndarray, c1: int, c2: int, target: int, n: int) -> np.ndarray:
    psi = state.reshape([2] * n).copy()
    axes = sorted((n - 1 - c1, n - 1 - c2))
    idx = [slice(None)] * n
    idx[axes[0]] = 1
    idx[axes[1]] = 1
    t_ax = n - 1 - target
    t_sub = t_ax - sum(1 for a in axes if a < t_ax)
    sub = psi[tuple(idx)]
    psi[tuple(idx)] = np.flip(sub, axis=t_sub)
    return psi.reshape(-1)


def project(state: np.ndarray, qubit: int, outcome: int, n: int) -> np.ndarray:
    """Project on a measurement outcome and renormalize; error if impossible."""
    psi = state.reshape([2] * n).copy()
    idx = [slice(None)] * n
    idx[n - 1 - qubit] = 1 - outcome
    psi[tuple(idx)] = 0.0
    flat = psi.reshape(-1)
    norm = np.linalg.norm(flat)
    if norm < 1e-12:
        raise ValueError(f"outcome {outcome} on qubit {qubit + 1} has zero amplitude")
    return flat / norm


def _expand_macro(gate: Gate) -> list[Gate]:
    """Unroll logical-ancilla preparations into elementary gates."""
    from .builders import ENCODER_CNOTS, ENCODE_H  # local import avoids a cycle

    q = gate.qubits
    seq: list[Gate] = []
    for i, w in ENCODE_H.items():
        seq.append(Gate("H", (q[w - 1],), f"{gate.label}.h{i}"))
    for i in range(3, 12):
        ctl, tgt = ENCODER_CNOTS[i]
        seq.append(Gate("CNOT", (q[ctl - 1], q[tgt - 1]), f"{gate.label}.c{i}"))
    if gate.kind == "PREPSTEANE":
        for i in range(7):
            seq.append(Gate("H", (q[i],), f"{gate.label}.th{i}"))
    return seq


def expand_macros(circuit: Circuit) -> list[Gate]:
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind not in PREP_KINDS:
            out.append(g)
        elif g.kind in MACRO_KINDS:
            out.extend(_expand_macro(g))
        elif g.kind == "CAT2":
            out.append(Gate("H", (g.qubits[0],), f"{g.label}.h"))
            out.append(Gate("CNOT", g.qubits, f"{g.label}.c"))
        elif g.kind == "PREPP":
            out.append(Gate("H", g.qubits, f"{g.label}.h"))
        # PREP0 adds no gate: its wire is taken to start in |0>.
    return out


def simulate_statevector(
    circuit: Circuit,
    input_state: np.ndarray | None = None,
    outcomes: dict[str, int] | None = None,
    inject: dict[str, PauliOperator] | None = None,
) -> tuple[np.ndarray, dict[str, int]]:
    """Exact dense state after the circuit; measurements need chosen outcomes.

    ``outcomes`` maps measurement labels to the selected branch (0/1).
    ``inject`` maps gate labels to a Pauli applied right after that gate,
    which is how the propagation oracle places deterministic faults.
    Returns the final state and the realized outcome per measurement label.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    state = zero_state(n) if input_state is None else np.asarray(input_state, dtype=complex)
    if state.shape != (1 << n,):
        raise ValueError("input state has wrong dimension")
    outcomes = outcomes or {}
    inject = inject or {}
    recorded: dict[str, int] = {}

    for g in expand_macros(circuit):
        if g.kind == "CNOT":
            state = apply_cnot(state, g.qubits[0], g.qubits[1], n)
        elif g.kind == "CCX":
            state = apply_ccx(state, *g.qubits, n)
        elif g.kind in _MATRICES:
            state = apply_1q(state, _MATRICES[g.kind], g.qubits[0], n)
        elif g.kind in ("MZ", "MX"):
            q = g.qubits[0]
            if g.kind == "MX":
                state = apply_1q(state, _MATRICES["H"], q, n)
            outcome = outcomes.get(g.label, 0)
            state = project(state, q, outcome, n)
            recorded[g.label] = outcome
        else:
            raise ValueError(f"dense oracle cannot apply {g.kind}")
        if g.label in inject:
            p = inject[g.label]
            state = apply_pauli(state, p, n)
    return state, recorded


def apply_pauli(state: np.ndarray, p: PauliOperator, n: int) -> np.ndarray:
    if p.n != n:
        raise ValueError("Pauli size mismatch")
    for q in range(n):
        kind = p.kind_on(q + 1)
        if kind != "I":
            state = apply_1q(state, _MATRICES[kind], q, n)
    return state


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Equality up to global phase."""
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na < tol or nb < tol:
        return na < tol and nb < tol
    return bool(abs(abs(np.vdot(a, b)) / (na * nb) - 1.0) < tol)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    return v / np.linalg.norm(v)


def random_product_state(n: int, rng: np.random.Generator) -> np.ndarray:
    state = np.ones(1, dtype=complex)
    for _ in range(n):
        q = rng.normal(size=2) + 1j * rng.normal(size=2)
        q /= np.linalg.norm(q)
        state = np.kron(q, state)  # qubit k occupies bit k
    return state
