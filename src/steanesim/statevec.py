"""Dense statevector oracle for circuits of up to 20 qubits.

Used to verify the bit-vector machinery against exact linear algebra:
encoder output states, decoder inversion, gadget algebra on the trivial
code, and Pauli-frame propagation on syndrome-round segments. Mid-circuit
measurements are handled by explicit branch selection (project on a chosen
outcome and renormalize), never by sampling. Every kernel also takes stacked
states, any array whose last axis has length 2^n, and acts on each row; a
forked run carries a clean and a faulted row this way.
"""
from __future__ import annotations

from math import sqrt

import numpy as np

from .builders import ancilla_prep
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
    # The operand np.tensordot builds (rows: bit ``qubit`` = 0, 1) and its dot call: same rounding.
    psi = state.reshape(-1, 2, 1 << qubit).transpose(1, 0, 2).reshape(2, -1)
    return matrix.dot(psi).reshape(2, -1, 1 << qubit).transpose(1, 0, 2).reshape(state.shape)


def _controlled_x(state: np.ndarray, controls: tuple[int, ...], target: int, n: int) -> np.ndarray:
    """Flip ``target`` where every control bit is 1: a permutation, so exact."""
    psi = state.reshape(state.shape[:-1] + (2,) * n).copy()
    idx = [slice(None)] * n
    for c in controls:
        idx[n - 1 - c] = 1
    sub = (Ellipsis, *idx)
    psi[sub] = np.flip(psi[sub], axis=-1 - target + sum(c < target for c in controls))
    return psi.reshape(state.shape)


def apply_cnot(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    return _controlled_x(state, (control,), target, n)


def apply_ccx(state: np.ndarray, c1: int, c2: int, target: int, n: int) -> np.ndarray:
    return _controlled_x(state, (c1, c2), target, n)


def project(state: np.ndarray, qubit: int, outcome: int, n: int) -> np.ndarray:
    """Project on a measurement outcome and renormalize each row; error if impossible."""
    psi = state.reshape(-1, 2, 1 << qubit).copy()
    psi[:, 1 - outcome] = 0.0
    flat = psi.reshape(state.shape)
    norm = np.linalg.norm(flat, axis=-1, keepdims=True)
    if np.any(norm < 1e-12):
        raise ValueError(f"outcome {outcome} on qubit {qubit + 1} has zero amplitude")
    return flat / norm


def expand_macros(circuit: Circuit) -> list[Gate]:
    """Elementary gates only: an ancilla-block macro becomes the builders'
    preparation rows on its seven wires, labeled ``<macro label>.<row label>``."""
    out: list[Gate] = []
    for g in circuit.gates:
        if g.kind not in PREP_KINDS:
            out.append(g)
        elif g.kind in MACRO_KINDS:
            out.extend(
                Gate(kind, tuple(g.qubits[q] for q in wires), f"{g.label}.{label}")
                for kind, wires, label in ancilla_prep(g.kind)
            )
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
    fork: tuple[str, PauliOperator] | None = None,
) -> np.ndarray:
    """Exact dense state after the circuit; measurements need chosen outcomes.

    ``outcomes`` maps measurement labels to the selected branch (0/1).
    ``fork=(label, pauli)`` splits the run right after gate ``label``: the
    clean state and a copy with ``pauli`` applied run on as the two rows of
    one (2, 2^n) array, which is returned. This is how the propagation
    oracle places a deterministic fault without simulating the shared prefix
    twice.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    state = zero_state(n) if input_state is None else np.asarray(input_state, dtype=complex)
    if state.shape != (1 << n,):
        raise ValueError("input state has wrong dimension")
    outcomes = outcomes or {}

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
            state = project(state, q, outcomes.get(g.label, 0), n)
        else:
            raise ValueError(f"dense oracle cannot apply {g.kind}")
        if fork is not None and g.label == fork[0]:
            state = np.stack((state, apply_pauli(state, fork[1], n)))
    if fork is not None and state.ndim == 1:
        raise ValueError(f"fork label {fork[0]!r} names no gate")
    return state


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
