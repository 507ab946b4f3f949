"""Dense statevector oracle for circuits of up to 20 qubits.

Used to verify the bit-vector machinery against exact linear algebra:
encoder output states, decoder inversion, gadget algebra on the trivial
code, and Pauli-frame propagation on syndrome-round segments. Mid-circuit
measurements are handled by explicit branch selection (project on a chosen
outcome and renormalize), never by sampling. Every kernel also takes stacked
states, any array whose last axis has length 2^n, and acts on each row; a
forked run carries its clean and faulted rows this way.

An ancilla-block macro (``PREP0L``, ``PREPSTEANE``) is not simulated gate
by gate: its seven-wire block state is prepared once per kind from
:func:`builders.ancilla_prep` and tensored into the macro's wires, which
must hold exactly |0...0>. A Pauli frame is applied as an exact signed
permutation of the amplitudes.
"""
from __future__ import annotations

from functools import cache
from math import sqrt

import numpy as np

from .builders import ancilla_prep
from .circuits import MACRO_KINDS, Circuit, Gate
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


def _words_state(words, n: int = 7) -> np.ndarray:
    state = np.zeros(1 << n, dtype=complex)
    for w in words:
        state[int(w[::-1], 2)] = 1.0  # bit q of the index is qubit q+1
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


@cache
def _ancilla_block(kind: str) -> np.ndarray:
    """State of the seven wires a ``kind`` macro prepares from |0...0>."""
    block = simulate_statevector(Circuit(7, [Gate(*row) for row in ancilla_prep(kind)]))
    block.flags.writeable = False
    return block


def _place_block(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Tensor the cached block of macro ``g`` into its wires (wire ``g.qubits[j]``
    takes block qubit ``j``); every amplitude with one of them set must be 0."""
    k = len(g.qubits)
    wires = [-1 - q for q in reversed(g.qubits)]  # axis of each wire, block qubit k-1 first
    psi = np.moveaxis(state.reshape(state.shape[:-1] + (2,) * n), wires, range(-k, 0))
    rows = psi.reshape(-1, 1 << k)
    if rows[:, 1:].any():
        raise ValueError(f"macro {g.label} ({g.kind}) needs its wires in |0>")
    placed = (rows[:, :1] * _ancilla_block(g.kind)).reshape(psi.shape)
    return np.moveaxis(placed, range(-k, 0), wires).reshape(state.shape)


def simulate_statevector(
    circuit: Circuit,
    input_state: np.ndarray | None = None,
    outcomes: dict[str, int] | None = None,
    fork: tuple[str, list[PauliOperator]] | None = None,
) -> np.ndarray:
    """Exact dense state after the circuit; measurements need chosen outcomes.

    ``input_state`` is one state or a stack of them (shape (..., 2^n)).
    ``outcomes`` maps measurement labels to the selected branch (0/1).
    ``fork=(label, paulis)`` splits the run right after gate ``label``: the
    clean state and a copy with ``paulis[r]`` applied to input row ``r``
    run on together, and the pair is returned with shape (2, ...input).
    This is how the propagation oracle places deterministic faults without
    simulating the shared prefix twice.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    state = zero_state(n) if input_state is None else np.asarray(input_state, dtype=complex)
    if state.shape[-1:] != (1 << n,):
        raise ValueError("input state has wrong dimension")
    if fork is not None and len(fork[1]) != state.size >> n:
        raise ValueError("fork needs one Pauli per input row")
    outcomes = outcomes or {}
    forked = False

    for g in circuit.gates:
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
        elif g.kind in MACRO_KINDS:
            state = _place_block(state, g, n)
        elif g.kind == "CAT2":
            state = apply_cnot(apply_1q(state, _MATRICES["H"], g.qubits[0], n), *g.qubits, n)
        elif g.kind == "PREPP":
            state = apply_1q(state, _MATRICES["H"], g.qubits[0], n)
        elif g.kind != "PREP0":  # PREP0 adds no gate: its wire is taken to start in |0>
            raise ValueError(f"dense oracle cannot apply {g.kind}")
        if fork is not None and g.label == fork[0]:
            rows = state.reshape(-1, 1 << n)
            # row by row: the rows of a stacked oracle run carry different faults
            faulted = np.stack([apply_pauli(row, p, n) for row, p in zip(rows, fork[1])])
            state, forked = np.stack((state, faulted.reshape(state.shape))), True
    if fork is not None and not forked:
        raise ValueError(f"fork label {fork[0]!r} names no gate")
    return state


def apply_pauli(state: np.ndarray, p: PauliOperator, n: int) -> np.ndarray:
    """``p`` on every row as an exact signed permutation, equal bit for bit to
    the product of its 2x2 matrices: per qubit, X swaps the bit's 0- and
    1-halves, Z negates the 1-half, Y swaps them and multiplies by -i and i."""
    if p.n != n:
        raise ValueError("Pauli size mismatch")
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
