"""Dense statevector oracle for circuits of up to 20 qubits.

Used to verify the bit-vector machinery against exact linear algebra:
encoder output states, decoder inversion, gadget algebra on the trivial
code, and Pauli-frame propagation on syndrome-round segments. Mid-circuit
measurements are handled by explicit branch selection (project on a chosen
outcome and renormalize), never by sampling. Every kernel also takes stacked
states, any array whose last axis has length 2^n, and acts on each row; the
propagation oracle runs its clean and faulted rows on as one such stack.

An ancilla-block macro (``PREP0L``, ``PREPSTEANE``) is not simulated gate
by gate: its seven-wire block state is prepared once per kind from
:func:`builders.ancilla_prep` and tensored into the macro's wires, which
must hold exactly |0...0>. Every controlled-X gate (``CNOT``, ``CCX`` and
the coupling of ``CAT2``, after its H) joins the pending run, and a run is
applied as one permutation of the amplitudes (``np.take``); a Pauli frame is
an exact signed permutation, so both are exact.
"""
from __future__ import annotations

from functools import cache, lru_cache
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


@lru_cache(maxsize=4)
def _run_source(run: tuple[tuple[int, ...], ...], n: int) -> np.ndarray:
    """The index each amplitude comes from after the controlled-X gates
    ``run`` (controls..., target), in order.

    Each gate is a permutation of the indices and its own inverse, so the
    amplitude that lands at index ``j`` comes from ``g1(g2(...gk(j)))``. The
    propagation oracle runs the faults cut at one gate in several stacks
    (round-segment faults one at a time), which repeat the same runs; hence
    the small memo."""
    source = np.arange(1 << n)
    for *controls, target in reversed(run):
        on = source >> controls[0]
        for c in controls[1:]:
            on &= source >> c
        source ^= (on & 1) << target
    source.flags.writeable = False
    return source


def _apply_run(state: np.ndarray, run: list[tuple[int, ...]], n: int) -> np.ndarray:
    """The controlled-X gates ``run`` as one permutation of the amplitudes
    (one ``np.take``); empties the list."""
    if not run:
        return state
    source = _run_source(tuple(run), n)
    run.clear()
    return state.take(source, axis=-1)


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


@cache
def _block_layout(wires: tuple[int, ...], n: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The indices with ``wires`` clear, in increasing order, and for every
    index its position in the (block value, clear rank) order of a placed
    block, bit ``j`` of the block value on wire ``wires[j]``; None when that
    is every index's own position (the block on the top wires, in order, as
    every builder places it)."""
    others = [q for q in range(n) if q not in wires]
    position = {q: i for i, q in enumerate(others + list(wires))}
    index = np.arange(1 << n)
    clear = np.flatnonzero((index & sum(1 << q for q in wires)) == 0)
    clear.flags.writeable = False
    if all(position[q] == q for q in wires):
        return clear, None
    order = sum((index >> q & 1) << position[q] for q in range(n))
    order.flags.writeable = False
    return clear, order


def _place_block(state: np.ndarray, g: Gate, n: int) -> np.ndarray:
    """Tensor the cached block of macro ``g`` into its wires (wire ``g.qubits[j]``
    takes block qubit ``j``); every amplitude with one of them set must be 0."""
    clear, order = _block_layout(tuple(g.qubits), n)
    rows = state.reshape(-1, 1 << n)
    amplitudes = rows[:, clear]
    if np.count_nonzero(amplitudes) != np.count_nonzero(rows):
        raise ValueError(f"macro {g.label} ({g.kind}) needs its wires in |0>")
    placed = (_ancilla_block(g.kind)[:, None] * amplitudes[:, None, :]).reshape(rows.shape)
    return (placed if order is None else placed.take(order, axis=-1)).reshape(state.shape)


def simulate_statevector(
    circuit: Circuit,
    input_state: np.ndarray | None = None,
    outcomes: dict[str, int] | None = None,
) -> np.ndarray:
    """Exact dense state after the circuit; measurements need chosen outcomes.

    ``input_state`` is one state or a stack of them (shape (..., 2^n)).
    ``outcomes`` maps measurement labels to the selected branch (0/1).
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    state = zero_state(n) if input_state is None else np.asarray(input_state, dtype=complex)
    if state.shape[-1:] != (1 << n,):
        raise ValueError("input state has wrong dimension")
    outcomes = outcomes or {}
    run: list[tuple[int, ...]] = []  # the controlled-X gates not applied yet

    for g in circuit.gates:
        if g.kind in ("CNOT", "CCX"):
            run.append(g.qubits)
        else:
            state = _apply_run(state, run, n)
            if g.kind in _MATRICES:
                state = apply_1q(state, _MATRICES[g.kind], g.qubits[0], n)
            elif g.kind in ("MZ", "MX"):
                q = g.qubits[0]
                if g.kind == "MX":
                    state = apply_1q(state, _MATRICES["H"], q, n)
                state = project(state, q, outcomes.get(g.label, 0), n)
            elif g.kind in MACRO_KINDS:
                state = _place_block(state, g, n)
            elif g.kind == "CAT2":  # H, then a CNOT that opens the next run
                state = apply_1q(state, _MATRICES["H"], g.qubits[0], n)
                run.append(g.qubits)
            elif g.kind == "PREPP":
                state = apply_1q(state, _MATRICES["H"], g.qubits[0], n)
            elif g.kind != "PREP0":  # PREP0 adds no gate: its wire is taken to start in |0>
                raise ValueError(f"dense oracle cannot apply {g.kind}")
    return _apply_run(state, run, n)


def apply_pauli(state: np.ndarray, p: PauliOperator) -> None:
    """``p`` on every row of ``state``, in place, as an exact signed
    permutation equal bit for bit to the product of its 2x2 matrices. Per
    qubit of the support, in increasing order: X swaps the bit's 0- and
    1-halves, Z negates the 1-half, Y swaps them and multiplies by -i and i."""
    if state.shape[-1] != 1 << p.n or not state.flags.c_contiguous:
        raise ValueError("apply_pauli needs C-contiguous rows of 2^n amplitudes, n the Pauli's size")
    for q in range(p.n):
        x, z = p.x_bits >> q & 1, p.z_bits >> q & 1
        if not (x or z):
            continue
        psi = state.reshape(-1, 2, 1 << q)
        if x:
            zero_half = psi[:, 0].copy()
            psi[:, 0] = psi[:, 1]
            psi[:, 1] = zero_half
        if x and z:
            psi[:, 0] *= -1j
            psi[:, 1] *= 1j
        elif z:
            psi[:, 1] *= -1


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Equality up to global phase. The sums are ``np.einsum``'s own loops:
    ``np.linalg.norm`` and ``np.vdot`` hand a 2^14-amplitude row to a
    threaded BLAS dot product, whose first call took about 1 s in some fresh
    processes."""
    a, b = (np.ascontiguousarray(v, dtype=complex).reshape(-1) for v in (a, b))
    na, nb = (sqrt(np.einsum("i,i", v.view(np.float64), v.view(np.float64))) for v in (a, b))
    if na < tol or nb < tol:
        return na < tol and nb < tol
    return bool(abs(abs(np.einsum("i,i", a.conj(), b)) / (na * nb) - 1.0) < tol)


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
