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
an exact signed permutation, so both are exact. A run overwrites its state,
through the reused buffers of a :class:`WorkingSet`.
"""
from __future__ import annotations

from functools import cache, cached_property
from math import hypot, sqrt

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


class WorkingSet:
    """The buffers that in-place dense runs on stacks of at most ``size``
    amplitudes, ``n`` qubits wide at most, reuse: a scratch row that
    permutations go through, two index rows for the source maps of recent
    controlled-X runs (``maps``: run -> its row), and, made on first use, the
    clean/faulted ``pair`` of the propagation oracle, one such stack each."""

    def __init__(self, size: int, n: int):
        self.scratch = np.empty(size, dtype=complex)
        self.index_rows = np.empty((2, 1 << n), dtype=np.int64)
        self.maps: dict[tuple, np.ndarray] = {}

    @cached_property
    def pair(self) -> np.ndarray:
        return np.empty(2 * self.scratch.size, dtype=complex)


def _run_source(run: list[tuple[int, ...]], n: int, work: WorkingSet) -> np.ndarray:
    """The index each amplitude comes from after the controlled-X gates
    ``run`` (controls..., target), in order, built in place in an index row.

    Each gate is a permutation of the indices and its own inverse, so the
    amplitude that lands at index ``j`` comes from ``g1(g2(...gk(j)))``. The
    propagation oracle repeats a cut's prefix and suffix runs for each stack
    of its faults (round-segment faults run one at a time), so the two index
    rows keep the maps of the last two runs."""
    key = (n, tuple(run))
    if key not in work.maps:
        if len(work.maps) == 2:
            work.maps.clear()
        source = work.maps[key] = work.index_rows[len(work.maps), :1 << n]
        on = work.scratch.view(np.int64)[:1 << n]  # the scratch row is free while a map is built
        source[0] = 0
        for b in range(n):  # the identity, by doubling
            np.add(source[:1 << b], 1 << b, out=source[1 << b:2 << b])
        for *controls, target in reversed(run):
            mask = sum(1 << c for c in controls)
            np.bitwise_and(source, mask, out=on)
            np.equal(on, mask, out=on)  # 1 where every control is set
            on <<= target
            source ^= on
    return work.maps[key]


def _permute(state: np.ndarray, source: np.ndarray, scratch: np.ndarray) -> None:
    """``state[..., j] = state[..., source[j]]`` in place, as many rows at a
    time as ``scratch`` holds. ``source`` is a permutation, so "clip" clips
    nothing; unlike "raise" it takes straight into ``out``, unbuffered."""
    rows = state.reshape(-1, len(source))
    per = len(scratch) // len(source)
    for first in range(0, len(rows), per):
        block = rows[first:first + per]
        out = scratch[:block.size].reshape(block.shape)
        block.take(source, axis=-1, out=out, mode="clip")
        block[...] = out


def _apply_run(state: np.ndarray, run: list[tuple[int, ...]], n: int, work: WorkingSet) -> None:
    """The controlled-X gates ``run`` as one permutation, in place; empties the list."""
    if run:
        _permute(state, _run_source(run, n, work), work.scratch)
        run.clear()


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


def _place_block(state: np.ndarray, g: Gate, n: int, work: WorkingSet) -> None:
    """Tensor the cached block of macro ``g`` into its wires, in place (wire
    ``g.qubits[j]`` takes block qubit ``j``); every amplitude with one of
    them set must be 0, else the state is left part-cleared."""
    clear, order = _block_layout(tuple(g.qubits), n)
    rows = state.reshape(-1, 1 << n)
    amplitudes = rows[:, clear]
    rows[:, clear] = 0
    if rows.view(np.float64).any():
        raise ValueError(f"macro {g.label} ({g.kind}) needs its wires in |0>")
    block = _ancilla_block(g.kind)
    np.multiply(block[:, None], amplitudes[:, None, :], out=rows.reshape(len(rows), len(block), -1))
    if order is not None:
        _permute(rows, order, work.scratch)


def simulate_statevector(
    circuit: Circuit,
    input_state: np.ndarray | None = None,
    outcomes: dict[str, int] | None = None,
    work: WorkingSet | None = None,
) -> np.ndarray:
    """Exact dense state after the circuit; measurements need chosen outcomes.

    ``input_state`` is one state or a stack of them (shape (..., 2^n)).
    ``outcomes`` maps measurement labels to the selected branch (0/1).
    Without ``work`` the run is on a copy of the input, with buffers made
    for it; with ``work`` it overwrites ``input_state`` (C-contiguous
    complex rows, none longer than ``work.scratch``) and reuses work's buffers.
    """
    n = circuit.n_qubits
    if n > MAX_QUBITS:
        raise ValueError(f"qubit budget exceeded: {n} > {MAX_QUBITS}")
    state = input_state
    if work is None:
        state = zero_state(n) if input_state is None else np.array(input_state, dtype=complex, order="C")
        work = WorkingSet(state.size, n)
    if state.shape[-1:] != (1 << n,):
        raise ValueError("input state has wrong dimension")
    outcomes = outcomes or {}
    run: list[tuple[int, ...]] = []  # the controlled-X gates not applied yet

    for g in circuit.gates:
        if g.kind not in ("CNOT", "CCX"):
            _apply_run(state, run, n, work)
        # H measures MX in the X basis, opens CAT2's CNOT and prepares PREPP's |+>
        matrix = _MATRICES.get("H" if g.kind in ("MX", "CAT2", "PREPP") else g.kind)
        if matrix is not None:
            state[...] = apply_1q(state, matrix, g.qubits[0], n)
        if g.kind in ("CNOT", "CCX", "CAT2"):
            run.append(g.qubits)
        elif g.kind in ("MZ", "MX"):
            state[...] = project(state, g.qubits[0], outcomes.get(g.label, 0), n)
        elif g.kind in MACRO_KINDS:
            _place_block(state, g, n, work)
        elif matrix is None and g.kind != "PREP0":  # PREP0 adds no gate: its wire is taken to start in |0>
            raise ValueError(f"dense oracle cannot apply {g.kind}")
    _apply_run(state, run, n, work)
    return state


def apply_pauli(state: np.ndarray, p: PauliOperator, scratch: np.ndarray | None = None) -> None:
    """``p`` on every row of ``state``, in place, as an exact signed
    permutation equal bit for bit to the product of its 2x2 matrices. Per
    qubit of the support, in increasing order: X swaps the bit's 0- and
    1-halves, through ``scratch`` (at least half as large as ``state``; made
    per call when None), Z negates the 1-half, Y swaps them and
    multiplies by -i and i."""
    if state.shape[-1] != 1 << p.n or not state.flags.c_contiguous:
        raise ValueError("apply_pauli needs C-contiguous rows of 2^n amplitudes, n the Pauli's size")
    half = (np.empty(state.size >> 1, dtype=complex) if scratch is None else scratch)[:state.size >> 1]
    for q in range(p.n):
        x, z = p.x_bits >> q & 1, p.z_bits >> q & 1
        if not (x or z):
            continue
        psi = state.reshape(-1, 2, 1 << q)
        if x:
            zero_half = half.reshape(psi[:, 0].shape)
            zero_half[...] = psi[:, 0]
            psi[:, 0] = psi[:, 1]
            psi[:, 1] = zero_half
        if x and z:
            psi[:, 0] *= -1j
            psi[:, 1] *= 1j
        elif z:
            psi[:, 1] *= -1


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-10) -> bool:
    """Equality up to global phase. The sums are ``np.einsum``'s own loops
    over float64 views of the amplitudes (real and imaginary parts
    interleaved), so a contiguous complex state is not copied: ``np.vdot``
    and ``np.linalg.norm`` hand a 2^14-amplitude row to a threaded BLAS dot
    product, whose first call took about 1 s in some fresh processes."""
    a, b = (np.ascontiguousarray(v, dtype=complex).reshape(-1).view(np.float64) for v in (a, b))
    na, nb = (sqrt(np.einsum("i,i", v, v)) for v in (a, b))
    if na < tol or nb < tol:
        return na < tol and nb < tol
    re = np.einsum("i,i", a, b)  # <a|b> = sum of conj(a_j) b_j
    im = np.einsum("i,i", a[::2], b[1::2]) - np.einsum("i,i", a[1::2], b[::2])
    return bool(abs(hypot(re, im) / (na * nb) - 1.0) < tol)


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
