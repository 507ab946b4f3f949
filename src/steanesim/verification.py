"""Dense-oracle verification suites behind ``steanesim verify``.

Each check pits the bit-vector machinery against exact linear algebra:
encoder output amplitudes, the transversal-H identity on the logical zero
state, decoder inversion, teleportation-gadget algebra on the trivial code,
and the backward frame sweep of the fault map against dense simulation on
encode, decode and syndrome-round segments (at most 14 qubits per segment,
built from the same parts as the full cycle), each segment cut after the
fault's gate into two plain runs.
"""
from __future__ import annotations

import numpy as np

from .builders import (
    build_a_prep_trivial,
    build_decoder,
    build_encoder,
    build_steane_state_circuit,
    build_t_gadget_trivial,
    build_toffoli_gadget_trivial,
    build_theta_prep_trivial,
    build_x_round_segment,
    build_z_round_segment,
)
from .circuits import Circuit
from .faults import enumerable_locations, fault_frames
from .paulis import PauliOperator
from .statevec import (
    WorkingSet,
    apply_1q,
    apply_pauli,
    logical_one_state,
    logical_zero_state,
    random_product_state,
    random_state,
    simulate_statevector,
    states_equal,
    steane_state,
    zero_state,
    _MATRICES,
)

THETA = np.array([1.0, np.exp(1j * np.pi / 4)]) / np.sqrt(2)
A_STATE_WORDS = ((0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 1))


def check_encoder_codewords(tol: float = 1e-12) -> tuple[bool, str]:
    """Encoder output on |0..0> and on the X-flipped data qubit."""
    enc = build_encoder()
    out0 = simulate_statevector(enc)
    flipped = apply_1q(zero_state(7), _MATRICES["X"], 0, 7)
    out1 = simulate_statevector(enc, input_state=flipped)
    err0 = np.max(np.abs(out0 - logical_zero_state()))
    err1 = np.max(np.abs(out1 - logical_one_state()))
    ok = err0 < tol and err1 < tol
    return ok, f"max amplitude error {max(err0, err1):.2e}"


def check_steane_state(tol: float = 1e-12) -> tuple[bool, str]:
    """Transversal H on the logical zero equals the uniform-codeword state."""
    state = logical_zero_state()
    for q in range(7):
        state = apply_1q(state, _MATRICES["H"], q, 7)
    err = float(np.max(np.abs(state - steane_state())))
    circ_state = simulate_statevector(build_steane_state_circuit())
    err2 = float(np.max(np.abs(circ_state - steane_state())))
    ok = err < tol and err2 < tol
    return ok, f"max amplitude error {max(err, err2):.2e}"


def check_decoder_inverts_encoder(n_states: int = 20, seed: int = 7, tol: float = 1e-10) -> tuple[bool, str]:
    """Encoder then decoder on random product states, run as one stack."""
    rng = np.random.default_rng(seed)
    psi = np.stack([random_product_state(7, rng) for _ in range(n_states)])
    out = simulate_statevector(build_decoder(), input_state=simulate_statevector(build_encoder(), input_state=psi))
    worst = float(np.max(np.abs(out - psi)))
    return worst < tol, f"worst round-trip error {worst:.2e} over {n_states} product states"


def check_t_gadget(tol: float = 1e-10, seed: int = 11) -> tuple[bool, str]:
    """Teleported T on the trivial code, both measurement branches."""
    rng = np.random.default_rng(seed)
    circuit = build_t_gadget_trivial()
    ok = True
    for _ in range(5):
        psi = random_state(1, rng)
        inp = np.kron(np.array([1.0, 0.0], dtype=complex), psi)  # anc |0>, data low bit
        for outcome in (0, 1):
            out = simulate_statevector(circuit, input_state=inp, outcomes={"M1:Z": outcome})
            anc = out.reshape(2, 2)[:, outcome]  # data qubit collapsed to the outcome
            if outcome == 1:  # correction: X then S
                anc = _MATRICES["S"] @ (_MATRICES["X"] @ anc)
            expected = _MATRICES["T"] @ psi
            ok = ok and states_equal(anc, expected, tol)
    return ok, "outcome-0 branch applies T; outcome-1 branch needs the SX correction"


def check_theta_prep(tol: float = 1e-10) -> tuple[bool, str]:
    circuit = build_theta_prep_trivial()
    ok = True
    for outcome in (0, 1):
        out = simulate_statevector(circuit, outcomes={"M1:Z": outcome})
        blk = out.reshape(2, 2)[:, outcome]
        if outcome == 1:
            blk = _MATRICES["Z"] @ blk
        ok = ok and states_equal(blk, THETA, tol)
    return ok, "both cat outcomes land on the T|+> eigenstate after correction"


def check_a_prep(tol: float = 1e-10) -> tuple[bool, str]:
    circuit = build_a_prep_trivial()
    out = simulate_statevector(circuit, outcomes={"M1:Z": 0})
    expected = np.zeros(16, dtype=complex)
    for b1, b2, b3 in A_STATE_WORDS:
        expected[(b1 << 1) | (b2 << 2) | (b3 << 3)] = 0.5
    return states_equal(out, expected, tol), "cat outcome 0 prepares the Toffoli ancilla state"


def check_toffoli_gadget(tol: float = 1e-10, seed: int = 13) -> tuple[bool, str]:
    rng = np.random.default_rng(seed)
    circuit = build_toffoli_gadget_trivial()
    outcomes = {"M1:Z": 0, "M2:Z": 0, "M3:X": 0}
    ok = True
    for _ in range(5):
        psi = random_state(3, rng)
        inp = np.kron(np.eye(8, dtype=complex)[0], psi)  # anc |000>, psi on low bits
        out = simulate_statevector(circuit, input_state=inp, outcomes=outcomes)
        # data qubits collapsed to |000>; the ancilla block carries Toffoli(psi)
        anc = out.reshape(8, 8)[:, 0]
        expected = psi.copy()
        expected[[3, 7]] = expected[[7, 3]]  # CCX: flip target when both controls set
        ok = ok and states_equal(anc, expected, tol)
    return ok, "all-zero outcome branch applies Toffoli into the ancilla block"


def _strip_measurements(circuit: Circuit) -> Circuit:
    gates = [g for g in circuit.gates if not g.is_measurement]
    return Circuit(circuit.n_qubits, gates, name=circuit.name + "-unitary")


def _forked(circuit: Circuit, index: int, rows, paulis: list, work: WorkingSet | None = None) -> np.ndarray:
    """The (clean, faulted) pair of ``rows`` run through ``circuit``, faulted
    by ``paulis[r]`` on row ``r`` right after gate ``index``. A row is a
    state of the low wires, every other wire in |0>. The pair is a view of
    ``work.pair``, overwritten by work's next use (``work`` is made for this
    call when None). The prefix up to that gate runs once, in place in the
    clean half, and the suffix runs on both halves as one stack."""
    n, rows = circuit.n_qubits, np.asarray(rows)
    size = rows.size // rows.shape[-1] << n
    work = WorkingSet(size, n) if work is None else work
    pair = work.pair[:2 * size].reshape((2,) + rows.shape[:-1] + (1 << n,))
    pair[0, ..., rows.shape[-1]:] = 0
    pair[0, ..., :rows.shape[-1]] = rows
    simulate_statevector(Circuit(n, circuit.gates[:index + 1]), pair[0], work=work)
    pair[1] = pair[0]
    for row, p in zip(pair[1].reshape(-1, 1 << n), paulis):
        apply_pauli(row, p, work.scratch)
    return simulate_statevector(Circuit(n, circuit.gates[index + 1:]), pair, work=work)


def check_propagation_oracle(n_faults: int = 200, seed: int = 20240817, tol: float = 1e-10) -> tuple[bool, str]:
    """The backward frame sweep behind ``fault_map`` (``fault_frames``, one
    sweep per segment) vs dense simulation on <=14-qubit circuit segments.

    Each fault gets a random state on the data wires 1-7 (the round
    segments' ancilla wires start in |0...0>). The faults at one gate of a
    segment run through :func:`_forked` in stacks of at most 2^14 input
    amplitudes, so round-segment faults run one at a time, all in one
    :class:`WorkingSet`. The frame, applied in place to a clean row, must
    give its faulted row up to global phase."""
    rng = np.random.default_rng(seed)
    segments = {
        "encoder": build_encoder(),
        "decoder": build_decoder(),
        "x-round": _strip_measurements(build_x_round_segment()),
        "z-round": _strip_measurements(build_z_round_segment()),
    }
    pool = []
    for name, circ in segments.items():
        locations = enumerable_locations(circ)
        for (index, _, _, qubit), frames in zip(locations, fault_frames(circ, locations, {})):
            for pauli, frame in zip("XYZ", frames):
                pool.append((name, index, qubit, pauli, frame))
    picks = rng.choice(len(pool), size=n_faults, replace=True)
    cuts: dict[tuple[str, int], list] = {}  # (segment, gate index) -> its faults, in draw order
    for idx in picks:
        name, index, qubit, pauli, frame = pool[int(idx)]
        cuts.setdefault((name, index), []).append((qubit, pauli, frame, random_state(7, rng)))
    widest = max(c.n_qubits for c in segments.values())
    work = WorkingSet(1 << widest, widest)
    disagreements = 0
    for (name, index), faults in cuts.items():
        circ, n = segments[name], segments[name].n_qubits
        per_run = 1 << (widest - n)
        for first in range(0, len(faults), per_run):
            run = faults[first:first + per_run]
            paulis = [PauliOperator.single(n, qubit + 1, pauli) for qubit, pauli, _, _ in run]
            clean, faulted = _forked(circ, index, [psi for *_, psi in run], paulis, work)  # data wires 1-7: low bits
            for (_, _, (x, z, _), _), c, f in zip(run, clean, faulted):
                apply_pauli(c, PauliOperator(n, x, z), work.scratch)
                if not states_equal(f, c, tol):
                    disagreements += 1
    return disagreements == 0, f"{n_faults} random faults, {disagreements} disagreements"


def run_all(n_oracle_faults: int = 200, seed: int = 20240817):
    """Every verification check as (name, passed, detail) rows."""
    return [
        ("encoder-codewords", *check_encoder_codewords()),
        ("steane-state-identity", *check_steane_state()),
        ("decoder-inverts-encoder", *check_decoder_inverts_encoder()),
        ("t-gadget-algebra", *check_t_gadget()),
        ("theta-prep", *check_theta_prep()),
        ("toffoli-ancilla-prep", *check_a_prep()),
        ("toffoli-gadget-algebra", *check_toffoli_gadget()),
        ("propagation-oracle", *check_propagation_oracle(n_oracle_faults, seed)),
    ]
