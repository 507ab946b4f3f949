"""Dense statevector oracle behavior and the verification suites."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forward_reference import controlled_x, simulate_gate_by_gate
from steanesim import verification
from steanesim.builders import (
    GadgetSpec,
    ancilla_prep,
    build_decoder,
    build_encoder,
    build_gadget,
    build_toffoli_decomposition,
    build_x_round_segment,
    build_z_round_segment,
)
from steanesim.circuits import MACRO_KINDS, Circuit, Gate
from steanesim.faults import enumerable_locations
from steanesim.paulis import PauliOperator
from steanesim.statevec import (
    LOGICAL_ZERO_WORDS,
    _MATRICES,
    apply_1q,
    apply_pauli,
    logical_zero_state,
    project,
    random_product_state,
    random_state,
    simulate_statevector,
    states_equal,
    steane_state,
    zero_state,
)


def test_encoder_amplitudes_are_uniform_over_even_codewords():
    out = simulate_statevector(build_encoder())
    nonzero = np.flatnonzero(np.abs(out) > 1e-12)
    assert len(nonzero) == 8
    assert np.allclose(out[nonzero], 1 / np.sqrt(8), atol=1e-12)
    words = {format(i, "07b")[::-1] for i in nonzero}  # bit q-1 holds qubit q
    assert words == set(LOGICAL_ZERO_WORDS)


def test_steane_state_is_uniform_sixteen():
    s = steane_state()
    assert np.count_nonzero(np.abs(s) > 1e-12) == 16
    assert np.allclose(s[np.abs(s) > 1e-12], 0.25, atol=1e-12)


def test_empty_circuit_returns_input():
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    out = simulate_statevector(Circuit(2), input_state=psi)
    assert np.array_equal(out, psi)


def test_qubit_budget_enforced():
    with pytest.raises(ValueError, match="budget"):
        simulate_statevector(Circuit(21))


def test_unitary_norm_preserved():
    rng = np.random.default_rng(3)
    c = build_gadget(GadgetSpec("csDecomp"))
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    out = simulate_statevector(c, input_state=psi)
    assert abs(np.linalg.norm(out) - 1) < 1e-12


def test_projection_on_impossible_outcome_raises():
    c = Circuit(1, [Gate("MZ", (0,), "M1:Z")])
    with pytest.raises(ValueError, match="zero amplitude"):
        simulate_statevector(c, input_state=zero_state(1), outcomes={"M1:Z": 1})


def test_cz_and_cs_decompositions_match_matrices():
    for name, diag in (("czDecomp", [1, 1, 1, -1]), ("csDecomp", [1, 1, 1, 1j])):
        c = build_gadget(GadgetSpec(name))
        cols = []
        for basis in range(4):
            e = np.zeros(4, dtype=complex)
            e[basis] = 1.0
            out = simulate_statevector(c, input_state=e)
            cols.append(out)
        got = np.column_stack(cols)
        # control = qubit 0 (low bit); the phase sits on the index with both bits set
        want = np.diag(diag).astype(complex)
        assert np.allclose(got, want, atol=1e-12), name


def test_toffoli_decomposition_equals_ccx():
    c = build_toffoli_decomposition()
    rng = np.random.default_rng(11)
    for _ in range(6):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        got = simulate_statevector(c, input_state=psi)
        want = controlled_x(psi, (0, 1), 2, 3)
        assert states_equal(got, want, 1e-12)


def _one_gate(kind: str, qubits: tuple[int, ...], n: int) -> Circuit:
    return Circuit(n, [Gate(kind, qubits, "G1")])


def test_apply_cnot_agrees_with_truth_table():
    cnot = _one_gate("CNOT", (0, 1), 2)
    for basis in range(4):
        e = np.zeros(4, dtype=complex)
        e[basis] = 1.0
        out = simulate_statevector(cnot, e)
        c, t = basis & 1, (basis >> 1) & 1
        expected = c | ((t ^ c) << 1)
        assert abs(out[expected] - 1) < 1e-12


def test_verification_suites_pass():
    for name, ok, detail in verification.run_all(n_oracle_faults=40, seed=99):
        assert ok, f"{name}: {detail}"


def test_logical_zero_words_form_a_linear_code():
    words = [int(w[::-1], 2) for w in LOGICAL_ZERO_WORDS]
    for a in words:
        for b in words:
            assert (a ^ b) in words
    assert np.allclose(np.linalg.norm(logical_zero_state()), 1.0)


def _tensordot_1q(state, matrix, qubit, n):
    """Reference: the 1-qubit kernel through np.tensordot, one state at a time."""
    psi = state.reshape([2] * n)
    axis = n - 1 - qubit
    psi = np.moveaxis(np.tensordot(matrix, np.moveaxis(psi, axis, 0), axes=([1], [0])), 0, axis)
    return np.ascontiguousarray(psi).reshape(-1)


def test_apply_1q_matches_tensordot_bit_for_bit():
    # The printed amplitude errors of ``verify`` depend on this rounding.
    rng = np.random.default_rng(17)
    for n in range(1, 8):
        psi = random_state(n, rng)
        for name, matrix in _MATRICES.items():
            for q in range(n):
                got = apply_1q(psi, matrix, q, n)
                assert got.tobytes() == _tensordot_1q(psi, matrix, q, n).tobytes(), (n, name, q)


def test_kernels_act_on_each_row_of_a_stack():
    rng = np.random.default_rng(19)
    for n in range(1, 8):
        stack = np.stack((random_state(n, rng), random_state(n, rng)))
        kernels = []
        for q in range(n):
            kernels += [(lambda s, m=m, q=q: apply_1q(s, m, q, n)) for m in _MATRICES.values()]
            kernels += [(lambda s, q=q, o=o: project(s, q, o, n)) for o in (0, 1)]
            kernels += [(lambda s, c=_one_gate("CNOT", (q, t), n): simulate_statevector(c, s)) for t in range(n) if t != q]
        if n >= 3:
            kernels.append(lambda s, c=_one_gate("CCX", (n - 1, 0, 1), n): simulate_statevector(c, s))
        for kernel in kernels:
            out = kernel(stack)
            assert out.shape == stack.shape
            for row, single in zip(out, stack):
                want = kernel(single)
                if n >= 3:
                    assert row.tobytes() == want.tobytes()
                else:  # one or two columns per row: BLAS takes another kernel, last bits may differ
                    assert np.allclose(row, want, rtol=0, atol=1e-15)


def _padded(data: np.ndarray, n: int) -> np.ndarray:
    """Data states (rows) on wires 1-7, every other wire of ``n`` in |0>."""
    state = np.zeros(data.shape[:-1] + (1 << n,), dtype=complex)
    state[..., :128] = data
    return state


def _round_segment_and_input():
    segment = verification._strip_measurements(build_x_round_segment())
    return segment, _padded(random_state(7, np.random.default_rng(23)), 14)


def _gate_by_gate(segment: Circuit) -> Circuit:
    """The segment with each macro replaced by its ``ancilla_prep`` rows on the macro's wires."""
    gates = []
    for g in segment.gates:
        if g.kind in MACRO_KINDS:
            gates += [Gate(k, tuple(g.qubits[q] for q in qs), f"{g.label}.{lbl}") for k, qs, lbl in ancilla_prep(g.kind)]
        else:
            gates.append(g)
    return Circuit(segment.n_qubits, gates)


@pytest.mark.parametrize("build", [build_x_round_segment, build_z_round_segment])
def test_placed_block_equals_gate_by_gate_preparation(build):
    segment = verification._strip_measurements(build())
    reference = _gate_by_gate(segment)
    rng = np.random.default_rng(29)
    single = _padded(random_state(7, rng), 14)
    stacked = _padded(np.stack([random_state(7, rng) for _ in range(3)]), 14)
    for psi in (single, stacked):
        got = simulate_statevector(segment, psi)
        assert got.shape == psi.shape
        assert np.max(np.abs(got - simulate_statevector(reference, psi))) <= 1e-15


def test_macro_on_wires_not_in_zero_raises():
    segment, _ = _round_segment_and_input()
    with pytest.raises(ValueError, match="macro PX1 .*\\|0>"):
        simulate_statevector(segment, random_state(14, np.random.default_rng(31)))


def test_fork_clean_row_equals_unforked_run():
    # The cut flushes the pending CNOT run at the fault gate; the uncut run
    # carries it on. Both give the same bytes, at every cut of the segment.
    segment, psi = _round_segment_and_input()
    uncut = simulate_statevector(segment, psi)
    fault = PauliOperator.single(segment.n_qubits, 3, "Y")
    for index in range(len(segment.gates)):
        prefix, suffix = (Circuit(14, gates) for gates in (segment.gates[:index + 1], segment.gates[index + 1:]))
        assert simulate_statevector(suffix, simulate_statevector(prefix, psi)).tobytes() == uncut.tobytes(), index
        if segment.gates[index].kind == "CNOT":
            clean, faulted = verification._forked(segment, index, psi, [fault])
            assert clean.tobytes() == uncut.tobytes()
            assert not states_equal(faulted, clean)


def test_fork_needs_one_pauli_per_row():
    encoder = build_encoder()
    rng = np.random.default_rng(37)
    stack = np.stack([random_state(7, rng) for _ in range(3)])
    faults = [PauliOperator.single(7, q, "Z") for q in (1, 2, 3)]
    index = next(i for i, g in enumerate(encoder.gates) if g.label == "C5")
    clean, faulted = verification._forked(encoder, index, stack, faults)
    for row, psi, fault in zip(faulted, stack, faults):
        assert row.tobytes() == verification._forked(encoder, index, psi, [fault])[1].tobytes()


def test_stacked_round_trip_equals_one_run_per_state():
    # The decoder check runs its product states as one stack: each row must
    # be bit-identical to running that state alone.
    rng = np.random.default_rng(7)
    states = [random_product_state(7, rng) for _ in range(20)]
    encoder, decoder = build_encoder(), build_decoder()
    stacked = simulate_statevector(decoder, simulate_statevector(encoder, np.stack(states)))
    for row, psi in zip(stacked, states):
        assert row.tobytes() == simulate_statevector(decoder, simulate_statevector(encoder, psi)).tobytes()


def test_apply_pauli_matches_matrix_product_bit_for_bit():
    rng = np.random.default_rng(41)
    for n in [*range(1, 8), 14]:
        for _ in range(6):
            p = PauliOperator(n, int(rng.integers(1 << n)), int(rng.integers(1 << n)))
            for psi in (random_state(n, rng), np.stack((random_state(n, rng), random_state(n, rng)))):
                want = psi
                for q in range(n):
                    if p.kind_on(q + 1) != "I":
                        want = apply_1q(want, _MATRICES[p.kind_on(q + 1)], q, n)
                got = psi.copy()
                assert apply_pauli(got, p) is None
                assert got.tobytes() == want.tobytes(), (n, str(p))
    with pytest.raises(ValueError, match="C-contiguous rows"):
        apply_pauli(random_state(3, rng), PauliOperator.single(2, 1, "X"))
    with pytest.raises(ValueError, match="C-contiguous rows"):
        apply_pauli(np.stack((random_state(2, rng), random_state(2, rng))).T, PauliOperator.single(1, 1, "X"))


def test_oracle_catches_a_wrong_propagation(monkeypatch):
    true_sweep = verification.fault_frames
    # The Z word dropped on every segment; on the 14-qubit round segments only
    # (one fault per run); on the 7-qubit encoder and decoder only (stacked runs).
    for wrong_widths in ((7, 14), (14,), (7,)):

        def x_word_only(circuit, locations, readouts, wrong_widths=wrong_widths):
            frames = true_sweep(circuit, locations, readouts)
            if circuit.n_qubits not in wrong_widths:
                return frames
            return [tuple((x, 0, flips) for x, _, flips in paulis) for paulis in frames]

        monkeypatch.setattr(verification, "fault_frames", x_word_only)
        ok, detail = verification.check_propagation_oracle(n_faults=40, seed=99)
        assert not ok, wrong_widths
        assert int(detail.split(", ")[1].split()[0]) > 0


def test_oracle_runs_each_drawn_fault_on_its_own_input(monkeypatch):
    cuts, runs = [], []
    forked, simulate = verification._forked, verification.simulate_statevector

    def spy_forked(circuit, index, rows, paulis, work):
        cuts.append((circuit, index, [str(p) for p in paulis]))
        return forked(circuit, index, rows, paulis, work)

    def spy_simulate(circuit, inputs, work):
        runs.append((circuit.gates, inputs.copy()))
        return simulate(circuit, inputs, work=work)

    monkeypatch.setattr(verification, "_forked", spy_forked)
    monkeypatch.setattr(verification, "simulate_statevector", spy_simulate)
    assert verification.check_propagation_oracle(n_faults=40, seed=99)[0]
    # Each cut is a prefix run through the fault gate on the input rows, then a
    # suffix run on the (clean, faulted) pair.
    assert len(runs) == 2 * len(cuts)
    prefixes, suffixes = runs[::2], runs[1::2]
    got = sorted((c.gates[i].label, p, row.tobytes())
                 for (c, i, paulis), (_, rows) in zip(cuts, prefixes) for p, row in zip(paulis, rows))
    # The draws of one dense run per fault: all picks, then a data state per pick.
    rng = np.random.default_rng(99)
    strip = verification._strip_measurements
    segments = (build_encoder(), build_decoder(), strip(build_x_round_segment()), strip(build_z_round_segment()))
    pool = [(c.n_qubits, label, qubit, p) for c in segments for _, label, _, qubit in enumerable_locations(c) for p in "XYZ"]
    want = []
    for idx in rng.choice(len(pool), size=40, replace=True):
        n, label, qubit, p = pool[int(idx)]
        want.append((label, str(PauliOperator.single(n, qubit + 1, p)), _padded(random_state(7, rng), n).tobytes()))
    assert got == sorted(want)
    # Encoder and decoder faults at one gate share a run; a prefix holds at
    # most 2^14 input amplitudes, a suffix pair at most 2^15.
    assert max(len(paulis) for c, _, paulis in cuts if c.n_qubits == 7) > 1
    for (circuit, index, _), (prefix, rows), (suffix, pair) in zip(cuts, prefixes, suffixes):
        assert prefix == circuit.gates[:index + 1] and suffix == circuit.gates[index + 1:]
        assert pair.shape == (2,) + rows.shape
        assert rows.size <= 1 << 14 and pair.size <= 1 << 15


def test_oracle_memory_is_one_working_set():
    # One (2, 2^14) clean/faulted pair, a scratch row and two index rows (1 MB)
    # serve every cut, and the 200 drawn 7-qubit states take 0.4 MB: a 1.77 MB
    # peak, bounded here with 20% to spare. A pair and fresh kernel outputs
    # per fault, and a memo of 14-qubit maps, peaked at 2.8 MB.
    verification.check_propagation_oracle()  # builds the cached segments and macro blocks
    tracemalloc.start()
    try:
        assert verification.check_propagation_oracle()[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_125_000


# Runs of controlled-X gates, broken by the other kinds; each gate gets its own label.
DENSE_KINDS = ("CNOT", "CNOT", "CNOT", "CCX", "CAT2", "PREPP", "X", "H", "S")


@st.composite
def dense_runs(draw):
    """A random CNOT/CCX/CAT2/PREPP/X/H/S circuit on n <= 8 qubits, an input
    (one state or a stack), and either no cut or a cut after a random gate
    index with one random Pauli per input row."""
    n = draw(st.integers(1, 8))
    arity = {"CNOT": 2, "CAT2": 2, "CCX": 3}
    kinds = [k for k in DENSE_KINDS if arity.get(k, 1) <= n]
    gates = []
    for i in range(draw(st.integers(1, 20))):
        kind = draw(st.sampled_from(kinds))
        gates.append(Gate(kind, tuple(draw(st.permutations(range(n)))[:arity.get(kind, 1)]), f"G{i}"))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.sampled_from([None, 1, 3]))
    psi = random_state(n, rng) if rows is None else np.stack([random_state(n, rng) for _ in range(rows)])
    cut = None
    if draw(st.booleans()):
        paulis = [PauliOperator(n, int(rng.integers(1 << n)), int(rng.integers(1 << n))) for _ in range(rows or 1)]
        cut = (draw(st.integers(0, len(gates) - 1)), paulis)
    return Circuit(n, gates), psi, cut


@settings(max_examples=300, deadline=None)
@given(dense_runs())
def test_fused_runs_equal_gate_by_gate_application_bit_for_bit(case):
    circuit, psi, cut = case
    if cut is None:
        got, want = simulate_statevector(circuit, psi), simulate_gate_by_gate(circuit, psi)
    else:
        index, paulis = cut
        got = verification._forked(circuit, index, psi, paulis)
        want = simulate_gate_by_gate(circuit, psi, (circuit.gates[index].label, paulis))
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("build", [build_x_round_segment, build_z_round_segment])
def test_round_segment_runs_equal_gate_by_gate_application_bit_for_bit(build):
    # The CNOTs after the ancilla block: one 14-qubit run, cut after each of its gates.
    segment = verification._strip_measurements(build())
    cnots = Circuit(14, [g for g in segment.gates if g.kind == "CNOT"])
    rng = np.random.default_rng(43)
    single, stacked = random_state(14, rng), np.stack([random_state(14, rng) for _ in range(2)])
    for psi in (single, stacked):
        rows = psi.size >> 14
        assert simulate_statevector(cnots, psi).tobytes() == simulate_gate_by_gate(cnots, psi).tobytes()
        for index, g in enumerate(cnots.gates):
            paulis = [PauliOperator(14, int(rng.integers(1 << 14)), int(rng.integers(1 << 14))) for _ in range(rows)]
            got = verification._forked(cnots, index, psi, paulis)
            assert got.tobytes() == simulate_gate_by_gate(cnots, psi, (g.label, paulis)).tobytes(), g.label


@pytest.mark.parametrize("wires", [(9, 8, 7, 6, 5, 4, 3), (8, 1, 5, 0, 9, 3, 6), (0, 1, 2, 3, 4, 5, 6)])
def test_block_placed_on_any_wires_equals_gate_by_gate_preparation(wires):
    rng = np.random.default_rng(47)
    free = [q for q in range(10) if q not in wires]
    for kind in sorted(MACRO_KINDS):
        segment = Circuit(10, [Gate(kind, wires, "P1")])
        # a random state on the three free wires, every block wire in |0>
        psi = np.zeros((2, 1 << 10), dtype=complex)
        for i in range(8):
            psi[:, sum(((i >> j) & 1) << q for j, q in enumerate(free))] = rng.normal(size=2) + 1j * rng.normal(size=2)
        got = simulate_statevector(segment, psi)
        assert got.shape == psi.shape
        assert np.max(np.abs(got - simulate_statevector(_gate_by_gate(segment), psi))) <= 1e-15, kind


def _vdot_distance(a, b) -> float:
    """The distance from 1 of the normalized overlap, through np.vdot and np.linalg.norm."""
    return abs(abs(np.vdot(a, b)) / (np.linalg.norm(a) * np.linalg.norm(b)) - 1.0)


@pytest.mark.parametrize("n", [7, 14])
def test_states_equal_up_to_global_phase_only(n):
    rng = np.random.default_rng(53)
    psi = random_state(n, rng)
    phased = np.exp(1j * rng.uniform(0, 2 * np.pi)) * psi
    bumped = psi + 1e-6 * random_state(n, rng)
    # The distance is second order in the perturbation: about 5e-13 at 1e-6,
    # inside the default tolerance and outside 1e-13.
    assert states_equal(psi, phased, tol=1e-13) and states_equal(psi, phased)
    assert not states_equal(psi, bumped, tol=1e-13) and states_equal(psi, bumped)
    zero = np.zeros(1 << n, dtype=complex)
    assert states_equal(zero, zero.copy())
    assert not states_equal(zero, psi) and not states_equal(psi, zero)


@pytest.mark.parametrize("n", [7, 14])
def test_states_equal_agrees_with_the_vdot_definition(n):
    # Each pair's distance through np.vdot, moved by 1e-12 either way, must
    # put the pair on either side of the tolerance.
    rng = np.random.default_rng(59)
    for scale in (1.0, 1e-3, 1e-5):
        a = random_state(n, rng)
        b = np.exp(1j * rng.uniform(0, 2 * np.pi)) * a + scale * random_state(n, rng)
        distance = _vdot_distance(a, b)
        assert distance > 1e-11
        assert states_equal(a, b, tol=distance + 1e-12)
        assert not states_equal(a, b, tol=distance - 1e-12)
