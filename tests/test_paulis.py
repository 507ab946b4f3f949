"""Pauli algebra: conjugation rules against a dense matrix oracle."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from forward_reference import parity
from steanesim.paulis import GENERATOR_SUPPORTS, PauliOperator, conjugate_bits

I2 = np.eye(2)
MATS = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
CNOT_01 = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
)  # control = qubit 0 (low bit), target = qubit 1


def dense(p: PauliOperator) -> np.ndarray:
    """Matrix form with qubit 1 on the low bit (qubit n leads the kron)."""
    out = np.eye(1, dtype=complex)
    for q in range(p.n, 0, -1):
        out = np.kron(out, MATS[p.kind_on(q)])
    return out


def equal_up_to_phase(a: np.ndarray, b: np.ndarray) -> bool:
    idx = np.unravel_index(np.argmax(np.abs(a)), a.shape)
    if abs(a[idx]) < 1e-12:
        return np.allclose(b, 0)
    phase = b[idx] / a[idx]
    return np.isclose(abs(phase), 1, atol=1e-12) and np.allclose(a * phase, b, atol=1e-12)


paulis_2q = st.tuples(st.integers(0, 3), st.integers(0, 3))


def conjugate(kind: str, qubits: tuple[int, ...], p: PauliOperator) -> PauliOperator:
    """``p`` through one gate by the frame rule (0-indexed qubits)."""
    return PauliOperator(p.n, *conjugate_bits(kind, qubits, p.x_bits, p.z_bits))


def anticommute(a: PauliOperator, b: PauliOperator) -> int:
    return parity(a.x_bits & b.z_bits) ^ parity(a.z_bits & b.x_bits)


def two_qubit_pauli(bits: tuple[int, int]) -> PauliOperator:
    x = (bits[0] & 1) | ((bits[1] & 1) << 1)
    z = ((bits[0] >> 1) & 1) | (((bits[1] >> 1) & 1) << 1)
    return PauliOperator(2, x, z)


def test_single_qubit_constructors():
    y = PauliOperator.single(3, 2, "Y")
    assert y.x_bits == 0b010 and y.z_bits == 0b010
    assert str(y) == "Y2"
    assert str(PauliOperator(7, 0b1100001, 0)) == "X1X6X7"
    assert str(PauliOperator(7)) == "I"


def test_conjugation_examples():
    # X on the control of a CNOT copies to the target; Z on the control stays.
    assert str(conjugate("CNOT", (0, 1), PauliOperator.single(2, 1, "X"))) == "X1X2"
    assert str(conjugate("CNOT", (0, 1), PauliOperator.single(2, 1, "Z"))) == "Z1"
    assert str(conjugate("H", (0,), PauliOperator.single(1, 1, "Z"))) == "X1"
    assert conjugate_bits("CNOT", (0, 1), 0, 0) == (0, 0)


def test_conjugation_rejects_bad_operands():
    with pytest.raises(ValueError):
        conjugate_bits("CNOT", (1, 1), 0b10, 0)
    with pytest.raises(ValueError):
        conjugate_bits("T", (0,), 1, 0)
    with pytest.raises(ValueError):
        conjugate_bits("CCX", (0, 1, 2), 1, 0)


@given(paulis_2q)
def test_cnot_conjugation_matches_matrix_oracle(bits):
    """Exhaustive-by-hypothesis: conjugating through CNOT agrees with 4x4 algebra."""
    p = two_qubit_pauli(bits)
    got = conjugate("CNOT", (0, 1), p)
    lhs = CNOT_01 @ dense(p)
    rhs = dense(got) @ CNOT_01
    assert equal_up_to_phase(lhs, rhs)


def test_cnot_conjugation_textbook_table_exhaustive():
    for bits in [(a, b) for a in range(4) for b in range(4)]:
        p = two_qubit_pauli(bits)
        got = conjugate("CNOT", (0, 1), p)
        assert equal_up_to_phase(CNOT_01 @ dense(p), dense(got) @ CNOT_01)


@given(paulis_2q, st.sampled_from(["H0", "H1", "S0", "S1", "CNOT"]))
def test_self_inverse_conjugation_is_involution(bits, gate):
    # S is order 4 on operators but an involution sign-free.
    p = two_qubit_pauli(bits)
    if gate == "CNOT":
        kind, qubits = "CNOT", (0, 1)
    else:
        kind, qubits = gate[0], (int(gate[1]),)
    assert conjugate(kind, qubits, conjugate(kind, qubits, p)) == p


@given(paulis_2q, paulis_2q, st.sampled_from(["H", "S", "CNOT"]))
def test_conjugation_preserves_commutation(bits_a, bits_b, kind):
    a, b = two_qubit_pauli(bits_a), two_qubit_pauli(bits_b)
    qubits = (0, 1) if kind == "CNOT" else (0,)
    assert anticommute(a, b) == anticommute(conjugate(kind, qubits, a), conjugate(kind, qubits, b))


# A syndrome bit is the parity of the error over a generator's support:
# X components for a Z-type generator, Z components for an X-type one.
MASKS = [sum(1 << (q - 1) for q in support) for support in GENERATOR_SUPPORTS]
GENERATORS = [(PauliOperator(7, 0, m), "Z", m) for m in MASKS] + [(PauliOperator(7, m, 0), "X", m) for m in MASKS]


def syndrome_bit(err: PauliOperator, kind: str, mask: int) -> int:
    return parity((err.x_bits if kind == "Z" else err.z_bits) & mask)


def test_generators_match_check_matrix():
    assert GENERATOR_SUPPORTS == ((1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7))
    # Hamming [7,4] check matrix: column q is q in binary, generator i on bit i.
    for q in range(1, 8):
        assert [(m >> (q - 1)) & 1 for m in MASKS] == [(q >> i) & 1 for i in range(3)]
    # Every X-type generator commutes with every Z-type one.
    for a, _, _ in GENERATORS:
        for b, _, _ in GENERATORS:
            assert anticommute(a, b) == 0


def test_syndrome_bit_examples():
    x1 = PauliOperator.single(7, 1, "X")
    assert syndrome_bit(x1, *GENERATORS[0][1:]) == 1
    assert syndrome_bit(x1, *GENERATORS[2][1:]) == 0
    z5 = PauliOperator.single(7, 5, "Z")
    assert syndrome_bit(z5, *GENERATORS[3][1:]) == 1


def test_syndrome_bit_matches_dense_anticommutation():
    dense_gens = [dense(g) for g, _, _ in GENERATORS]
    rng = np.random.default_rng(5)
    for _ in range(100):
        err = PauliOperator(7, int(rng.integers(0, 128)), int(rng.integers(0, 128)))
        de = dense(err)
        for (_, kind, mask), dg in zip(GENERATORS, dense_gens):
            anti = np.allclose(de @ dg, -dg @ de)
            assert anti or np.allclose(de @ dg, dg @ de)
            assert syndrome_bit(err, kind, mask) == anti
