"""Sign-free Pauli algebra on X/Z bit vectors.

An n-qubit Pauli is stored as two n-bit integers: bit q of ``x_bits`` set
means an X component on qubit q, bit q of ``z_bits`` a Z component, both set
means Y (global phase discarded throughout). Qubits are 0-indexed here;
display helpers render 1-indexed names like ``X1X6``.
"""
from __future__ import annotations

from dataclasses import dataclass

STEANE_N = 7

# Stabilizer generator supports, 1-indexed qubits {1,3,5,7}, {2,3,6,7}, {4,5,6,7}.
GENERATOR_SUPPORTS = ((1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7))


def mask_from_qubits(qubits) -> int:
    """Bit mask from 1-indexed qubit numbers."""
    m = 0
    for q in qubits:
        m |= 1 << (q - 1)
    return m


def parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class PauliOperator:
    """n-qubit Pauli as paired X/Z bit vectors, phase-free."""

    n: int
    x_bits: int = 0
    z_bits: int = 0

    def __post_init__(self):
        mask = (1 << self.n) - 1
        if self.x_bits & ~mask or self.z_bits & ~mask:
            raise ValueError(f"bit vectors exceed {self.n} qubits")

    @classmethod
    def identity(cls, n: int) -> "PauliOperator":
        return cls(n, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, kind: str) -> "PauliOperator":
        """Single-qubit Pauli; ``qubit`` is 1-indexed, kind in {X, Y, Z}."""
        bit = 1 << (qubit - 1)
        if kind == "X":
            return cls(n, bit, 0)
        if kind == "Z":
            return cls(n, 0, bit)
        if kind == "Y":
            return cls(n, bit, bit)
        raise ValueError(f"unknown Pauli kind {kind!r}")

    @classmethod
    def from_name(cls, n: int, name: str) -> "PauliOperator":
        """Parse names like ``X1X6X7``, ``Z2Z3``, ``Y4``, ``I``."""
        x = z = 0
        i = 0
        name = name.strip()
        if name in ("", "I"):
            return cls(n, 0, 0)
        while i < len(name):
            kind = name[i]
            i += 1
            j = i
            while j < len(name) and name[j].isdigit():
                j += 1
            if kind not in "XYZ" or j == i:
                raise ValueError(f"bad Pauli name {name!r}")
            bit = 1 << (int(name[i:j]) - 1)
            if kind in "XY":
                x |= bit
            if kind in "ZY":
                z |= bit
            i = j
        return cls(n, x, z)

    @property
    def is_identity(self) -> bool:
        return self.x_bits == 0 and self.z_bits == 0

    def multiply(self, other: "PauliOperator") -> "PauliOperator":
        """Componentwise product, phase discarded (XOR of bit vectors)."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return PauliOperator(self.n, self.x_bits ^ other.x_bits, self.z_bits ^ other.z_bits)

    def symplectic_product(self, other: "PauliOperator") -> int:
        if self.n != other.n:
            raise ValueError("size mismatch")
        return parity(self.x_bits & other.z_bits) ^ parity(self.z_bits & other.x_bits)

    def kind_on(self, qubit: int) -> str:
        """Pauli letter on a 1-indexed qubit: I, X, Y or Z."""
        bit = 1 << (qubit - 1)
        x, z = bool(self.x_bits & bit), bool(self.z_bits & bit)
        return {(False, False): "I", (True, False): "X", (False, True): "Z", (True, True): "Y"}[(x, z)]

    def __str__(self) -> str:
        parts = [f"{self.kind_on(q)}{q}" for q in range(1, self.n + 1) if self.kind_on(q) != "I"]
        return "".join(parts) if parts else "I"


@dataclass(frozen=True)
class StabilizerGenerator:
    """One X-type or Z-type stabilizer generator of the 7-qubit code."""

    kind: str     # "X" or "Z"
    support: int  # 7-bit mask
    label: str    # "g1".."g3"

    def as_pauli(self, n: int = STEANE_N) -> PauliOperator:
        if self.kind == "Z":
            return PauliOperator(n, 0, self.support)
        return PauliOperator(n, self.support, 0)


Z_GENERATORS = tuple(
    StabilizerGenerator("Z", mask_from_qubits(s), f"g{i + 1}") for i, s in enumerate(GENERATOR_SUPPORTS)
)
X_GENERATORS = tuple(
    StabilizerGenerator("X", mask_from_qubits(s), f"g{i + 1}") for i, s in enumerate(GENERATOR_SUPPORTS)
)


def check_matrix() -> list[list[int]]:
    """6x14 binary check matrix [Hz | Hx]; rows are bit-identical to the generators."""
    rows = []
    for g in Z_GENERATORS:
        rows.append([(g.support >> q) & 1 for q in range(STEANE_N)] + [0] * STEANE_N)
    for g in X_GENERATORS:
        rows.append([0] * STEANE_N + [(g.support >> q) & 1 for q in range(STEANE_N)])
    return rows


def syndrome_bit(err: PauliOperator, g: StabilizerGenerator) -> int:
    """1 iff the error anticommutes with the generator."""
    if err.n != STEANE_N:
        raise ValueError("syndrome_bit expects a 7-qubit error")
    if g.kind == "Z":
        return parity(err.x_bits & g.support)
    return parity(err.z_bits & g.support)


def conjugate_through(kind: str, qubits: tuple[int, ...], p: PauliOperator) -> PauliOperator:
    """Heisenberg-picture propagation of ``p`` through one Clifford gate.

    Returns P' with gate∘P = P'∘gate up to global phase. ``qubits`` are
    0-indexed. The rule itself is :func:`conjugate_bits`.
    """
    for q in qubits:
        if q < 0 or q >= p.n:
            raise ValueError(f"gate qubit {q} out of range for n={p.n}")
    return PauliOperator(p.n, *conjugate_bits(kind, qubits, p.x_bits, p.z_bits))


def conjugate_bits(kind: str, qubits: tuple[int, ...], x: int, z: int) -> tuple[int, int]:
    """The conjugation rule on a frame held as X and Z bit words.

    CNOT copies X from control to target and Z from target to control; H
    swaps X and Z; S maps X<->Y; Paulis and measurements act trivially on
    the frame. T is not a Clifford and is rejected.
    """
    if kind == "CNOT":
        c, t = qubits
        if c == t:
            raise ValueError("CNOT needs distinct qubits")
        if (x >> c) & 1:
            x ^= 1 << t
        if (z >> t) & 1:
            z ^= 1 << c
    elif kind == "H":
        (q,) = qubits
        bit = 1 << q
        xb, zb = x & bit, z & bit
        x = (x & ~bit) | zb
        z = (z & ~bit) | xb
    elif kind in ("S", "SDG"):
        (q,) = qubits
        if (x >> q) & 1:
            z ^= 1 << q
    elif kind in ("X", "Z", "Y", "MZ", "MX"):
        pass
    elif kind in ("T", "TDG"):
        raise ValueError("T gates are not propagation steps in the frame engine")
    else:
        raise ValueError(f"no conjugation rule for gate kind {kind!r}")
    return x, z
