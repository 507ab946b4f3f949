"""Sign-free Pauli algebra on X/Z bit vectors.

An n-qubit Pauli is stored as two n-bit integers: bit q of ``x_bits`` set
means an X component on qubit q, bit q of ``z_bits`` a Z component, both set
means Y (global phase discarded throughout). Qubits are 0-indexed here;
display helpers render 1-indexed names like ``X1X6``.
"""
from __future__ import annotations

from typing import NamedTuple

# Stabilizer generator supports, 1-indexed qubits {1,3,5,7}, {2,3,6,7}, {4,5,6,7}.
GENERATOR_SUPPORTS = ((1, 3, 5, 7), (2, 3, 6, 7), (4, 5, 6, 7))


class _PauliFields(NamedTuple):
    n: int
    x_bits: int
    z_bits: int


class PauliOperator(_PauliFields):
    """n-qubit Pauli as paired X/Z bit vectors, phase-free."""

    __slots__ = ()

    def __new__(cls, n: int, x_bits: int = 0, z_bits: int = 0):
        mask = (1 << n) - 1
        if x_bits & ~mask or z_bits & ~mask:
            raise ValueError(f"bit vectors exceed {n} qubits")
        return tuple.__new__(cls, (n, x_bits, z_bits))

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

    def kind_on(self, qubit: int) -> str:
        """Pauli letter on a 1-indexed qubit: I, X, Y or Z."""
        bit = 1 << (qubit - 1)
        x, z = bool(self.x_bits & bit), bool(self.z_bits & bit)
        return {(False, False): "I", (True, False): "X", (False, True): "Z", (True, True): "Y"}[(x, z)]

    def __str__(self) -> str:
        parts = [f"{self.kind_on(q)}{q}" for q in range(1, self.n + 1) if self.kind_on(q) != "I"]
        return "".join(parts) if parts else "I"


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
