"""Gate-level circuit IR with stable labels, plus text serialization.

Labels follow the scheme's naming: data-block CNOTs ``C1``..``C36`` (a
repeated syndrome round reuses the number with a ``.2`` copy suffix),
Hadamards ``H1``..``H6``, flag CNOTs ``CN1``..``CN16``, terminal
measurements ``M<q>:Z`` / ``M<q>:X``. Everything else gets a synthetic
``G<n>`` label. Qubits are 0-indexed in memory and 1-indexed in text.

A :class:`Circuit` is an immutable record over a gate tuple: it is built
once and never edited, and a changed cycle is a new circuit. The readout
roles of an encode/decode cycle (the signature bits each readout feeds, the
decode-side Hadamards, the flag gadgets) are stored in neither the text nor
a circuit: :attr:`Circuit.layout` reads them off its labels when asked, for
built and parsed circuits alike.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .paulis import GENERATOR_SUPPORTS

ONE_QUBIT_KINDS = {"H", "S", "SDG", "T", "TDG", "X", "Z", "Y", "PREP0", "PREPP", "MZ", "MX"}
TWO_QUBIT_KINDS = {"CNOT", "CAT2"}
THREE_QUBIT_KINDS = {"CCX"}
MACRO_KINDS = {"PREP0L", "PREPSTEANE"}  # 7-qubit logical-ancilla preparations
PREP_KINDS = MACRO_KINDS | {"CAT2", "PREP0", "PREPP"}  # every preparation; all precede the labeled gates
MEASURE_KINDS = {"MZ", "MX"}
DATA_QUBITS = range(7)  # the code block's wires in every encode/decode cycle
_ARITY = {**dict.fromkeys(ONE_QUBIT_KINDS, 1), **dict.fromkeys(TWO_QUBIT_KINDS, 2),
          **dict.fromkeys(THREE_QUBIT_KINDS, 3), **dict.fromkeys(MACRO_KINDS, 7)}


_GateFields = namedtuple("_GateFields", ("kind", "qubits", "label"))  # str, tuple[int, ...], str


class Gate(_GateFields):
    """One labeled gate."""

    __slots__ = ()

    def __new__(cls, kind: str, qubits: tuple[int, ...], label: str):
        want = _ARITY.get(kind)
        if want is None:
            raise ValueError(f"unknown gate kind {kind!r}")
        if len(qubits) != want:
            raise ValueError(f"{kind} takes {want} qubit(s), got {qubits}")
        if want > 1 and len(set(qubits)) != want:
            raise ValueError(f"{label}: repeated operand in {qubits}")
        return tuple.__new__(cls, (kind, qubits, label))

    @property
    def is_measurement(self) -> bool:
        return self.kind in MEASURE_KINDS


class Circuit(namedtuple("Circuit", ("n_qubits", "gates", "name"))):
    """An immutable gate sequence over ``n_qubits`` wires.
    Fields: ``n_qubits`` int; ``gates`` tuple[Gate, ...], stored as a tuple
    whatever sequence is passed; ``name`` str."""

    __slots__ = ()

    def __new__(cls, n_qubits: int, gates=(), name: str = ""):
        return tuple.__new__(cls, (n_qubits, tuple(gates), name))

    @property
    def layout(self) -> CycleLayout:
        """The gates' :class:`CycleLayout`; ValueError if they are not a cycle."""
        return layout_of(self.gates)

    def validate(self) -> None:
        """Check operand ranges, label uniqueness and no gate after measurement."""
        seen: set[str] = set()
        dead: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n_qubits:
                    raise ValueError(f"{g.label}: qubit {q + 1} out of range (n={self.n_qubits})")
                if q in dead:
                    raise ValueError(f"{g.label}: qubit {q + 1} already measured")
            if g.label in seen:
                raise ValueError(f"duplicate label {g.label}")
            seen.add(g.label)
            if g.is_measurement:
                dead.add(g.qubits[0])

    def count_cnot_labels(self) -> int:
        """Distinct labeled CNOTs; syndrome-round copies share one number."""
        return len({base_label(g.label) for g in self.gates if g.kind == "CNOT"})


class FlagPlan(namedtuple("FlagPlan", ("gadget_id", "kind", "wire", "cn_labels"))):
    """One flag gadget: a cat pair of flag qubits bracketing a data wire.

    X-type gadgets couple wire->flag and read the flags in the Z basis;
    Z-type gadgets couple flag->wire and read them in the X basis.
    Fields: ``gadget_id`` int; ``kind`` str, "X" or "Z"; ``wire`` int, the
    0-indexed data qubit; ``cn_labels`` tuple[str, str].
    """

    __slots__ = ()

    @property
    def flag_side(self) -> str:
        """The leg of each CN gate that sits on a flag qubit."""
        return "target" if self.kind == "X" else "control"


class CycleLayout(namedtuple("CycleLayout", (
    "block",       # str: "data" or "aux"
    "feeds",       # tuple[tuple[str, int], ...]: (readout label, mask of the signature bits it feeds)
    "shape",       # tuple[int, int, int, int]: Z rounds, X rounds, terminal readouts, flag gadgets
    "terminal",    # tuple[int, ...]: the data qubit of each terminal readout, in signature order
    "swap",        # int: mask of the qubits a decode-side Hadamard (H4..H6) acts on
    "observable",  # tuple[int, int]: X and Z masks of the observable part of a residual
    "flag_legs",   # frozenset[tuple[str, str]]: the (label, side) flag-qubit leg of every gadget CN
    "gadgets",     # tuple[FlagPlan, ...]
))):
    """Readout roles of one encode/syndrome/decode cycle: which signature
    bits each readout feeds, and what the analysis reads of a residual."""

    __slots__ = ()


def derive_layout(gates: list[Gate]) -> CycleLayout:
    """Read the readout roles of a cycle off the label scheme.

    Syndrome round ``r`` of each type is the copy ``r`` of ``C12..C18``
    (X-stabilizers, ancilla as control) or ``C19..C25`` (Z-stabilizers,
    ancilla as target); gadget ``g`` is the pair ``CN(2g-1)``/``CN(2g)``, of
    X type when its first CN takes the data wire as control; ``H4..H6`` mark
    the qubits read in the X basis. The signature bits, most significant
    first, are a parity per stabilizer generator and round (Z rounds, then
    X rounds), the terminal readout of each data qubit but an unread qubit
    1, and a parity per gadget's two flag readouts; each readout's ``feeds``
    mask is assigned here, once. Readouts are indexed by wire and basis,
    so a readout in the wrong basis counts as missing. Raises ValueError
    naming the first expected label that is missing, a round coupling that
    is not a CNOT between its data wire and an ancilla on the round's side,
    a gadget whose two CN gates do not both couple one data wire to a
    non-data flag qubit, or decode-side Hadamards that are not ``H`` gates
    on three distinct data wires.
    """
    # One pass indexes the gate of each label, the readout of each wire and basis, the copy suffixes of
    # each round's first coupling and the gadget ids (gadget g shows by its CAT<g> or either CN).
    labels, readout, gadget_ids = {}, {}, set()
    copies: dict[str, set[str]] = {"C12": set(), "C19": set()}
    for g in gates:
        label = g.label
        labels[label] = g
        if g.kind in MEASURE_KINDS:
            readout[g.qubits[0], g.kind[1]] = label
        if label[:1] != "C":
            continue
        base, _, copy = label.partition(".")
        if base in copies:
            copies[base].add(copy)
        elif label[:2] == "CN" and label[2:].isdigit():
            gadget_ids.add((int(label[2:]) + 1) // 2)
        elif label[:3] == "CAT" and label[3:].isdigit():
            gadget_ids.add(int(label[3:]))
    if "C12" not in labels or "C19" not in labels:
        raise ValueError("not an encode/decode cycle: syndrome couplings C12/C19 missing")

    def gate(label: str, owner: str = "encode/decode cycle") -> Gate:
        if label not in labels:
            raise ValueError(f"{owner}: {label} missing")
        return labels[label]

    def read(qubit: int, basis: str, owner: str) -> str:
        if (qubit, basis) not in readout:
            raise ValueError(f"{owner}: readout M{qubit + 1}:{basis} missing")
        return readout[qubit, basis]

    def rounds(first: int, anc_side: int, basis: str) -> list[tuple[str, ...]]:
        """Per generator and round, the ancilla readouts of its support."""
        out = []
        for copy in sorted({int(suffix or 1) for suffix in copies[f"C{first}"]}):
            row = []
            for i in range(len(DATA_QUBITS)):
                label = copy_label(first + i, copy)
                g = gate(label)
                if g.kind != "CNOT" or g.qubits[1 - anc_side] != i or g.qubits[anc_side] in DATA_QUBITS:
                    side = ("control", "target")[anc_side]
                    raise ValueError(f"{label} must be a CNOT on data qubit {i + 1} with an ancilla {side}")
                row.append(read(g.qubits[anc_side], basis, label))
            out += [tuple(row[q - 1] for q in support) for support in GENERATOR_SUPPORTS]
        return out

    gadgets, flag_reads = [], []
    for gid in sorted(gadget_ids):
        cn_labels = (f"CN{2 * gid - 1}", f"CN{2 * gid}")
        a, b = (gate(label, f"flag gadget {gid}") for label in cn_labels)
        kind = "X" if a.qubits[0] in DATA_QUBITS else "Z"
        wire_side = 0 if kind == "X" else 1
        wire = a.qubits[wire_side] if a.kind == "CNOT" else None
        if wire not in DATA_QUBITS or any(
            g.kind != "CNOT" or g.qubits[wire_side] != wire or g.qubits[1 - wire_side] in DATA_QUBITS
            for g in (a, b)
        ):
            raise ValueError(f"flag gadget {gid}: {'/'.join(cn_labels)} must couple one data wire to flag qubits")
        basis = "Z" if kind == "X" else "X"
        flag_reads.append(tuple(read(g.qubits[1 - wire_side], basis, label) for g, label in zip((a, b), cn_labels)))
        gadgets.append(FlagPlan(gid, kind, wire, cn_labels))

    block = "data" if "C1" in labels else "aux"
    hadamards = [gate(f"H{i}") for i in (4, 5, 6)]
    if any(g.kind != "H" or g.qubits[0] not in DATA_QUBITS for g in hadamards):
        raise ValueError("encode/decode cycle: H4, H5 and H6 must be H gates on data wires")
    decode_h = tuple(g.qubits[0] for g in hadamards)
    if len(set(decode_h)) != len(decode_h):
        raise ValueError("encode/decode cycle: H4, H5 and H6 must act on three distinct wires")
    terminal = tuple(DATA_QUBITS if block == "aux" else DATA_QUBITS[1:])  # the data block keeps qubit 1
    x_bits, z_bits = rounds(12, 0, "X"), rounds(19, 1, "Z")
    bits = z_bits + x_bits + [(read(q, "Z", "terminal"),) for q in terminal] + flag_reads
    feeds: dict[str, int] = {}
    for k, group in enumerate(bits):  # a signature bit is the parity of the readout flips that feed it
        for label in group:
            feeds[label] = feeds.get(label, 0) ^ 1 << (len(bits) - 1 - k)
    # The observable part of a residual: the full Pauli on unread qubits, the
    # readout-flipping component (X of a Z readout, Z of an X readout) on read ones.
    x_read = {q for q in terminal if q in decode_h}
    return CycleLayout(
        block=block,
        feeds=tuple(feeds.items()),
        shape=(len(z_bits) // 3, len(x_bits) // 3, len(terminal), len(gadgets)),
        terminal=terminal,
        swap=sum(1 << q for q in decode_h),
        observable=(sum(1 << q for q in DATA_QUBITS if q not in x_read),
                    sum(1 << q for q in DATA_QUBITS if q not in terminal or q in x_read)),
        flag_legs=frozenset((label, plan.flag_side) for plan in gadgets for label in plan.cn_labels),
        gadgets=tuple(gadgets),
    )


layout_of = lru_cache(maxsize=1)(derive_layout)  # the one read of a layout, keyed by a gate tuple


def copy_label(number: int, copy: int) -> str:
    """Label of copy ``copy`` of syndrome-round gate ``C<number>``: C12, C12.2, ..."""
    return f"C{number}" if copy == 1 else f"C{number}.{copy}"


def base_label(label: str) -> str:
    """Strip a syndrome-round copy suffix: C12.2 -> C12."""
    return label.split(".")[0]


def serialize(circuit: Circuit) -> str:
    """One gate per line: ``LABEL KIND q1 [q2 ...]``, 1-indexed, ``#`` comments."""
    lines = [f"# circuit {circuit.name or 'unnamed'}", f"# qubits {circuit.n_qubits}"]
    for g in circuit.gates:
        ops = " ".join(str(q + 1) for q in g.qubits)
        lines.append(f"{g.label} {g.kind} {ops}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> Circuit:
    """Inverse of :func:`serialize`; raises ValueError with line numbers."""
    n_qubits, max_q, name = 0, 0, ""
    gates: list[Gate] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.lstrip()
        if line[:1] == "#":  # a comment line, or one of the two headers
            if line.startswith("# qubits"):
                try:
                    n_qubits = int(line.split()[2])
                except (IndexError, ValueError) as exc:
                    raise ValueError(f"line {lineno}: bad qubit header") from exc
            elif line.startswith("# circuit"):
                name = line[len("# circuit"):].strip()
            continue
        parts = line.partition("#")[0].split()
        if not parts:
            continue
        if len(parts) < 3:
            raise ValueError(f"line {lineno}: expected 'LABEL KIND q1 [q2 ...]'")
        label, kind, *ops = parts
        try:
            qubits = tuple([int(o) - 1 for o in ops])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer operand") from exc
        if min(qubits) < 0:
            raise ValueError(f"line {lineno}: qubits are 1-indexed")
        max_q = max(max_q, *qubits)
        try:
            gates.append(Gate(kind, qubits, label))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from exc
    circuit = Circuit(n_qubits or max_q + 1, gates, name=name)
    circuit.validate()
    return circuit
