"""Builders for the encode/decode cycle and the fault-tolerant gate gadgets.

Data-block layout (1-indexed qubits, qubit 1 carries the data):

* encoder: H1,H2,H3 on qubits 2,3,4; CNOTs C1 (1->6), C2 (1->7) fan the data
  qubit out, C3-C5 fan qubit 2 to {1,5,6}, C6-C8 fan qubit 3 to {1,5,7},
  C9-C11 fan qubit 4 to {5,6,7};
* two X-stabilizer syndrome rounds C12-C18 (one coupling CNOT per data
  qubit, ancilla block in the logical zero state as control, ancilla
  measured in the X basis), repeated copies share the gate number;
* two Z-stabilizer syndrome rounds C19-C25 (data as control, ancilla block
  in the uniform-codeword state as target, measured in the Z basis);
* decoder: C26-C36 mirror the encoder in reverse, then H4,H5,H6; qubits
  2-4 are read out in the X basis (H + Z readout), qubits 5-7 in Z.

Flag gadgets are cat-pair CNOT brackets around a guarded wire segment:
CN1/CN2 on qubit 2 across C3..C5, CN3/CN4 on qubit 3 across C6..C8,
CN5/CN6 on qubit 4 across C9..C11, CN7/CN8 on qubit 4 from the second
Z-round copy of C22 to C28, CN9/CN10 on qubit 5 across C4..C16, CN11/CN12
on qubit 7 across C26..C35, CN13/CN14 on qubit 6 across C27..C36, CN15/CN16
on qubit 5 across C28..C33. X-type gadgets couple wire->flag and are
Z-measured; Z-type gadgets couple flag->wire and are X-measured.

The auxiliary-block variant (verified logical-zero preparation) drops C1,
C2, C35, C36 and the Z-type gadgets CN9-CN16, and measures all seven
qubits (qubit 1 in the Z basis).
"""
from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate, derive_layout

N = 7

# Encoder CNOTs, 1-indexed (control, target), in time order.
ENCODER_CNOTS = {
    1: (1, 6), 2: (1, 7),
    3: (2, 1), 4: (2, 5), 5: (2, 6),
    6: (3, 1), 7: (3, 5), 8: (3, 7),
    9: (4, 5), 10: (4, 6), 11: (4, 7),
}
# Decoder mirrors the encoder in reverse order: C(37-i) undoes Ci.
DECODER_CNOTS = {37 - i: ct for i, ct in ENCODER_CNOTS.items()}
ENCODE_H = {1: 2, 2: 3, 3: 4}   # H1..H3 -> qubit
DECODE_H = {4: 2, 5: 3, 6: 4}   # H4..H6 -> qubit

# Flag gadgets: id -> (kind, wire, CN labels, anchors). An anchor "C22.2"
# names the gate instance the first CN precedes / the second CN follows.
FLAG_GADGETS = {
    1: ("X", 2, ("CN1", "CN2"), ("C3", "C5")),
    2: ("X", 3, ("CN3", "CN4"), ("C6", "C8")),
    3: ("X", 4, ("CN5", "CN6"), ("C9", "C11")),
    4: ("X", 4, ("CN7", "CN8"), ("C22.2", "C28")),
    5: ("Z", 5, ("CN9", "CN10"), ("C4", "C16.2")),
    6: ("Z", 7, ("CN11", "CN12"), ("C26", "C35")),
    7: ("Z", 6, ("CN13", "CN14"), ("C27", "C36")),
    8: ("Z", 5, ("CN15", "CN16"), ("C28", "C33")),
}
AUX_OMITTED_CNOTS = (1, 2, 35, 36)
AUX_GADGETS = (1, 2, 3, 4)


def _round_label(number: int, rep: int) -> str:
    return f"C{number}" if rep == 1 else f"C{number}.{rep}"


def build_encoder() -> Circuit:
    """Seven-qubit encoder: 3 Hadamards and the 11 fan-out CNOTs C1-C11."""
    c = Circuit(N, name="encoder")
    for i, q in ENCODE_H.items():
        c.add("H", (q - 1,), f"H{i}")
    for i, (ctl, tgt) in ENCODER_CNOTS.items():
        c.add("CNOT", (ctl - 1, tgt - 1), f"C{i}")
    c.validate()
    return c


def build_decoder() -> Circuit:
    """Inverse of the encoder: C26-C36 then H4-H6 (no measurements)."""
    c = Circuit(N, name="decoder")
    for i in range(26, 37):
        ctl, tgt = DECODER_CNOTS[i]
        c.add("CNOT", (ctl - 1, tgt - 1), f"C{i}")
    for i, q in DECODE_H.items():
        c.add("H", (q - 1,), f"H{i}")
    c.validate()
    return c


def build_full_ec_circuit(
    include_flags: bool = True,
    block_kind: str = "data",
    syndrome_reps: int = 2,
    x_rounds_first: bool = True,
    gadget_overrides: dict | None = None,
) -> Circuit:
    """Complete encode / syndrome / decode / readout cycle for one block.

    ``block_kind`` is ``data`` (qubit 1 unread) or ``aux`` (the verified
    logical-zero variant). ``x_rounds_first`` places the X-stabilizer rounds
    before the Z-stabilizer rounds, which is the ordering that reproduces
    the reference decoding tables.
    """
    if block_kind not in ("data", "aux"):
        raise ValueError(f"unknown block kind {block_kind!r}")
    aux = block_kind == "aux"
    gadget_table = dict(FLAG_GADGETS)
    if gadget_overrides:
        gadget_table.update(gadget_overrides)
    gadget_ids = (AUX_GADGETS if aux else tuple(gadget_table)) if include_flags else ()
    omitted = set(AUX_OMITTED_CNOTS) if aux else set()

    gates: list[Gate] = []
    next_q = N
    ancillas: dict[str, list[tuple[int, ...]]] = {"X": [], "Z": []}
    flag_qubits: dict[int, tuple[int, int]] = {}

    # Ancilla blocks and flag pairs are prepared before any labeled gate.
    preps: list[Gate] = []
    for kind, macro in (("X", "PREP0L"), ("Z", "PREPSTEANE")):
        for rep in range(1, syndrome_reps + 1):
            anc = tuple(range(next_q, next_q + N))
            next_q += N
            preps.append(Gate(macro, anc, f"P{kind}{rep}"))
            ancillas[kind].append(anc)
    for gid in gadget_ids:
        flag_qubits[gid] = (next_q, next_q + 1)
        next_q += 2
        preps.append(Gate("CAT2", flag_qubits[gid], f"CAT{gid}"))
    gates.extend(preps)

    # A gadget's first CN precedes its first anchor, its second CN follows
    # the second; each anchor is popped when its gate is emitted.
    anchored: tuple[dict[str, list[int]], dict[str, list[int]]] = ({}, {})
    for gid in gadget_ids:
        for which, anchor in enumerate(gadget_table[gid][3]):
            anchored[which].setdefault(anchor, []).append(gid)

    def emit_cn(gid: int, which: int) -> None:
        kind, wire, cn_labels, _ = gadget_table[gid]
        flag = flag_qubits[gid][which]
        gates.append(Gate("CNOT", (wire - 1, flag) if kind == "X" else (flag, wire - 1), cn_labels[which]))

    def emit(kind: str, qubits: tuple[int, ...], label: str) -> None:
        for gid in anchored[0].pop(label, ()):
            emit_cn(gid, 0)
        gates.append(Gate(kind, qubits, label))
        for gid in anchored[1].pop(label, ()):
            emit_cn(gid, 1)

    # Encoder.
    for i, q in ENCODE_H.items():
        emit("H", (q - 1,), f"H{i}")
    for i, (ctl, tgt) in ENCODER_CNOTS.items():
        if i not in omitted:
            emit("CNOT", (ctl - 1, tgt - 1), f"C{i}")

    # Syndrome rounds: X-stabilizer couplings C12-C18 (ancilla controls),
    # Z-stabilizer couplings C19-C25 (ancilla targets).
    for kind in ("X", "Z") if x_rounds_first else ("Z", "X"):
        for rep, anc in enumerate(ancillas[kind], start=1):
            for i in range(N):
                if kind == "X":
                    emit("CNOT", (anc[i], i), _round_label(12 + i, rep))
                else:
                    emit("CNOT", (i, anc[i]), _round_label(19 + i, rep))
            for i in range(N):
                emit(f"M{kind}", (anc[i],), f"M{anc[i] + 1}:{kind}")

    # Decoder and terminal readout.
    for i in range(26, 37):
        if i not in omitted:
            ctl, tgt = DECODER_CNOTS[i]
            emit("CNOT", (ctl - 1, tgt - 1), f"C{i}")
    for i, q in DECODE_H.items():
        emit("H", (q - 1,), f"H{i}")
    for q in range(N) if aux else range(1, N):
        emit("MZ", (q,), f"M{q + 1}:Z")
    for gid, flags in flag_qubits.items():
        kind = "MZ" if gadget_table[gid][0] == "X" else "MX"
        for flag in flags:
            emit(kind, (flag,), f"M{flag + 1}:{kind[1]}")
    for gid in gadget_ids:  # an anchor still pending is one this cycle never emitted
        for which, anchor in enumerate(gadget_table[gid][3]):
            if anchor in anchored[which]:
                raise ValueError(f"flag gadget {gid}: anchor {anchor} is not built with syndrome_reps={syndrome_reps}")

    circuit = Circuit(next_q, gates, name=f"ec-{block_kind}" + ("-flags" if include_flags else ""))
    circuit.validate()
    circuit.layout = derive_layout(gates)
    return circuit


# ---------------------------------------------------------------------------
# Gate gadgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GadgetSpec:
    """Named gadget request; ``repetitions`` counts verification rounds."""

    name: str
    repetitions: int = 2


def build_cz_decomposition() -> Circuit:
    """Controlled-Z on (control, target) as H(t), CNOT, H(t)."""
    c = Circuit(2, name="cz")
    c.add("H", (1,), "G1")
    c.add("CNOT", (0, 1), "G2")
    c.add("H", (1,), "G3")
    return c


def build_cs_decomposition() -> Circuit:
    """Controlled-S on (control, target): T(t), CNOT, Tdg(t), CNOT, T(c)."""
    c = Circuit(2, name="cs")
    c.add("T", (1,), "G1")
    c.add("CNOT", (0, 1), "G2")
    c.add("TDG", (1,), "G3")
    c.add("CNOT", (0, 1), "G4")
    c.add("T", (0,), "G5")
    return c


def build_toffoli_decomposition() -> Circuit:
    """Toffoli on (a, b, target) from {7 T-family, 6 CNOT, 2 H, 1 S}."""
    a, b, t = 0, 1, 2
    c = Circuit(3, name="toffoli-decomp")
    seq = [
        ("H", (t,)), ("CNOT", (b, t)), ("TDG", (t,)), ("CNOT", (a, t)), ("T", (t,)),
        ("CNOT", (b, t)), ("TDG", (t,)), ("CNOT", (a, t)), ("T", (t,)), ("H", (t,)),
        ("TDG", (b,)), ("CNOT", (a, b)), ("TDG", (b,)), ("CNOT", (a, b)), ("T", (a,)), ("S", (b,)),
    ]
    for i, (kind, qubits) in enumerate(seq, start=1):
        c.add(kind, qubits, f"G{i}")
    return c


def build_cat_state(verification_reps: int = 2) -> Circuit:
    """Seven-qubit GHZ preparation (chain) plus repeated two-CNOT parity verification."""
    c = Circuit(N + verification_reps, name=f"cat{N}")
    c.add("H", (0,), "G0")
    k = 1
    for i in range(N - 1):
        c.add("CNOT", (i, i + 1), f"G{k}")
        k += 1
    for r in range(verification_reps):
        anc = N + r
        c.add("CNOT", (0, anc), f"G{k}"); k += 1
        c.add("CNOT", (N - 1, anc), f"G{k}"); k += 1
        c.add("MZ", (anc,), f"M{anc + 1}:Z")
    return c


def build_steane_state_circuit() -> Circuit:
    """Uniform-codeword state: logical-zero fan-outs then transversal H."""
    c = Circuit(N, name="steane-state")
    for i, q in ENCODE_H.items():
        c.add("H", (q - 1,), f"H{i}")
    for i in range(3, 12):
        ctl, tgt = ENCODER_CNOTS[i]
        c.add("CNOT", (ctl - 1, tgt - 1), f"C{i}")
    for q in range(N):
        c.add("H", (q,), f"G{q + 1}")
    return c


def _append_block(dest: Circuit, block: Circuit, prefix: str) -> tuple[int, ...]:
    """Inline a sub-circuit on fresh wires; returns its qubit map."""
    offset = dest.n_qubits
    dest.n_qubits += block.n_qubits
    for g in block.gates:
        dest.append(Gate(g.kind, tuple(q + offset for q in g.qubits), f"{prefix}-{g.label}"))
    return tuple(range(offset, offset + block.n_qubits))


def _theta_measurement_rep(dest: Circuit, cat: tuple[int, ...], blk: tuple[int, ...], prefix: str) -> None:
    """One repetition of the ancilla-state eigenvalue measurement.

    Per data qubit: coupling CNOT, CZ and CS from the cat wire (28 CNOTs per
    repetition once CZ/CS are decomposed), transversal T on the cat, then an
    X-basis cat readout.
    """
    k = 0
    def add(kind, qubits):
        nonlocal k
        k += 1
        dest.add(kind, qubits, f"{prefix}-G{k}")

    for i in range(N):
        add("CNOT", (cat[i], blk[i]))
    for i in range(N):  # controlled-Z, decomposed
        add("H", (blk[i],)); add("CNOT", (cat[i], blk[i])); add("H", (blk[i],))
    for i in range(N):  # controlled-S, decomposed
        add("T", (blk[i],)); add("CNOT", (cat[i], blk[i])); add("TDG", (blk[i],))
        add("CNOT", (cat[i], blk[i])); add("T", (cat[i],))
    for i in range(N):
        add("T", (cat[i],))
    for i in range(N):
        dest.add("MX", (cat[i],), f"M{cat[i] + 1}:X")


def build_t_gadget(repetitions: int = 2) -> Circuit:
    """Full fault-tolerant T-gate period (counting/structure circuit).

    One flagged encoded block, ``repetitions`` verified cat states with the
    ancilla-state measurement couplings, the transversal coupling to the
    data block, and one flagged auxiliary block. Wire reuse after a block's
    verification readout is schematic; the circuit exists for gate counting
    and structural inspection, not dense simulation.
    """
    c = Circuit(0, name="t-gadget")
    blk = _append_block(c, build_full_ec_circuit(True, "data"), "B")
    for r in range(1, repetitions + 1):
        cat = _append_block(c, build_cat_state(), f"CAT{r}")[:N]
        _theta_measurement_rep(c, cat, blk[:N], f"TH{r}")
    data = _append_block(c, Circuit(N, name="data"), "D")
    for i in range(N):  # transversal coupling onto the incoming data block
        c.add("CNOT", (blk[i], data[i]), f"TC-G{i + 1}")
    for i in range(N):
        c.add("MZ", (data[i],), f"M{data[i] + 1}:Z")
    _append_block(c, build_full_ec_circuit(True, "aux"), "AUX")
    return c


def build_toffoli_gadget(repetitions: int = 2) -> Circuit:
    """Full fault-tolerant Toffoli period (counting/structure circuit)."""
    c = Circuit(0, name="toffoli-gadget")
    xyz = [_append_block(c, build_full_ec_circuit(True, "data"), f"B{j}")[:N] for j in range(1, 4)]
    anc = [_append_block(c, build_full_ec_circuit(True, "aux"), f"AUX{j}")[:N] for j in range(1, 4)]
    toff = build_toffoli_decomposition()
    for r in range(1, repetitions + 1):
        cat = _append_block(c, build_cat_state(), f"CAT{r}")[:N]
        k = 0
        def add(kind, qubits):
            nonlocal k
            k += 1
            c.add(kind, qubits, f"AP{r}-G{k}")
        for i in range(N):
            add("H", (anc[0][i],)); add("H", (anc[1][i],)); add("H", (anc[2][i],))
        for i in range(N):  # CZ from the third block to the cat
            add("H", (cat[i],)); add("CNOT", (anc[2][i], cat[i])); add("H", (cat[i],))
        for i in range(N):  # transversal Toffoli(anc1, anc2; cat)
            for g in toff.gates:
                add(g.kind, tuple((anc[0][i], anc[1][i], cat[i])[q] for q in g.qubits))
        for i in range(N):
            c.add("MZ", (cat[i],), f"M{cat[i] + 1}:Z")
    k = 0
    def add(kind, qubits):
        nonlocal k
        k += 1
        c.add(kind, qubits, f"TG-G{k}")
    for i in range(N):  # teleportation couplings
        add("CNOT", (anc[0][i], xyz[0][i]))
        add("CNOT", (anc[1][i], xyz[1][i]))
        add("CNOT", (xyz[2][i], anc[2][i]))
    for i in range(N):  # conditional logical-CNOT corrections
        add("CNOT", (anc[1][i], anc[2][i]))
        add("CNOT", (anc[0][i], anc[2][i]))
        add("CNOT", (anc[0][i], anc[1][i]))
    for i in range(N):
        c.add("MZ", (xyz[0][i],), f"M{xyz[0][i] + 1}:Z")
        c.add("MZ", (xyz[1][i],), f"M{xyz[1][i] + 1}:Z")
        c.add("MX", (xyz[2][i],), f"M{xyz[2][i] + 1}:X")
    return c


def build_x_round_segment() -> Circuit:
    """One X-stabilizer syndrome round on data 1-7 with its ancilla block."""
    c = Circuit(2 * N, name="x-round")
    anc = tuple(range(N, 2 * N))
    c.add("PREP0L", anc, "PX1")
    for i in range(N):
        c.add("CNOT", (anc[i], i), f"C{12 + i}")
    for i in range(N):
        c.add("MX", (anc[i],), f"M{anc[i] + 1}:X")
    return c


def build_z_round_segment() -> Circuit:
    """One Z-stabilizer syndrome round on data 1-7 with its ancilla block."""
    c = Circuit(2 * N, name="z-round")
    anc = tuple(range(N, 2 * N))
    c.add("PREPSTEANE", anc, "PZ1")
    for i in range(N):
        c.add("CNOT", (i, anc[i]), f"C{19 + i}")
    for i in range(N):
        c.add("MZ", (anc[i],), f"M{anc[i] + 1}:Z")
    return c


# -- Trivial-code gadget variants (each logical block is one physical qubit),
#    used by the dense verification oracle.

def build_t_gadget_trivial() -> Circuit:
    """T by teleportation: qubit 0 data, qubit 1 ancilla prepared as T|+>."""
    c = Circuit(2, name="t-gadget-trivial")
    c.add("H", (1,), "G1")
    c.add("T", (1,), "G2")
    c.add("CNOT", (1, 0), "G3")
    c.add("MZ", (0,), "M1:Z")
    return c


def build_theta_prep_trivial() -> Circuit:
    """Ancilla-state preparation on the trivial code: qubit 0 cat, 1 block."""
    c = Circuit(2, name="theta-prep-trivial")
    c.add("H", (0,), "G1")
    c.add("CNOT", (0, 1), "G2")
    c.add("T", (1,), "G3")  # controlled-S, decomposed
    c.add("CNOT", (0, 1), "G4")
    c.add("TDG", (1,), "G5")
    c.add("CNOT", (0, 1), "G6")
    c.add("T", (0,), "G7")
    c.add("TDG", (0,), "G8")  # transversal T on a 1-qubit cat
    c.add("H", (0,), "G9")
    c.add("MZ", (0,), "M1:Z")
    return c


def build_a_prep_trivial() -> Circuit:
    """Toffoli ancilla-state preparation on the trivial code (cat + 3 blocks)."""
    c = Circuit(4, name="a-prep-trivial")
    cat, b1, b2, b3 = 0, 1, 2, 3
    c.add("H", (cat,), "G1")
    for i, q in enumerate((b1, b2, b3), start=2):
        c.add("H", (q,), f"G{i}")
    c.add("H", (cat,), "G5")  # CZ from block 3 to the cat
    c.add("CNOT", (b3, cat), "G6")
    c.add("H", (cat,), "G7")
    c.add("H", (cat,), "G8")
    c.add("CCX", (b1, b2, cat), "G9")
    c.add("MZ", (cat,), "M1:Z")
    return c


def build_toffoli_gadget_trivial() -> Circuit:
    """Toffoli by teleportation on the trivial code: data (x,y,z) + |A> ancilla."""
    c = Circuit(6, name="toffoli-gadget-trivial")
    x, y, z, a1, a2, a3 = range(6)
    c.add("H", (a1,), "G1")
    c.add("H", (a2,), "G2")
    c.add("CCX", (a1, a2, a3), "G3")
    c.add("CNOT", (a1, x), "G4")
    c.add("CNOT", (a2, y), "G5")
    c.add("CNOT", (z, a3), "G6")
    c.add("MZ", (x,), "M1:Z")
    c.add("MZ", (y,), "M2:Z")
    c.add("MX", (z,), "M3:X")
    return c


_GADGET_BUILDERS = {
    "czDecomp": lambda spec: build_cz_decomposition(),
    "csDecomp": lambda spec: build_cs_decomposition(),
    "toffoliDecomp": lambda spec: build_toffoli_decomposition(),
    "catState": lambda spec: build_cat_state(verification_reps=spec.repetitions),
    "steaneState": lambda spec: build_steane_state_circuit(),
    "thetaPrep": lambda spec: _theta_prep_full(spec.repetitions),
    "tGadget": lambda spec: build_t_gadget(spec.repetitions),
    "toffoliGadget": lambda spec: build_toffoli_gadget(spec.repetitions),
    "aPrep": lambda spec: build_a_prep_trivial(),
    "syndromeBlock": lambda spec: build_z_round_segment(),
}


def _theta_prep_full(repetitions: int) -> Circuit:
    c = Circuit(0, name="theta-prep")
    blk = _append_block(c, Circuit(N), "B")
    for r in range(1, repetitions + 1):
        cat = _append_block(c, build_cat_state(), f"CAT{r}")[:N]
        _theta_measurement_rep(c, cat, blk, f"TH{r}")
    return c


def build_gadget(spec: GadgetSpec) -> Circuit:
    try:
        builder = _GADGET_BUILDERS[spec.name]
    except KeyError:
        raise ValueError(f"unknown gadget spec {spec.name!r}") from None
    return builder(spec)
