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

Each gate sequence is spelled once, by three part generators that yield
``(kind, qubits, label)`` rows: the encoder, one copy of one stabilizer
round, and the decoder. ``build_full_ec_circuit`` emits them between its
flag CNs; ``build_encoder``, ``build_decoder`` and the round segments (what
the dense oracle simulates) wrap the same rows; and the ancilla macros
``PREP0L`` (the aux block's encoder) and ``PREPSTEANE`` (plus transversal
H) expand to the rows of :func:`ancilla_prep`.
"""
from __future__ import annotations

from collections import namedtuple
from itertools import chain

from .circuits import MEASURE_KINDS, Circuit, Gate, copy_label, derive_layout

N = 7

# Encoder CNOTs, 1-indexed (control, target), in time order.
ENCODER_CNOTS = {
    1: (1, 6), 2: (1, 7),
    3: (2, 1), 4: (2, 5), 5: (2, 6),
    6: (3, 1), 7: (3, 5), 8: (3, 7),
    9: (4, 5), 10: (4, 6), 11: (4, 7),
}
# Decoder mirrors the encoder in reverse order: C(37-i) undoes Ci.
DECODER_CNOTS = {37 - i: ENCODER_CNOTS[i] for i in reversed(ENCODER_CNOTS)}
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
_ROUND_PREP = {"X": "PREP0L", "Z": "PREPSTEANE"}  # the ancilla block each round type consumes


# ---------------------------------------------------------------------------
# The cycle's parts, as (kind, qubits, label) rows
# ---------------------------------------------------------------------------

def _encoder(omitted=()):
    """H1-H3, then the fan-out CNOTs C1-C11 not in ``omitted``."""
    for i, q in ENCODE_H.items():
        yield "H", (q - 1,), f"H{i}"
    for i, (ctl, tgt) in ENCODER_CNOTS.items():
        if i not in omitted:
            yield "CNOT", (ctl - 1, tgt - 1), f"C{i}"


def _round(kind: str, anc: tuple[int, ...], copy: int):
    """Copy ``copy`` of one stabilizer round on ancilla wires ``anc``: the
    X couplings C12-C18 take the ancilla as control, the Z couplings C19-C25
    as target; then the ancilla readouts in the round's basis."""
    first = 12 if kind == "X" else 19
    for i, a in enumerate(anc):
        yield "CNOT", (a, i) if kind == "X" else (i, a), copy_label(first + i, copy)
    for a in anc:
        yield _readout(kind, a)


def _decoder(omitted=()):
    """The CNOTs C26-C36 not in ``omitted``, then H4-H6."""
    for i, (ctl, tgt) in DECODER_CNOTS.items():
        if i not in omitted:
            yield "CNOT", (ctl - 1, tgt - 1), f"C{i}"
    for i, q in DECODE_H.items():
        yield "H", (q - 1,), f"H{i}"


def _readout(basis: str, qubit: int) -> tuple:
    return f"M{basis}", (qubit,), f"M{qubit + 1}:{basis}"


def ancilla_prep(macro: str):
    """Rows that prepare a seven-wire ancilla block on wires 0-6: ``PREP0L``
    (logical zero) is the aux block's encoder, ``PREPSTEANE`` (uniform
    codeword state) adds a transversal H."""
    yield from _encoder(AUX_OMITTED_CNOTS)
    if macro == "PREPSTEANE":
        for q in range(N):
            yield "H", (q,), f"G{q + 1}"


def _circuit(n_qubits: int, name: str, rows) -> Circuit:
    c = Circuit(n_qubits, [Gate(*row) for row in rows], name=name)
    c.validate()
    return c


def build_encoder() -> Circuit:
    """Seven-qubit encoder: 3 Hadamards and the 11 fan-out CNOTs C1-C11."""
    return _circuit(N, "encoder", _encoder())


def build_decoder() -> Circuit:
    """Inverse of the encoder: C26-C36 then H4-H6 (no measurements)."""
    return _circuit(N, "decoder", _decoder())


def _round_segment(kind: str) -> Circuit:
    anc = tuple(range(N, 2 * N))
    return _circuit(2 * N, f"{kind.lower()}-round", [(_ROUND_PREP[kind], anc, f"P{kind}1"), *_round(kind, anc, 1)])


def build_x_round_segment() -> Circuit:
    """One X-stabilizer syndrome round on data 1-7 with its ancilla block."""
    return _round_segment("X")


def build_z_round_segment() -> Circuit:
    """One Z-stabilizer syndrome round on data 1-7 with its ancilla block."""
    return _round_segment("Z")


def build_steane_state_circuit() -> Circuit:
    """Uniform-codeword state: logical-zero fan-outs then transversal H."""
    return _circuit(N, "steane-state", ancilla_prep("PREPSTEANE"))


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
    gadget_table = {**FLAG_GADGETS, **(gadget_overrides or {})}
    gadget_ids = (AUX_GADGETS if aux else tuple(gadget_table)) if include_flags else ()
    omitted = AUX_OMITTED_CNOTS if aux else ()

    gates: list[Gate] = []
    next_q = N
    ancillas: dict[str, list[tuple[int, ...]]] = {"X": [], "Z": []}
    flag_qubits: dict[int, tuple[int, int]] = {}

    # Ancilla blocks and flag pairs are prepared before any labeled gate.
    for kind, macro in _ROUND_PREP.items():
        for rep in range(1, syndrome_reps + 1):
            anc = tuple(range(next_q, next_q + N))
            next_q += N
            gates.append(Gate(macro, anc, f"P{kind}{rep}"))
            ancillas[kind].append(anc)
    for gid in gadget_ids:
        flag_qubits[gid] = (next_q, next_q + 1)
        next_q += 2
        gates.append(Gate("CAT2", flag_qubits[gid], f"CAT{gid}"))

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

    rounds = [
        _round(kind, anc, copy)
        for kind in (("X", "Z") if x_rounds_first else ("Z", "X"))
        for copy, anc in enumerate(ancillas[kind], start=1)
    ]
    for row in chain(_encoder(omitted), *rounds, _decoder(omitted)):
        emit(*row)
    for q in range(N) if aux else range(1, N):  # terminal readout
        emit(*_readout("Z", q))
    for gid, flags in flag_qubits.items():
        for flag in flags:
            emit(*_readout("Z" if gadget_table[gid][0] == "X" else "X", flag))
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

class GadgetSpec(namedtuple("GadgetSpec", ("name", "repetitions"), defaults=(2,))):
    """Named gadget request; ``repetitions`` counts verification rounds.
    Fields: ``name`` str; ``repetitions`` int, default 2."""

    __slots__ = ()


def _numbered(dest: Circuit, prefix: str, rows) -> Circuit:
    """Append ``(kind, qubits)`` rows: a readout gets its ``M<q>:<basis>``
    label, every other gate the next ``<prefix>G<n>``, from ``G1``."""
    n = 1
    for kind, qubits in rows:
        if kind in MEASURE_KINDS:
            dest.gates.append(Gate(*_readout(kind[1], qubits[0])))
        else:
            dest.gates.append(Gate(kind, qubits, f"{prefix}G{n}"))
            n += 1
    return dest


def _on(part: Circuit, wires: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """``part``'s gates as ``(kind, qubits)`` rows, its qubit j on ``wires[j]``."""
    return [(g.kind, tuple(wires[q] for q in g.qubits)) for g in part.gates]


def build_cz_decomposition() -> Circuit:
    """Controlled-Z on (control, target) as H(t), CNOT, H(t)."""
    return _numbered(Circuit(2, name="cz"), "", [("H", (1,)), ("CNOT", (0, 1)), ("H", (1,))])


def build_cs_decomposition() -> Circuit:
    """Controlled-S on (control, target): T(t), CNOT, Tdg(t), CNOT, T(c)."""
    rows = [("T", (1,)), ("CNOT", (0, 1)), ("TDG", (1,)), ("CNOT", (0, 1)), ("T", (0,))]
    return _numbered(Circuit(2, name="cs"), "", rows)


def build_toffoli_decomposition() -> Circuit:
    """Toffoli on (a, b, target) from {7 T-family, 6 CNOT, 2 H, 1 S}."""
    a, b, t = 0, 1, 2
    rows = [
        ("H", (t,)), ("CNOT", (b, t)), ("TDG", (t,)), ("CNOT", (a, t)), ("T", (t,)),
        ("CNOT", (b, t)), ("TDG", (t,)), ("CNOT", (a, t)), ("T", (t,)), ("H", (t,)),
        ("TDG", (b,)), ("CNOT", (a, b)), ("TDG", (b,)), ("CNOT", (a, b)), ("T", (a,)), ("S", (b,)),
    ]
    return _numbered(Circuit(3, name="toffoli-decomp"), "", rows)


def build_cat_state(verification_reps: int = 2) -> Circuit:
    """Seven-qubit GHZ preparation (chain) plus repeated two-CNOT parity verification."""
    c = Circuit(N + verification_reps, [Gate("H", (0,), "G0")], name=f"cat{N}")
    rows = [("CNOT", (i, i + 1)) for i in range(N - 1)]
    for anc in range(N, N + verification_reps):
        rows += [("CNOT", (0, anc)), ("CNOT", (N - 1, anc)), ("MZ", (anc,))]
    return _numbered(c, "", rows)


def _append_block(dest: Circuit, block: Circuit, prefix: str) -> tuple[int, ...]:
    """Inline a sub-circuit on fresh wires; returns its qubit map."""
    offset = dest.n_qubits
    dest.n_qubits += block.n_qubits
    for g in block.gates:
        dest.gates.append(Gate(g.kind, tuple(q + offset for q in g.qubits), f"{prefix}-{g.label}"))
    return tuple(range(offset, offset + block.n_qubits))


def _theta_measurement_rep(dest: Circuit, cat: tuple[int, ...], blk: tuple[int, ...], prefix: str) -> None:
    """One repetition of the ancilla-state eigenvalue measurement.

    Per data qubit: coupling CNOT, CZ and CS from the cat wire (28 CNOTs per
    repetition once CZ/CS are decomposed), transversal T on the cat, then an
    X-basis cat readout.
    """
    rows = [("CNOT", (cat[i], blk[i])) for i in range(N)]
    for part in (build_cz_decomposition(), build_cs_decomposition()):
        rows += [row for i in range(N) for row in _on(part, (cat[i], blk[i]))]
    rows += [("T", (q,)) for q in cat] + [("MX", (q,)) for q in cat]
    _numbered(dest, f"{prefix}-", rows)


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
    # transversal coupling onto the incoming data block
    _numbered(c, "TC-", [("CNOT", (blk[i], data[i])) for i in range(N)] + [("MZ", (q,)) for q in data])
    _append_block(c, build_full_ec_circuit(True, "aux"), "AUX")
    return c


def build_toffoli_gadget(repetitions: int = 2) -> Circuit:
    """Full fault-tolerant Toffoli period (counting/structure circuit)."""
    c = Circuit(0, name="toffoli-gadget")
    data, aux = build_full_ec_circuit(True, "data"), build_full_ec_circuit(True, "aux")  # inlined three times each
    xyz = [_append_block(c, data, f"B{j}")[:N] for j in range(1, 4)]
    anc = [_append_block(c, aux, f"AUX{j}")[:N] for j in range(1, 4)]
    cz, toff = build_cz_decomposition(), build_toffoli_decomposition()
    for r in range(1, repetitions + 1):
        cat = _append_block(c, build_cat_state(), f"CAT{r}")[:N]
        rows = [("H", (blk[i],)) for i in range(N) for blk in anc]
        # CZ from the third block to the cat, then transversal Toffoli(anc1, anc2; cat)
        rows += [row for i in range(N) for row in _on(cz, (anc[2][i], cat[i]))]
        rows += [row for i in range(N) for row in _on(toff, (anc[0][i], anc[1][i], cat[i]))]
        _numbered(c, f"AP{r}-", rows + [("MZ", (q,)) for q in cat])
    rows = []
    for i in range(N):  # teleportation couplings
        rows += [("CNOT", (anc[0][i], xyz[0][i])), ("CNOT", (anc[1][i], xyz[1][i])), ("CNOT", (xyz[2][i], anc[2][i]))]
    for i in range(N):  # conditional logical-CNOT corrections
        rows += [("CNOT", (anc[1][i], anc[2][i])), ("CNOT", (anc[0][i], anc[2][i])), ("CNOT", (anc[0][i], anc[1][i]))]
    for i in range(N):
        rows += [("MZ", (xyz[0][i],)), ("MZ", (xyz[1][i],)), ("MX", (xyz[2][i],))]
    _numbered(c, "TG-", rows)
    return c


# -- Trivial-code gadget variants (each logical block is one physical qubit),
#    used by the dense verification oracle.

def build_t_gadget_trivial() -> Circuit:
    """T by teleportation: qubit 0 data, qubit 1 ancilla prepared as T|+>."""
    rows = [("H", (1,)), ("T", (1,)), ("CNOT", (1, 0)), ("MZ", (0,))]
    return _numbered(Circuit(2, name="t-gadget-trivial"), "", rows)


def build_theta_prep_trivial() -> Circuit:
    """Ancilla-state preparation on the trivial code: qubit 0 cat, 1 block."""
    rows = [("H", (0,)), ("CNOT", (0, 1)), *_on(build_cs_decomposition(), (0, 1))]
    rows += [("TDG", (0,)), ("H", (0,)), ("MZ", (0,))]  # transversal T on a 1-qubit cat, X readout
    return _numbered(Circuit(2, name="theta-prep-trivial"), "", rows)


def build_a_prep_trivial() -> Circuit:
    """Toffoli ancilla-state preparation on the trivial code (cat + 3 blocks)."""
    cat, b1, b2, b3 = 0, 1, 2, 3
    rows = [("H", (q,)) for q in (cat, b1, b2, b3)]
    rows += _on(build_cz_decomposition(), (b3, cat))  # CZ from block 3 to the cat
    rows += [("H", (cat,)), ("CCX", (b1, b2, cat)), ("MZ", (cat,))]
    return _numbered(Circuit(4, name="a-prep-trivial"), "", rows)


def build_toffoli_gadget_trivial() -> Circuit:
    """Toffoli by teleportation on the trivial code: data (x,y,z) + |A> ancilla."""
    x, y, z, a1, a2, a3 = range(6)
    rows = [
        ("H", (a1,)), ("H", (a2,)), ("CCX", (a1, a2, a3)),
        ("CNOT", (a1, x)), ("CNOT", (a2, y)), ("CNOT", (z, a3)),
        ("MZ", (x,)), ("MZ", (y,)), ("MX", (z,)),
    ]
    return _numbered(Circuit(6, name="toffoli-gadget-trivial"), "", rows)


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
