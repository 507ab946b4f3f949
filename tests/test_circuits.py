"""Circuit IR, builders and text round-tripping."""
from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steanesim.builders import (
    DECODER_CNOTS,
    ENCODER_CNOTS,
    FLAG_GADGETS,
    build_cat_state,
    build_decoder,
    build_encoder,
    build_full_ec_circuit,
    build_gadget,
    build_toffoli_decomposition,
    GadgetSpec,
)
from steanesim.circuits import DATA_QUBITS, Circuit, Gate, derive_layout, parse, serialize
from test_faults import BUILD_CONFIGS


def count_kind(circuit: Circuit, kind: str) -> int:
    return sum(g.kind == kind for g in circuit.gates)


def test_encoder_gate_counts():
    enc = build_encoder()
    assert count_kind(enc, "CNOT") == 11
    assert count_kind(enc, "H") == 3
    assert [g.label for g in enc.gates if g.kind == "H"] == ["H1", "H2", "H3"]


def test_decoder_mirrors_encoder():
    dec = build_decoder()
    assert count_kind(dec, "CNOT") == 11
    for i, ct in ENCODER_CNOTS.items():
        assert DECODER_CNOTS[37 - i] == ct


@pytest.mark.parametrize("flags,expected", [(False, 36), (True, 52)])
def test_full_ec_labeled_cnot_count(flags, expected):
    c = build_full_ec_circuit(include_flags=flags, block_kind="data")
    assert c.count_cnot_labels() == expected


def test_flagged_circuit_has_sixteen_flag_cnots():
    c = build_full_ec_circuit(include_flags=True, block_kind="data")
    cn = [g for g in c.gates if g.label.startswith("CN")]
    assert len(cn) == 16
    assert sorted(g.label for g in cn) == sorted(f"CN{i}" for i in range(1, 17))


def test_aux_block_omits_data_fan_and_z_gadgets():
    c = build_full_ec_circuit(include_flags=True, block_kind="aux")
    labels = {g.label for g in c.gates}
    for absent in ("C1", "C2", "C35", "C36", "CN9", "CN16"):
        assert absent not in labels
    assert "CN8" in labels
    # all seven block qubits are read out
    assert c.layout.terminal == tuple(DATA_QUBITS)


def test_syndrome_rounds_repeat_with_copy_labels():
    c = build_full_ec_circuit(include_flags=False, block_kind="data")
    labels = {g.label for g in c.gates}
    assert {"C12", "C12.2", "C19", "C19.2", "C25", "C25.2"} <= labels
    assert c.layout.shape[:2] == (2, 2)  # Z rounds, X rounds


def test_round_order_switch():
    c = build_full_ec_circuit(include_flags=False, x_rounds_first=False)
    order = [g.label for g in c.gates]
    assert order.index("C25.2") < order.index("C12")  # both Z rounds precede the X rounds


def test_cn7_sits_between_z_round_copies():
    c = build_full_ec_circuit(include_flags=True, block_kind="data")
    order = [g.label for g in c.gates]
    assert order.index("C22") < order.index("CN7") < order.index("C22.2")


def test_cat_state_cnot_count():
    assert count_kind(build_cat_state(verification_reps=2), "CNOT") == 10


def test_toffoli_decomposition_multiset():
    c = build_toffoli_decomposition()
    kinds = [g.kind for g in c.gates]
    assert sum(k in ("T", "TDG") for k in kinds) == 7
    assert kinds.count("CNOT") == 6
    assert kinds.count("H") == 2
    assert kinds.count("S") == 1


def test_build_gadget_dispatch_and_unknown():
    assert count_kind(build_gadget(GadgetSpec("czDecomp")), "CNOT") == 1
    assert count_kind(build_gadget(GadgetSpec("csDecomp")), "CNOT") == 2
    with pytest.raises(ValueError):
        build_gadget(GadgetSpec("nonsense"))


def test_flag_gadget_table_is_consistent():
    for gid, (kind, wire, (cna, cnb), anchors) in FLAG_GADGETS.items():
        assert kind in ("X", "Z") and 1 <= wire <= 7
        assert cna == f"CN{2 * gid - 1}" and cnb == f"CN{2 * gid}"
        assert all(a.startswith("C") for a in anchors)


@pytest.mark.parametrize("builder", [
    lambda: build_encoder(),
    lambda: build_decoder(),
    lambda: build_full_ec_circuit(True, "data"),
    lambda: build_full_ec_circuit(True, "aux"),
    lambda: build_full_ec_circuit(False, "data"),
    lambda: build_cat_state(),
])
def test_serialize_parse_round_trip(builder):
    c = builder()
    text = serialize(c)
    back = parse(text)
    assert back.n_qubits == c.n_qubits
    assert [(g.label, g.kind, g.qubits) for g in back.gates] == [
        (g.label, g.kind, g.qubits) for g in c.gates
    ]


def test_parse_rejects_same_control_and_target():
    with pytest.raises(ValueError, match="repeated operand"):
        parse("# qubits 7\nC5 CNOT 5 5\n")


def test_parse_rejects_duplicate_labels():
    with pytest.raises(ValueError, match="duplicate label"):
        parse("# qubits 7\nC7 CNOT 1 2\nC7 CNOT 2 3\n")


def test_parse_reports_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        parse("# qubits 3\nC1 CNOT one 2\n")


def test_validate_rejects_gate_after_measurement():
    c = Circuit(2, [Gate("MZ", (0,), "M1:Z"), Gate("H", (0,), "H9")])
    with pytest.raises(ValueError, match="already measured"):
        c.validate()


def test_gate_kind_arity_checked():
    with pytest.raises(ValueError, match=r"CNOT takes 2 qubit\(s\), got \(0,\)"):
        Gate("CNOT", (0,), "C1")
    with pytest.raises(ValueError, match="unknown gate kind 'WIBBLE'"):
        Gate("WIBBLE", (0,), "G1")
    with pytest.raises(ValueError, match=r"C5: repeated operand in \(4, 4\)"):
        Gate("CNOT", (4, 4), "C5")


# The text of every parse error, one bad input each.
PARSE_ERRORS = [
    ("# qubits x\nC1 CNOT 1 2\n", "line 1: bad qubit header"),
    ("# qubits\n", "line 1: bad qubit header"),
    ("# qubits 3\n\nC1 CNOT\n", "line 3: expected 'LABEL KIND q1 [q2 ...]'"),
    ("C1 CNOT 1 b\n", "line 1: non-integer operand"),
    ("C1 CNOT 0 b\n", "line 1: non-integer operand"),  # named before the 0 operand
    ("# a comment\nC1 CNOT 0 2\n", "line 2: qubits are 1-indexed"),
    ("C1 FOO 1 2\n", "line 1: unknown gate kind 'FOO'"),
    ("C1 CNOT 1 2 3\n", "line 1: CNOT takes 2 qubit(s), got (0, 1, 2)"),
    ("C1 CNOT 1 # 2\n", "line 1: CNOT takes 2 qubit(s), got (0,)"),  # a comment ends the operands
    ("H1 H 1 2\n", "line 1: H takes 1 qubit(s), got (0, 1)"),
    ("C1 CNOT 2 2\n", "line 1: C1: repeated operand in (1, 1)"),
    ("C1 H 1\nC1 H 2\n", "duplicate label C1"),
    ("# qubits 2\nC1 CNOT 1 3\n", "C1: qubit 3 out of range (n=2)"),
    ("M1:Z MZ 1\nH1 H 1\n", "H1: qubit 1 already measured"),
]


@pytest.mark.parametrize("text,message", PARSE_ERRORS, ids=[m for _, m in PARSE_ERRORS])
def test_parse_error_texts(text, message):
    with pytest.raises(ValueError) as exc:
        parse(text)
    assert str(exc.value) == message


def _without(circuit: Circuit, drop) -> list[Gate]:
    return [g for g in circuit.gates if not drop(g)]


def _layout_cases():
    data = build_full_ec_circuit()
    anc = next(g for g in data.gates if g.label == "C13").qubits[0]  # the X round's ancilla wire
    flag = next(g for g in data.gates if g.label == "CN1").qubits[1]  # gadget 1's first flag wire
    return [
        (_without(data, lambda g: g.label == "C12"), "not an encode/decode cycle: syndrome couplings C12/C19 missing"),
        (_without(data, lambda g: g.label == "C19"), "not an encode/decode cycle: syndrome couplings C12/C19 missing"),
        (_without(data, lambda g: g.label == "H5"), "encode/decode cycle: H5 missing"),
        (_without(data, lambda g: g.label == "C14.2"), "encode/decode cycle: C14.2 missing"),
        (_without(data, lambda g: g.label == "CN6"), "flag gadget 3: CN6 missing"),
        (data.gates + [Gate("H", (0,), "CN17")], "flag gadget 9: CN18 missing"),
        (_without(data, lambda g: g.label == "M5:Z"), "terminal: readout M5:Z missing"),
        (_without(data, lambda g: g.is_measurement and g.qubits[0] == anc), f"C13: readout M{anc + 1}:X missing"),
        (_without(data, lambda g: g.is_measurement and g.qubits[0] == flag), f"CN1: readout M{flag + 1}:Z missing"),
        ([Gate("CNOT", (1, 2), "CN1") if g.label == "CN1" else g for g in data.gates],
         "flag gadget 1: CN1/CN2 must couple one data wire to flag qubits"),
        ([Gate("H", (1,), "CN1") if g.label == "CN1" else g for g in data.gates],
         "flag gadget 1: CN1/CN2 must couple one data wire to flag qubits"),
    ]


@pytest.mark.parametrize("case", range(len(_layout_cases())))
def test_derive_layout_error_texts(case):
    gates, message = _layout_cases()[case]
    with pytest.raises(ValueError) as exc:
        derive_layout(gates)
    assert str(exc.value) == message


_READOUT = re.compile(r"M(\d+):([XZ])")


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(BUILD_CONFIGS)), seed=st.integers(0, 2**32 - 1))
def test_layout_of_a_wire_permuted_text_is_the_permuted_layout(name, seed):
    # Shuffle the non-data wires, each readout label following its wire, as
    # the benchmark's relabeled circuits do: the layout read back from the
    # text is the built layout with every readout label moved.
    circuit = build_full_ec_circuit(**BUILD_CONFIGS[name])
    wires = list(range(len(DATA_QUBITS), circuit.n_qubits))
    shuffled = wires[:]
    random.Random(seed).shuffle(shuffled)
    perm = dict(zip(wires, shuffled))

    def moved(label: str) -> str:
        m = _READOUT.fullmatch(label)
        return f"M{perm.get(int(m[1]) - 1, int(m[1]) - 1) + 1}:{m[2]}" if m else label

    gates = [Gate(g.kind, tuple(perm.get(q, q) for q in g.qubits), moved(g.label)) for g in circuit.gates]
    layout = circuit.layout
    want = layout._replace(feeds=tuple((moved(label), mask) for label, mask in layout.feeds))
    assert derive_layout(parse(serialize(Circuit(circuit.n_qubits, gates))).gates) == want
    assert derive_layout(parse(serialize(circuit)).gates) == layout


@pytest.mark.parametrize("name", sorted(BUILD_CONFIGS))
def test_every_signature_bit_has_its_readouts(name):
    # A syndrome bit is the parity of the 4 ancilla readouts on its
    # generator's support, a terminal bit one data readout, a flag bit its
    # gadget's two flag readouts; each readout feeds at least one bit.
    layout = build_full_ec_circuit(**BUILD_CONFIGS[name]).layout
    n_z, n_x, n_meas, n_flags = layout.shape
    n_bits = 3 * (n_z + n_x) + n_meas + n_flags
    masks = dict(layout.feeds).values()
    assert len(masks) == len(layout.feeds) and all(masks)
    assert max(mask.bit_length() for mask in masks) == n_bits
    fed = [sum(mask >> (n_bits - 1 - k) & 1 for mask in masks) for k in range(n_bits)]
    assert fed == [4] * 3 * (n_z + n_x) + [1] * n_meas + [2] * n_flags


@pytest.mark.parametrize("block,n_bits,n_readouts,swap,observable", [
    ("data", 26, 50, 14, (113, 15)),  # H4-H6 on qubits 2-4; qubit 1 unread, 2-4 read in X, 5-7 in Z
    ("aux", 23, 43, 14, (113, 14)),   # all seven read: qubit 1 in Z too
])
def test_default_cycle_roles(block, n_bits, n_readouts, swap, observable):
    layout = build_full_ec_circuit(block_kind=block).layout
    assert max(mask.bit_length() for _, mask in layout.feeds) == n_bits
    assert len(layout.feeds) == n_readouts
    assert (layout.swap, layout.observable) == (swap, observable)
