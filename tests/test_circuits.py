"""Circuit IR, builders and text round-tripping."""
from __future__ import annotations

import pytest

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
from steanesim.circuits import Circuit, Gate, parse, serialize


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
    assert len(c.layout.terminal_meas) == 7


def test_syndrome_rounds_repeat_with_copy_labels():
    c = build_full_ec_circuit(include_flags=False, block_kind="data")
    labels = {g.label for g in c.gates}
    assert {"C12", "C12.2", "C19", "C19.2", "C25", "C25.2"} <= labels
    assert len(c.layout.x_rounds) == 2 and len(c.layout.z_rounds) == 2


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
