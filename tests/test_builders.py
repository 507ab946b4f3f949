"""Builder outputs pinned byte for byte, and the cycle's parts equal the
segments the dense oracle simulates."""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from test_faults import BUILD_CONFIGS
from steanesim import builders
from steanesim.builders import (
    GadgetSpec,
    ancilla_prep,
    build_decoder,
    build_encoder,
    build_full_ec_circuit,
    build_gadget,
    build_x_round_segment,
    build_z_round_segment,
)
from steanesim.circuits import Gate, serialize

GOLDEN_BUILDERS = Path(__file__).with_name("golden_builders.json")
PUBLIC_BUILDERS = (
    "build_encoder", "build_decoder", "build_cz_decomposition", "build_cs_decomposition",
    "build_toffoli_decomposition", "build_cat_state", "build_steane_state_circuit", "build_t_gadget",
    "build_toffoli_gadget", "build_x_round_segment", "build_z_round_segment", "build_t_gadget_trivial",
    "build_theta_prep_trivial", "build_a_prep_trivial", "build_toffoli_gadget_trivial",
)
GADGET_SPECS = [
    GadgetSpec(name, reps)
    for name in ("czDecomp", "csDecomp", "toffoliDecomp", "catState", "steaneState", "thetaPrep",
                 "tGadget", "toffoliGadget", "aPrep", "syndromeBlock")
    for reps in (1, 2, 3)
]
# Flagged one-round cycles are refused; their messages are pinned too.
REFUSED_CONFIGS = {
    f"{block}-reps1-{'xz' if x_first else 'zx'}-flags": dict(
        block_kind=block, syndrome_reps=1, x_rounds_first=x_first, include_flags=True
    )
    for block in ("data", "aux") for x_first in (True, False)
}


def builder_outputs() -> dict[str, str]:
    """SHA-256 of ``serialize()`` for every public builder, gadget spec and
    cycle configuration, or the builder's refusal message."""
    def digest(build) -> str:
        try:
            return hashlib.sha256(serialize(build()).encode()).hexdigest()
        except ValueError as exc:
            return f"refused: {exc}"

    out = {name: digest(getattr(builders, name)) for name in PUBLIC_BUILDERS}
    out |= {f"gadget:{s.name}:{s.repetitions}": digest(lambda s=s: build_gadget(s)) for s in GADGET_SPECS}
    out |= {
        f"cycle:{name}": digest(lambda kw=kwargs: build_full_ec_circuit(**kw))
        for name, kwargs in {**BUILD_CONFIGS, **REFUSED_CONFIGS}.items()
    }
    return out


def write_golden_builders() -> None:
    """Regenerate ``golden_builders.json``: ``PYTHONPATH=src:tests python tests/test_builders.py``."""
    GOLDEN_BUILDERS.write_text(json.dumps(builder_outputs(), indent=1, sort_keys=True) + "\n", encoding="utf-8")


def test_builder_outputs_match_golden():
    assert builder_outputs() == json.loads(GOLDEN_BUILDERS.read_text(encoding="utf-8"))


def _mapped(gate: Gate, wires: dict[int, int]) -> Gate:
    """``gate`` on the cycle's wires; a readout's label follows its wire."""
    qubits = tuple(wires.get(q, q) for q in gate.qubits)
    label = f"M{qubits[0] + 1}:{gate.kind[1]}" if gate.is_measurement else gate.label
    return Gate(gate.kind, qubits, label)


def _run(gates: list[Gate], first: str, length: int) -> list[Gate]:
    start = [g.label for g in gates].index(first)
    return gates[start:start + length]


@pytest.mark.parametrize("x_rounds_first", [True, False])
def test_cycle_parts_are_the_oracle_segments(x_rounds_first):
    cycle = build_full_ec_circuit(x_rounds_first=x_rounds_first)
    gates = [g for g in cycle.gates if not g.label.startswith("CN")]
    by_label = {g.label: g for g in gates}
    for segment, first in ((build_encoder(), "H1"), (build_decoder(), "C26")):
        assert tuple(_run(gates, first, len(segment.gates))) == segment.gates
    for segment, prep, first in ((build_x_round_segment(), "PX1", "C12"), (build_z_round_segment(), "PZ1", "C19")):
        wires = dict(zip(range(7, 14), by_label[prep].qubits))
        head, *rest = [_mapped(g, wires) for g in segment.gates]
        assert head == by_label[prep]
        assert _run(gates, first, len(rest)) == rest


def test_ancilla_macros_expand_to_the_aux_encoder():
    aux = [g for g in build_full_ec_circuit(block_kind="aux").gates if not g.label.startswith("CN")]
    labels = [g.label for g in aux]
    encoder = [(g.kind, g.qubits) for g in aux[labels.index("H1"):labels.index("C12")]]
    assert len(encoder) == 12  # H1-H3 and C3-C11
    for kind, tail in (("PREP0L", []), ("PREPSTEANE", [("H", (q,)) for q in range(7)])):
        assert [(k, qubits) for k, qubits, _ in ancilla_prep(kind)] == encoder + tail

if __name__ == "__main__":
    write_golden_builders()
