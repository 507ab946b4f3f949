"""Depth profiles and period coefficients."""
from __future__ import annotations

import pytest

from golden_tables import X_PERFECT, Z_PERFECT
from test_faults import flag_bits
from steanesim.builders import build_full_ec_circuit
from steanesim.depth import (
    BlockDepth,
    DepthProfile,
    aux_block_depth,
    block_analysis,
    count_fault_locations,
    data_block_depth,
    effective_R,
)
from steanesim.faults import (
    canonical_residual,
    enumerable_locations,
    inject_and_propagate,
    ledger_from_names,
)

DATA_X = (9, 11, 11, 12, 14, 12, 12)
DATA_Z = (5, 14, 14, 16, 12, 8, 8)
DATA_Y = (5, 14, 14, 16, 14, 10, 10)
AUX_X = (8, 11, 11, 12, 10, 8, 8)


@pytest.fixture(scope="module")
def data_profile():
    return block_analysis("data")[3]


def test_data_block_profiles(data_profile):
    assert data_profile.r_x == DATA_X
    assert data_profile.r_z == DATA_Z
    assert data_profile.r_y == DATA_Y


def test_aux_block_profiles():
    profile = block_analysis("aux")[3]
    assert profile.r_x == AUX_X
    assert profile.r_y == AUX_X
    assert profile.r_z == (0,) * 7


def test_effective_R_values(data_profile):
    depth = effective_R(data_profile)
    assert depth.R == (7, 13, 13, 15, 14, 10, 10)
    assert depth.R[1] == depth.R[2] and depth.R[5] == depth.R[6]
    assert data_block_depth().R == depth.R
    assert aux_block_depth().R == (6, 8, 8, 8, 7, 6, 6)
    assert data_block_depth().gamma == 4


def test_ceiling_identity(data_profile):
    depth = effective_R(data_profile)
    for q in range(7):
        triple = data_profile.r_x[q] + data_profile.r_y[q] + data_profile.r_z[q]
        assert depth.R[q] == -(-triple // 3)


def test_zero_profile_gives_zero_R():
    depth = effective_R(DepthProfile((0,) * 7, (0,) * 7, (0,) * 7))
    assert depth.R == (0,) * 7


def test_block_depth_requires_seven_entries():
    with pytest.raises(ValueError):
        BlockDepth((1, 2, 3))
    with pytest.raises(ValueError, match="expected seven R coefficients"):
        BlockDepth(tuple(range(8)), gamma=4)
    assert BlockDepth(tuple(range(7))) == BlockDepth(R=tuple(range(7)), gamma=4)


def test_counts_agree_with_enumeration_location_by_location():
    """Every counted location is one the enumeration marks effective."""
    circuit = build_full_ec_circuit(include_flags=True, block_kind="data")
    x_ledger = ledger_from_names(X_PERFECT)
    z_ledger = ledger_from_names(Z_PERFECT)
    profile = count_fault_locations(circuit, x_ledger, z_ledger)
    recount = [0] * 7
    for _, label, side, qubit in enumerable_locations(circuit):
        if qubit >= 7 or side == "single":
            continue
        sig, res = inject_and_propagate(circuit, label, side, "X")
        # The rule, stated here on its own: a flag CNOT's wire leg counts on
        # any flipped readout, a labeled gate's leg on a flipped syndrome or
        # terminal readout; either counts on an observable residual.
        flags = flag_bits(sig) if label.startswith("CN") else ()
        flipped = any(any(bits) for bits in (*sig.z_syn, *sig.x_syn, sig.meas, flags))
        effective = flipped or canonical_residual(circuit.layout, res) != (0, 0)
        if effective and (label.split(".")[0], side, "X") not in x_ledger:
            recount[qubit] += 1
    assert tuple(recount) == profile.r_x


def test_depth_uses_derived_ledgers_consistently():
    circuit, x_ledger, z_ledger, profile, _ = block_analysis("data")
    again = count_fault_locations(circuit, x_ledger, z_ledger)
    assert again == profile
