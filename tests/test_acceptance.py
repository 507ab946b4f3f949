"""Acceptance suite: one test per criterion, each printing a verdict line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here, not configured elsewhere.
"""
from __future__ import annotations

import time

from golden_tables import X_PERFECT, X_TABLE, Z_PERFECT, Z_TABLE
from steanesim import pinned, verification
from steanesim.builders import build_full_ec_circuit
from steanesim.depth import block_analysis
from steanesim.faults import (
    check_flag_conditions,
    classify_collisions,
    derive_perfect_assumptions,
    ledger_from_names,
    ledger_names,
    view_table,
)
from steanesim.resources import derived_cnot_counts, estimate_runtime
from steanesim.threshold import generate_table_1, generate_table_2, optimize_x

REL_TOL_TABLES = 1e-9


def report(criterion: int, ok: bool, message: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, f"criterion {criterion}: {message}"


def test_criterion_01_table_1_reproduction():
    start = time.monotonic()
    data = block_analysis("data")[4]
    aux = block_analysis("aux")[4]
    for block, expect in ((data, pinned.TABLE_1A_DATA), (aux, pinned.TABLE_1B_AUX)):
        for res in generate_table_1(block):
            x_star, p = expect[res.k]
            assert res.x_star == x_star, f"k={res.k}"
            assert abs(res.max_p_th - p) <= REL_TOL_TABLES * p, f"k={res.k}"
    anchors = (
        optimize_x(data, 1).x_star == 3
        and optimize_x(aux, 1).x_star == 2
        and abs(optimize_x(data, 6).max_p_th - 1.534938383096437e-04) <= REL_TOL_TABLES * 1.5e-4
    )
    elapsed = time.monotonic() - start
    report(1, anchors and elapsed < 5.0,
           f"tables 1a/1b, k=1..10, rel<=1e-9, anchors hold ({elapsed:.2f}s < 5s)")


def test_criterion_02_coefficient_oracle():
    from steanesim.threshold import coefficient_c0, coefficient_c0_literal, expand_levels

    data = block_analysis("data")[4]
    aux = block_analysis("aux")[4]
    direct_data = coefficient_c0_literal(expand_levels(data, 1), 3, 4)
    direct_aux = coefficient_c0_literal(expand_levels(aux, 1), 2, 4)
    from_table_data = round(3 / pinned.TABLE_1A_DATA[1][1])
    from_table_aux = round(2 / pinned.TABLE_1B_AUX[1][1])
    ok = (
        coefficient_c0(data, 1, 3) == 11786 == direct_data == from_table_data
        and coefficient_c0(aux, 1, 2) == 4722 == direct_aux == from_table_aux
    )
    report(2, ok, "c(data,k=1,x=3)=11786 and c(aux,k=1,x=2)=4722, two independent routes each")


def test_criterion_03_table_2_reproduction():
    start = time.monotonic()
    aux = block_analysis("aux")[4]
    for gate, expect in (("t", pinned.TABLE_2A_T_GATE), ("toffoli3", pinned.TABLE_2B_TOFFOLI_TARGET)):
        for res in generate_table_2(aux, gate):
            want = expect[(res.k, res.r)]
            assert abs(res.max_p_th - want) <= REL_TOL_TABLES * want, (gate, res.k, res.r)
    for k in range(1, 7):  # the limit rows coincide with the level table
        limit = optimize_x(aux, k, r=None, gate_class="t").max_p_th
        assert abs(limit - pinned.TABLE_1B_AUX[k][1]) <= REL_TOL_TABLES * limit
    elapsed = time.monotonic() - start
    report(3, elapsed < 10.0, f"tables 2a/2b, k=1..6, all r, rel<=1e-9 ({elapsed:.2f}s < 10s)")


def _boxed_classes(circuit, view):
    out = {}
    for cls in classify_collisions(view_table(circuit, view)):
        if cls.signature.agreed_z() is None or cls.signature.agreed_x() is None:  # the rounds disagree
            continue
        syn = cls.signature.agreed_z() if view == "X" else cls.signature.agreed_x()
        idx = (3, 4, 5) if view == "X" else (0, 1, 2)
        out[("".join(map(str, syn)), "".join(str(cls.signature.meas[i]) for i in idx))] = cls
    return out


def test_criterion_04_decoding_table_fidelity():
    from steanesim.faults import canonical_residual
    from steanesim.paulis import PauliOperator

    start = time.monotonic()
    flags_off = build_full_ec_circuit(include_flags=False, block_kind="data")
    for view, golden in (("X", X_TABLE), ("Z", Z_TABLE)):
        classes = _boxed_classes(flags_off, view)
        assert set(classes) == {(syn, meas) for syn, meas, *_ in golden}
        for syn, meas, groups, _, no_error in golden:
            cls = classes[(syn, meas)]
            assert {l.display_name() for l, _ in cls.members} == {n for ms, _ in groups for n in ms}
            assert cls.includes_no_error == no_error
            for members, residual in groups:
                for name in members:
                    got = {
                        str(PauliOperator(7, *canonical_residual(flags_off.layout, r)))
                        for l, r in cls.members if l.display_name() == name
                    }
                    assert got == {residual}, name
    flags_on = build_full_ec_circuit(include_flags=True, block_kind="data")
    for view, names in (("X", X_PERFECT), ("Z", Z_PERFECT)):
        classes = classify_collisions(view_table(flags_on, view), ledger_from_names(names))
        assert [c for c in classes if c.verdict == "ambiguous"] == []
    elapsed = time.monotonic() - start
    report(4, elapsed < 1.0,
           f"boxed tables exact, zero ambiguity with flags+ledgers ({elapsed:.2f}s < 1s)")


def test_criterion_05_ledger_minimality():
    data = build_full_ec_circuit(include_flags=True, block_kind="data")
    aux = build_full_ec_circuit(include_flags=True, block_kind="aux")
    x_led = derive_perfect_assumptions(view_table(data, "X"))
    z_led = derive_perfect_assumptions(view_table(data, "Z"))
    aux_led = derive_perfect_assumptions(view_table(aux, "X"))
    ok = (
        ledger_names(x_led) == sorted(X_PERFECT)
        and set(ledger_names(z_led)) == set(Z_PERFECT)
        and aux_led == frozenset()
    )
    report(5, ok, f"ledgers: X={ledger_names(x_led)}, Z has {len(z_led)} entries, aux empty")


def test_criterion_06_flag_condition_audit():
    circuit = build_full_ec_circuit(include_flags=True, block_kind="data")
    reports = check_flag_conditions(
        circuit, ledger_from_names(X_PERFECT), ledger_from_names(Z_PERFECT)
    )
    all_pass = len(reports) == 8 and all(r.all_pass for r in reports)
    bad = build_full_ec_circuit(
        include_flags=True, block_kind="data",
        gadget_overrides={3: ("X", 4, ("CN5", "CN6"), ("C9", "C10"))},
    )
    bad_reports = {r.gadget_id: r for r in check_flag_conditions(
        bad, ledger_from_names(X_PERFECT), ledger_from_names(Z_PERFECT))}
    report(6, all_pass and not bad_reports[3].condition2,
           "CN1-CN16 satisfy all three conditions; misplaced fixture fails condition 2")


def test_criterion_07_depth_profiles():
    _, _, _, data_prof, data_depth = block_analysis("data")
    _, _, _, aux_prof, aux_depth = block_analysis("aux")
    ok = (
        data_prof.r_x == pinned.DATA_BLOCK_RX
        and data_prof.r_z == pinned.DATA_BLOCK_RZ
        and data_prof.r_y == pinned.DATA_BLOCK_RY
        and aux_prof.r_x == pinned.AUX_BLOCK_RX
        and aux_prof.r_y == pinned.AUX_BLOCK_RX
        and aux_prof.r_z == (0,) * 7
        and data_depth.R == pinned.DATA_BLOCK_R
        and aux_depth.R == pinned.AUX_BLOCK_R
    )
    report(7, ok, f"X/Y/Z profiles and R exact: data R={data_depth.R}, aux R={aux_depth.R}")


def test_criterion_08_statevector_verification():
    checks = dict(
        encoder=verification.check_encoder_codewords(tol=1e-12),
        steane=verification.check_steane_state(tol=1e-12),
        decoder=verification.check_decoder_inverts_encoder(n_states=20, tol=1e-10),
        t_gadget=verification.check_t_gadget(tol=1e-10),
        theta=verification.check_theta_prep(tol=1e-10),
        a_state=verification.check_a_prep(tol=1e-10),
        toffoli=verification.check_toffoli_gadget(tol=1e-10),
    )
    ok = all(passed for passed, _ in checks.values())
    report(8, ok, "; ".join(f"{k}:{'ok' if p else d}" for k, (p, d) in checks.items()))


def test_criterion_09_resource_constants():
    derived = derived_cnot_counts()
    est = estimate_runtime({"t": 1})
    ok = (
        derived == {"transversal": 52, "t": 175, "toffoli": 436}
        and abs(est.seconds - 4.9875e-2) <= 1e-12 * 4.9875e-2
    )
    report(9, ok, f"circuit-derived CNOTs {derived}; one T period = {est.seconds} s")


def test_criterion_10_propagation_oracle_equivalence():
    start = time.monotonic()
    ok, detail = verification.check_propagation_oracle(n_faults=200, seed=20240817, tol=1e-10)
    elapsed = time.monotonic() - start
    report(10, ok and elapsed < 30.0, f"{detail} ({elapsed:.1f}s < 30s)")
