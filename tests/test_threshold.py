"""Level expansion, pair-count coefficient, threshold search and tables."""
from __future__ import annotations

import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from steanesim import pinned
from steanesim.builders import build_full_ec_circuit
from steanesim.depth import BlockDepth, aux_block_depth, count_fault_locations, data_block_depth, effective_R
from steanesim.faults import derive_perfect_assumptions, view_table
from steanesim.threshold import (
    GATE_CLASSES,
    MAX_LEVEL,
    R_PRIME,
    TABLE2_R_VALUES,
    ThresholdResult,
    coefficient_c,
    coefficient_c0,
    coefficient_c0_literal,
    curve,
    expand_levels,
    generate_table_1,
    generate_table_2,
    optimize_x,
    p_th,
)

DATA = BlockDepth(pinned.DATA_BLOCK_R)
AUX = BlockDepth(pinned.AUX_BLOCK_R)


def reference_scan(block, k, r=None, gate_class="transversal", x_max=200) -> ThresholdResult:
    """The explicit x loop with the formula spelled out: keep the first strict maximum."""
    best_x, best_c, best_p = 1, 0.0, float("-inf")
    for x in range(1, x_max + 1):
        c = coefficient_c(block, k, x)
        ratio = float(x) if gate_class == "transversal" or r is None else r * x / (r - 1 + R_PRIME[gate_class])
        val = ratio ** (1.0 / (2 ** k - 1)) / c
        if val > best_p:
            best_x, best_c, best_p = x, c, val
    return ThresholdResult(k, r, gate_class, best_x, best_c, best_p)


def scan_grid(seed: int = 18):
    """Seeded (block, k, r, gate_class, x_max) queries: both blocks, every gate
    class, k 1-12 against every table r and a drawn r up to 1e5, cycling x_max
    through fixed values and log-uniform drawn ones up to 2000; MAX_LEVEL with x_max <= 7; every pinned table cell."""
    rng = random.Random(seed)
    x_maxes = (1, 2, 3, 7, 50, 200)
    queries = []
    for block in (DATA, AUX):
        for gate in GATE_CLASSES:
            for k in range(1, 13):
                for i, r in enumerate(TABLE2_R_VALUES + (rng.randint(1, 100_000),)):
                    x_max = x_maxes[(k + i) % 7] if (k + i) % 7 < 6 else round(2000 ** rng.random())
                    queries.append((block, k, r, gate, x_max))
            for r in (None, 1, rng.randint(1, 100_000)):
                queries.append((block, MAX_LEVEL, r, gate, rng.randint(1, 7)))
    queries += [(block, k, None, "transversal", 200) for block, table in ((DATA, pinned.TABLE_1A_DATA),
                                                                         (AUX, pinned.TABLE_1B_AUX)) for k in table]
    queries += [(AUX, k, r, gate, 200) for gate, table in (("t", pinned.TABLE_2A_T_GATE),
                                                           ("toffoli3", pinned.TABLE_2B_TOFFOLI_TARGET)) for k, r in table]
    return queries


def step17_by_hand(depths: tuple[int, ...], gamma: int, x: int, lineage: int) -> int:
    """Independent oracle: sum of all unordered qubit-pair depth products."""
    d = [lineage + gamma * x] + [depths[i] + gamma * x for i in (1, 2, 3, 4, 5, 6)]
    return sum(d[i] * d[j] for i in range(7) for j in range(i + 1, 7))


def test_expand_levels_examples():
    assert expand_levels(DATA, 1) == DATA.R
    lvl2 = expand_levels(DATA, 2)
    assert len(lvl2) == 49
    for m in range(7):
        assert lvl2[7 * m] == DATA.R[m] + 7
        assert lvl2[7 * m + 1: 7 * m + 7] == DATA.R[1:]
    with pytest.raises(ValueError):
        expand_levels(DATA, 0)


def test_coefficient_anchors():
    assert DATA.gamma == AUX.gamma == 4
    assert coefficient_c0(DATA, 1, 3) == pinned.C_DATA_K1_X3
    assert coefficient_c0(AUX, 1, 2) == pinned.C_AUX_K1_X2
    # the same anchors recovered from the level-1 table: p_th = x / c
    assert round(3 / pinned.TABLE_1A_DATA[1][1]) == pinned.C_DATA_K1_X3
    assert round(2 / pinned.TABLE_1B_AUX[1][1]) == pinned.C_AUX_K1_X2


def test_coefficient_matches_pairwise_oracle():
    # the pair-sum formula is exactly the sum over qubit-pair products,
    # with the first-position depth walking the expanded lineage
    for block in (DATA, AUX):
        for x in (1, 2, 5):
            want = step17_by_hand(block.R, 4, x, block.R[0])
            assert coefficient_c0(block, 1, x) == want


def all_pairs_by_hand(expanded: tuple[int, ...], gamma: int, x: int) -> int:
    """Brute force: per group of seven (a lineage position, then R2..R7), the
    sum over its 21 pairs of depth + gamma*x products."""
    return sum((a + gamma * x) * (b + gamma * x) for s in range(0, len(expanded), 7)
               for a, b in itertools.combinations(expanded[s:s + 7], 2))


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.integers(0, 40)] * 7), st.integers(0, 8), st.integers(1, 4), st.integers(1, 60))
def test_coefficient_is_the_all_pairs_sum_of_any_depths(R, gamma, k, x):
    # Asymmetric depths too: no position stands in for another. At k = 1 the
    # expanded list is R itself.
    block = BlockDepth(R, gamma)
    expanded = expand_levels(block, k)
    assert coefficient_c0(block, k, x) == all_pairs_by_hand(expanded, gamma, x)
    assert coefficient_c0_literal(expanded, x, gamma) == coefficient_c0(block, k, x)


def test_an_asymmetric_variant_reads_all_seven_depths():
    # The Z-type gadget 1 variant (R3 != R2): c0 at x = 1, 2, 3 and its level-1 threshold.
    circuit = build_full_ec_circuit(gadget_overrides={1: ("Z", 5, ("CN1", "CN2"), ("C4", "C16.2"))})
    x_ledger, z_ledger = (derive_perfect_assumptions(view_table(circuit, view)) for view in "XZ")
    block = effective_R(count_fault_locations(circuit, x_ledger, z_ledger))
    assert block.R == (7, 11, 13, 15, 16, 10, 10)
    assert [coefficient_c0(block, 1, x) for x in (1, 2, 3)] == [5156, 8132, 11780]
    res = optimize_x(block, 1)
    assert res.x_star == 3 and f"{res.max_p_th:.3e}" == "2.547e-04"


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 9))
def test_literal_expansion_equals_closed_form(k, x):
    for block in (DATA, AUX):
        assert coefficient_c0_literal(expand_levels(block, k), x, block.gamma) == coefficient_c0(block, k, x)


def test_p_th_examples():
    assert p_th(DATA, 1, 3) == 3 / 11786
    assert p_th(AUX, 1, 2, 1, "t") == (2 / 20) / 4722
    assert p_th(DATA, 1, 3, 1, "transversal") == p_th(DATA, 1, 3)  # the transversal class ignores r
    with pytest.raises(ZeroDivisionError):
        p_th(BlockDepth((0,) * 7, gamma=0), 1, 1)


def test_exponent_is_linear_at_level_one():
    for block in (DATA, AUX):
        for x in (1, 2, 7):
            assert p_th(block, 1, x) == x / coefficient_c(block, 1, x)


def test_optimize_x_anchors():
    res = optimize_x(DATA, 1)
    assert (res.x_star, res.max_p_th) == (3, pytest.approx(2.545392838961480e-04, rel=1e-12))
    res = optimize_x(AUX, 2)
    assert (res.x_star, res.max_p_th) == (1, pytest.approx(3.325573661456601e-04, rel=1e-12))
    res = optimize_x(DATA, 6)
    assert (res.x_star, res.max_p_th) == (1, pytest.approx(1.534938383096437e-04, rel=1e-12))


def test_table_1_reproduction_against_pinned_values():
    for block, expect in ((DATA, pinned.TABLE_1A_DATA), (AUX, pinned.TABLE_1B_AUX)):
        for res in generate_table_1(block):
            x_star, p = expect[res.k]
            assert res.x_star == x_star
            assert res.max_p_th == pytest.approx(p, rel=1e-9)


def test_table_2_reproduction_against_pinned_values():
    for gate, expect in (("t", pinned.TABLE_2A_T_GATE), ("toffoli3", pinned.TABLE_2B_TOFFOLI_TARGET)):
        for res in generate_table_2(AUX, gate):
            assert res.max_p_th == pytest.approx(expect[(res.k, res.r)], rel=1e-9)


def test_limit_rows_equal_transversal_values():
    for k in range(1, 7):
        limit = optimize_x(AUX, k, r=None, gate_class="t").max_p_th
        assert limit == pytest.approx(pinned.TABLE_1B_AUX[k][1], rel=1e-12)


def test_p_th_strictly_decreasing_in_x_for_deeper_levels():
    for block in (DATA, AUX):
        for k in (2, 3, 4):
            values = [p for _, _, p in curve(block, k, x_max=40)]
            assert all(a > b for a, b in zip(values, values[1:]))


def test_max_p_th_nondecreasing_in_r_and_bounded_by_limit():
    rs = (1, 10, 100, 1000, 10000)
    for gate in ("t", "toffoli1", "toffoli2", "toffoli3"):
        for k in (1, 2, 3):
            vals = [optimize_x(AUX, k, r=r, gate_class=gate).max_p_th for r in rs]
            assert all(a <= b + 1e-18 for a, b in zip(vals, vals[1:]))
            limit = optimize_x(AUX, k, r=None, gate_class=gate).max_p_th
            assert all(v <= limit + 1e-18 for v in vals)


def test_limit_behavior_in_k():
    diffs = []
    prev = None
    for k in range(1, 11):
        val = optimize_x(DATA, k, x_max=5).max_p_th
        if prev is not None:
            diffs.append(abs(prev - val))
        prev = val
    assert all(a > b for a, b in zip(diffs, diffs[1:]))


def test_optimize_x_edge_cases():
    assert optimize_x(DATA, 1, x_max=1).x_star == 1
    with pytest.raises(ValueError):
        optimize_x(DATA, 1, x_max=0)
    with pytest.raises(ValueError):
        optimize_x(DATA, 1, gate_class="hadamard")
    # with zero gamma the coefficient is constant in x, so p_th grows with x
    block = BlockDepth((1, 1, 1, 1, 1, 1, 1), gamma=0)
    assert optimize_x(block, 1, x_max=10).x_star == 10
    assert p_th(block, 1, 1) < p_th(block, 1, 2)


def test_derived_block_depths_feed_the_tables():
    assert data_block_depth().R == DATA.R
    assert aux_block_depth().R == AUX.R


def test_curve_rows_shape():
    rows = curve(DATA, 3, x_max=5)
    assert [(k, x) for k, x, _ in rows] == [(3, x) for x in range(1, 6)]
    assert all(math.isfinite(p) for _, _, p in rows)


def test_curve_checks_its_arguments_like_optimize_x():
    for kwargs in ({"gate_class": "bogus"}, {"x_max": 0}, {"r": 0}):
        with pytest.raises(ValueError) as curve_error:
            curve(DATA, 1, **kwargs)
        with pytest.raises(ValueError) as scan_error:
            optimize_x(DATA, 1, **kwargs)
        assert str(curve_error.value) == str(scan_error.value)


def test_optimize_x_equals_the_reference_scan():
    for block, k, r, gate, x_max in scan_grid():
        assert optimize_x(block, k, r, gate, x_max) == reference_scan(block, k, r, gate, x_max), (k, r, gate, x_max)


def test_optimize_x_memory_does_not_grow_with_x_max():
    # the scan is consumed lazily; a materialised 50,000-row curve takes more than 5 MB
    tracemalloc.start()
    try:
        optimize_x(DATA, 1, x_max=50_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
