"""CNOT budgets, runtime estimates and permitted-depth checks."""
from __future__ import annotations

import pytest

from steanesim import pinned
from steanesim.depth import BlockDepth, aux_block_depth, data_block_depth
from steanesim.resources import (
    check_permitted_depth,
    cnot_count,
    derived_cnot_counts,
    estimate_runtime,
    period_depth,
)


def test_published_constants_match_circuit_counts():
    derived = derived_cnot_counts()
    assert derived == {"transversal": 52, "t": 175, "toffoli": 436}
    assert derived == pinned.CNOTS_PER_PERIOD


def test_cnot_count_levels():
    assert cnot_count("transversal", 1) == 52
    assert cnot_count("t", 1) == 175
    assert cnot_count("toffoli", 1) == 436
    assert cnot_count("transversal", 3) == 52 * 49
    with pytest.raises(ValueError):
        cnot_count("swap", 1)
    with pytest.raises(ValueError):
        cnot_count("t", 0)


def test_runtime_estimates():
    est = estimate_runtime({"t": 1})
    assert est.total_cnots == 175
    assert est.seconds == pytest.approx(4.9875e-2, rel=1e-12)
    assert estimate_runtime({}).seconds == 0.0
    est = estimate_runtime({"toffoli": 10**6})
    assert est.total_cnots == 436_000_000
    assert est.seconds == pytest.approx(436e6 * 2.85e-4, rel=1e-12)
    with pytest.raises(ValueError):
        estimate_runtime({"t": -1})
    # A finite count and time whose product is past a float's range: no inf seconds.
    with pytest.raises(ValueError, match=r"gate counts \{'t': 10\} at k=1 with cnot_time 1e\+308"):
        estimate_runtime({"t": 10}, cnot_time=1e308)
    with pytest.raises(ValueError, match="past a float's range"):
        estimate_runtime({"t": 10**400})


def test_runtime_linearity():
    a = estimate_runtime({"t": 3})
    b = estimate_runtime({"t": 3}, cnot_time=2 * pinned.CNOT_TIME_SECONDS)
    assert b.seconds == pytest.approx(2 * a.seconds, rel=1e-12)
    ab = estimate_runtime({"t": 3, "toffoli": 2})
    assert ab.total_cnots == 3 * 175 + 2 * 436


def test_permitted_depth_checks():
    data = data_block_depth()
    chk = check_permitted_depth(data, 6, 1)
    assert chk.passed and chk.per_qubit_depth == 6 * 7 + 4
    assert not check_permitted_depth(data, chk.max_admissible_k + 1, 1).passed
    assert not check_permitted_depth(data, 1, 1, limit=1).passed
    aux = aux_block_depth()
    chk = check_permitted_depth(aux, 1, 2)
    assert chk.passed and chk.per_qubit_depth == aux.R[0] + aux.gamma * 2
    assert chk.per_qubit_depth < 100
    with pytest.raises(ValueError):
        check_permitted_depth(data, 1, 1, limit=0)


def _looped_max_k(block, x, limit):
    """The level count as the loop before the closed form found it."""
    max_k = 0
    while period_depth(block, max_k + 1, x) <= limit:
        max_k += 1
        if max_k > 10_000:
            break
    return max_k


def test_max_admissible_k_closed_form_equals_the_loop():
    for block in (data_block_depth(), aux_block_depth()):
        for x in range(1, 6):
            for limit in range(1, 2001):
                assert check_permitted_depth(block, 1, x, limit).max_admissible_k == _looped_max_k(block, x, limit)


def test_max_admissible_k_is_not_capped():
    data = data_block_depth()
    chk = check_permitted_depth(data, 1, 1, limit=10**8)
    assert chk.max_admissible_k == (10**8 - 4) // 7 == 14_285_713
    assert check_permitted_depth(data, 1, 1).max_admissible_k == 28
    with pytest.raises(ValueError, match="R1"):
        check_permitted_depth(BlockDepth((0,) * 7), 1, 1)


def test_period_depth_formula():
    data = data_block_depth()
    assert period_depth(data, 1, 1) == data.R[0] + data.gamma
    assert period_depth(data, 4, 2) == 4 * data.R[0] + 2 * data.gamma
