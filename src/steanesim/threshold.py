"""Concatenation-level expansion, pair-count coefficient and threshold search.

The failure coefficient c counts unordered pairs of fault locations inside
one encoded block over an error-correction period, each pair once (the
pair count of Aliferis, Gottesman and Preskill, quant-ph/0504218): per
lineage position, the sum over all 21 pairs of the seven depths
(A, R2, ..., R7) + gamma*x, so 21*v^2 when every depth is v. A walks the
expanded first-position lineage and R2..R7 stay at their base-level values
(the expansion is deliberately asymmetric; only the first position
accumulates +R1 per level). All sums are exact integers; the single float
division and the 1/(2^k - 1) root reproduce the published sixteen-digit
values.

For level k the expanded list has length 7^k; the literal expansion is kept
for modest k, while the default path evaluates the same sum in closed form.
c0 is linear in the sum over lineage positions s of list_k[s], which equals
T_{k-1} + 7^(k-1) * R1 with T_j = (R1+...+R7) * (7^j - 1) / 6.

`p_th` is the one threshold formula and `_scan` the one x loop: `curve`
lists the scan's (k, x, p_th) rows, and `optimize_x` takes their first
maximum without materialising them.
"""
from __future__ import annotations

from itertools import combinations
from operator import itemgetter
from typing import NamedTuple

from .depth import BlockDepth

R_PRIME = {"t": 20, "toffoli1": 19, "toffoli2": 17, "toffoli3": 8}
GATE_CLASSES = ("transversal",) + tuple(R_PRIME)
DEFAULT_X_MAX = 200
MAX_LITERAL_LEVEL = 8
MAX_LEVEL = 1023  # the largest k whose root exponent 1/(2^k - 1) a float can hold


class ThresholdResult(NamedTuple):
    k: int
    r: int | None
    gate_class: str
    x_star: int
    c_at_x_star: float
    max_p_th: float


def expand_levels(block: BlockDepth, k: int) -> tuple[int, ...]:
    """Materialized level-k depth list (7x growth per level).

    Each element e of the current list is replaced by [e + R1, R2, ..., R7];
    level 1 is the base list itself.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > MAX_LITERAL_LEVEL:
        raise ValueError(f"literal expansion capped at k={MAX_LITERAL_LEVEL}; use the closed form")
    lst = list(block.R)
    for _ in range(k - 1):
        nxt = []
        for e in lst:
            nxt.append(e + block.R[0])
            nxt.extend(block.R[1:7])
        lst = nxt
    return tuple(lst)


def coefficient_c0_literal(expanded: tuple[int, ...], x: int, gamma: int) -> int:
    """Exact integer c0 by walking an `expand_levels` list seven depths at a
    time (a lineage position, then R2..R7): the sum over all 21 pairs of
    each group's depths + gamma*x."""
    depths = [e + gamma * x for e in expanded]
    return sum(a * b for s in range(0, len(depths), 7) for a, b in combinations(depths[s:s + 7], 2))


def coefficient_c0(block: BlockDepth, k: int, x: int) -> int:
    """Exact integer c0 in closed form (no 7^k list): with S and P the sum and
    the pair sum of R2..R7, each lineage value A pairs with the six others
    for (S + 6*gx)*A, and the six pair among themselves for
    P + 5*gx*S + 15*gx^2."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if x < 1:
        raise ValueError("x must be >= 1")
    _, r2, r3, r4, r5, r6, r7 = R = block.R
    gx = block.gamma * x
    S = r2 + r3 + r4 + r5 + r6 + r7
    P = r2 * (S - r2) + r3 * (r4 + r5 + r6 + r7) + r4 * (r5 + r6 + r7) + r5 * (r6 + r7) + r6 * r7
    n_lineage = 7 ** (k - 1)
    sum_lineage = sum(R) * (n_lineage - 1) // 6 + n_lineage * R[0]  # T_{k-1} + 7^(k-1) * R1
    sum_A = sum_lineage + n_lineage * gx
    return (S + 6 * gx) * sum_A + n_lineage * (P + 5 * gx * S + 15 * gx * gx)


def coefficient_c(block: BlockDepth, k: int, x: int) -> float:
    """c = c0 / 7^(k-1), the per-level pair count."""
    return coefficient_c0(block, k, x) / 7 ** (k - 1)


def p_th(block: BlockDepth, k: int, x: int, r: int | None = None, gate_class: str = "transversal") -> float:
    """p_th = (r*x/r0)^(1/(2^k - 1)) / c, with r0 = r - 1 + r' for the measured
    classes; the transversal class and r=None (r -> infinity) take the ratio x."""
    c = coefficient_c(block, k, x)
    if c <= 0:
        raise ZeroDivisionError("coefficient c must be positive")
    ratio = x if gate_class == "transversal" or r is None else r * x / (r - 1 + R_PRIME[gate_class])
    return ratio ** (1.0 / (2 ** k - 1)) / c


def _scan(block: BlockDepth, k: int, x_max: int, r: int | None, gate_class: str):
    """Check the arguments now; return the lazy (k, x, p_th) rows for x = 1..x_max."""
    if k > MAX_LEVEL:
        raise ValueError(f"k must be <= {MAX_LEVEL}, got {k}")
    if gate_class not in GATE_CLASSES:
        raise ValueError(f"unknown gate class {gate_class!r}")
    if x_max < 1:
        raise ValueError("x_max must be >= 1")
    if r is not None and r < 1:
        raise ValueError("r must be >= 1")
    return ((k, x, p_th(block, k, x, r, gate_class)) for x in range(1, x_max + 1))


def optimize_x(
    block: BlockDepth,
    k: int,
    r: int | None = None,
    gate_class: str = "transversal",
    x_max: int = DEFAULT_X_MAX,
) -> ThresholdResult:
    """The first maximum of the scan `curve` lists: ties resolve to the smallest x."""
    _, x_star, best = max(_scan(block, k, x_max, r, gate_class), key=itemgetter(2))
    return ThresholdResult(k, r, gate_class, x_star, coefficient_c(block, k, x_star), best)


def curve(block: BlockDepth, k: int, x_max: int = DEFAULT_X_MAX, r: int | None = None,
          gate_class: str = "transversal") -> list[tuple[int, int, float]]:
    """(k, x, p_th) rows for a fixed level."""
    return list(_scan(block, k, x_max, r, gate_class))


TABLE2_R_VALUES = (1, 10, 100, 1000, 10000, None)  # None prints as the limit row


def generate_table_1(block: BlockDepth):
    return [optimize_x(block, k) for k in range(1, 11)]


def generate_table_2(block: BlockDepth, gate_class: str):
    return [optimize_x(block, k, r=r, gate_class=gate_class) for k in range(1, 7) for r in TABLE2_R_VALUES]
