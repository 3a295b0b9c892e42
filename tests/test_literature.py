"""Counts from the literature, computed here without the engine's root
data: the length of a flop (Katz-Morrison) and the Poincare series of an
affine Weyl group (Bott)."""

import pytest

from cdvwall.arrangement import ChamberGraph
from cdvwall.dynkin import build_diagram
from cdvwall.restriction import DynkinType, restricted_roots

FINITE_TYPES = ([("A", r) for r in range(1, 9)] + [("D", r) for r in range(4, 9)]
                + [("E", r) for r in (6, 7, 8)])


def highest_root(diagram) -> dict:
    """Raise a simple root until it is dominant.  In a simply laced system
    beta + alpha_j is a root whenever (beta, alpha_j) = -1, and the only
    dominant positive root is the highest one."""
    neighbours = {n: [] for n in diagram.nodes}
    for a, b in diagram.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    beta = {n: 0 for n in diagram.nodes}
    beta[diagram.nodes[0]] = 1
    while True:
        for n in diagram.nodes:
            if 2 * beta[n] - sum(beta[m] for m in neighbours[n]) < 0:
                beta[n] += 1
                break
        else:
            return beta


@pytest.mark.parametrize("family, rank, node", [
    (family, rank, node) for family, rank in FINITE_TYPES for node in range(1, rank + 1)])
def test_length_of_a_flop(family, rank, node):
    """With one curve kept (every other node contracted), the positive
    restricted roots are 1, ..., h, h the node's coefficient in the highest
    root (Katz-Morrison, J. Algebraic Geom. 1992)."""
    diagram = build_diagram(family, rank)
    dtype = DynkinType(diagram, frozenset(diagram.nodes) - {node})
    positives = sorted(v for v in restricted_roots(dtype).values() if v[0] > 0)
    h = highest_root(diagram)[node]
    assert positives == [(k,) for k in range(1, h + 1)]


def test_highest_root_marks():
    """The largest mark of each type: the longest flop has length 6, in E8."""
    marks = {(family, rank): max(highest_root(build_diagram(family, rank)).values())
             for family, rank in FINITE_TYPES}
    assert marks == {**{("A", r): 1 for r in range(1, 9)}, **{("D", r): 2 for r in range(4, 9)},
                     ("E", 6): 3, ("E", 7): 4, ("E", 8): 6}


# degrees of the basic invariants of the finite Weyl group
DEGREES = {("A", 2): (2, 3), ("D", 4): (2, 4, 4, 6), ("E", 6): (2, 5, 6, 8, 9, 12)}


def weyl_lengths(degrees, max_len: int) -> list:
    """Coefficients up to q^max_len of Bott's series for the affine Weyl
    group, prod [d]_q / (1 - q^(d - 1)): the number of elements of each
    length."""
    series = [1] + [0] * max_len
    for d in degrees:
        # times [d]_q = 1 + q + ... + q^(d-1)
        series = [sum(series[k - j] for j in range(min(d, k + 1))) for k in range(max_len + 1)]
        # divided by 1 - q^(d-1): add the coefficient d - 1 places lower
        for k in range(d - 1, max_len + 1):
            series[k] += series[k - d + 1]
    return series


@pytest.mark.parametrize("family, rank, max_len", [("A", 2, 6), ("D", 4, 5), ("E", 6, 4)])
def test_chamber_counts_follow_bott(family, rank, max_len):
    """With nothing contracted the chambers are alcoves, and those within L
    wall-crossings of the base one are the affine Weyl elements of length
    at most L."""
    dtype = DynkinType(build_diagram(family, rank, affine=True), frozenset())
    per_length = weyl_lengths(DEGREES[family, rank], max_len)
    for length in range(max_len + 1):
        chambers, _ = ChamberGraph(dtype).bfs(length)
        assert len(chambers) == sum(per_length[:length + 1]), length
