"""Exhaustive sweeps discharging the set-level properties over the whole
supported rank range, plus error-path coverage."""

import pytest

from cdvwall.dynkin import build_diagram
from cdvwall.groupoid import mutate
from cdvwall.restriction import (
    DynkinType,
    check_gcd_closure,
    proper_subsets,
    restricted_roots,
)
from cdvwall.weyl import identity

ALL_FINITE = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + \
    [("E", n) for n in (6, 7, 8)]


@pytest.mark.parametrize("family,rank", ALL_FINITE)
def test_gcd_closure_every_finite_type_every_subset(family, rank):
    diagram = build_diagram(family, rank)
    for subset in proper_subsets(diagram):
        report = check_gcd_closure(DynkinType(diagram, subset))
        assert report.ok, (family, rank, sorted(subset), report.violations)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 2), ("A", 3), ("D", 4), ("D", 5)])
def test_gcd_closure_affine_window_sweep(family, rank):
    diagram = build_diagram(family, rank, affine=True)
    for subset in proper_subsets(diagram):
        report = check_gcd_closure(DynkinType(diagram, subset), 3)
        assert report.ok, (family, rank, sorted(subset), report.violations)


@pytest.mark.parametrize("family,rank,affine,subset", [
    pytest.param("A", 2, True, frozenset(), id="A-2-subset0"),
    pytest.param("A", 3, True, frozenset({2}), id="A-3-subset1"),
    pytest.param("D", 4, True, frozenset({3, 4}), id="D-4-subset2"),
    pytest.param("D", 4, True, frozenset({0, 2}), id="D-4-subset3"),
    pytest.param("E", 6, True, frozenset({1, 3, 5}), id="E-6-subset4"),
    pytest.param("E", 8, True, frozenset({2, 5, 7}), id="E-8-subset5"),
    pytest.param("A", 3, False, frozenset({2}), id="A-3-finite"),
    pytest.param("D", 4, False, frozenset({1}), id="D-4-finite"),
    pytest.param("E", 6, False, frozenset({2, 4}), id="E-6-finite"),
])
def test_mutated_labels_are_already_minimal(family, rank, affine, subset):
    # mutate does not reduce its product: label consistency is preserved
    # step by step, so products of the step elements stay coset-minimal,
    # i.e. have no right descent in the new subset
    diagram = build_diagram(family, rank, affine=affine)
    dtype = DynkinType(diagram, subset)
    frontier = [(identity(diagram), dtype.contracted)]
    seen = set(frontier)
    for _ in range(3):
        nxt = []
        for weyl, kept_subset in frontier:
            for node in (n for n in diagram.nodes if n not in kept_subset):
                stepped = mutate(weyl, kept_subset, node)
                weyl_after, subset_after = stepped
                assert not any(weyl_after.sends_simple_negative(n) for n in subset_after)
                if stepped not in seen:
                    seen.add(stepped)
                    nxt.append(stepped)
        frontier = nxt


def test_finite_types_take_no_window():
    dt = DynkinType(build_diagram("A", 3), frozenset({2}))
    with pytest.raises(ValueError):
        restricted_roots(dt, 3)


def test_cli_rejects_affine_vanishing_table(capsys):
    from cdvwall.cli import main

    code = main(["vanishing-table", "--family", "A", "--rank", "2", "--affine"])
    captured = capsys.readouterr()
    assert code == 2
    assert "finite" in captured.err
