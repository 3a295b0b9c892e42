import pytest

from cdvwall.dihedral import (
    _extended_imaginary,
    classify_restricted,
    compound_vectors,
    mozgovoy_reineke_check,
    proposition_check,
    run_case,
    source_type,
    target_diagram,
)
from cdvwall.dynkin import build_diagram, enumerate_roots
from cdvwall.linalg import vec_neg
from cdvwall.restriction import DynkinType, imaginary_restriction


def test_source_type_layout():
    dt = source_type(3)
    assert dt.diagram.rank == 6
    assert dt.contracted == frozenset({2, 4})
    assert dt.kept == (1, 3, 5, 6)


def test_target_diagram_small_rank():
    d3 = target_diagram(2)
    assert len(d3.nodes) == 3 and len(d3.edges) == 2
    assert len(enumerate_roots(d3).positive_roots) == 6


@pytest.mark.parametrize("n,compounds", [(2, 1), (3, 2), (4, 3), (5, 4)])
def test_compound_count(n, compounds):
    assert len(compound_vectors(n)) == compounds


def test_compound_shapes():
    assert compound_vectors(2) == ((0, 1, 1),)
    assert compound_vectors(3) == ((0, 2, 1, 1), (0, 0, 1, 1))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_is_exact(n):
    split = classify_restricted(n)
    assert split.ok
    roots = enumerate_roots(target_diagram(n)).all_roots
    assert split.root_part == frozenset(roots)
    assert len(split.compound_part) == 2 * (n - 1)


def test_n3_counts_match_the_exhaustive_restriction():
    split = classify_restricted(3)
    assert len(split.root_part) == 24
    assert len(split.compound_part) == 4


def test_compounds_are_not_roots():
    for n in (2, 3, 4, 5):
        roots = set(enumerate_roots(target_diagram(n)).all_roots)
        for c in compound_vectors(n):
            assert c not in roots and vec_neg(c) not in roots


def test_displayed_sum_of_roots():
    # the leading compound is the sum of the two fork roots, which the
    # diagram involution swaps
    n = 3
    c = compound_vectors(n)[0]
    left = (0, 1, 1, 0)   # alpha_2 + alpha_3 in the rank-4 target
    right = (0, 1, 0, 1)  # alpha_2 + alpha_4
    roots = set(enumerate_roots(target_diagram(n)).all_roots)
    assert left in roots and right in roots
    assert tuple(a + b for a, b in zip(left, right)) == c
    # swapped by the involution exchanging the fork tips
    assert (left[0], left[1], left[3], left[2]) == right


def _restricted_imaginary_image(n):
    """The restriction of the source imaginary root, in extended target
    coordinates."""
    affine = DynkinType(build_diagram("D", 2 * n, affine=True), source_type(n).contracted)
    return imaginary_restriction(affine)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_imaginary_image_is_consistent(n):
    assert _restricted_imaginary_image(n) == _extended_imaginary(n)
    assert _extended_imaginary(n) == (1, 1) + (2,) * (n - 2) + (1, 1)


@pytest.mark.parametrize("n", [2, 3])
def test_proposition_window(n):
    report = proposition_check(n)
    assert not report.mismatches
    assert report.checked > 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_parity_characterisation(n):
    report = mozgovoy_reineke_check(n)
    assert report.ok
    assert report.parity_roots == report.parity_roots_producing
    assert report.nonparity_producing == 0
    assert report.compounds_covered


def test_run_case_bundles_everything():
    report = run_case(2)
    assert report.ok
    data = report.to_json()
    assert data["ok"] and data["split"]["extra"] == []


def test_rejects_small_n():
    with pytest.raises(ValueError):
        source_type(1)
