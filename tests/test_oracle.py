import pytest

from cdvwall.dynkin import build_diagram, enumerate_roots
from cdvwall.oracle import (
    oracle_affine_restricted_roots,
    oracle_chamber_probe,
    oracle_gcd_check,
    oracle_positive_roots,
    oracle_restricted_roots,
)
from cdvwall.restriction import DynkinType, proper_subsets, restricted_roots


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7)])
def test_length_two_roots_match_reflection_closure(family, rank):
    d = build_diagram(family, rank)
    assert oracle_positive_roots(d) == frozenset(enumerate_roots(d).positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 5)])
def test_restricted_roots_agree_on_all_subsets(family, rank):
    d = build_diagram(family, rank)
    for J in proper_subsets(d):
        dt = DynkinType(d, J)
        assert oracle_restricted_roots(dt) == restricted_roots(dt).values()


def test_restricted_roots_agree_on_e6_sample():
    d = build_diagram("E", 6)
    subsets = list(proper_subsets(d))
    for J in subsets[::7]:
        dt = DynkinType(d, J)
        assert oracle_restricted_roots(dt) == restricted_roots(dt).values()


@pytest.mark.parametrize("family,rank", [("A", 2), ("D", 4), ("E", 6)])
def test_affine_restricted_roots_agree_on_all_subsets(family, rank):
    d = build_diagram(family, rank, affine=True)
    for J in proper_subsets(d):
        dt = DynkinType(d, J)
        assert oracle_affine_restricted_roots(dt, 2) == restricted_roots(dt, 2).values(), \
            sorted(J)


@pytest.mark.parametrize("family,rank", [("A", 6), ("D", 5), ("E", 6)])
def test_gcd_oracle(family, rank):
    d = build_diagram(family, rank)
    for J in list(proper_subsets(d))[::3]:
        assert oracle_gcd_check(DynkinType(d, J))


@pytest.mark.parametrize("family,rank", [("E", 7), ("E", 8), ("D", 8)])
def test_gcd_oracle_full_sweeps(family, rank):
    d = build_diagram(family, rank)
    for J in proper_subsets(d):
        assert oracle_gcd_check(DynkinType(d, J)), (family, rank, sorted(J))


def test_chamber_probe_small_run():
    dt = DynkinType(build_diagram("A", 2, affine=True), frozenset())
    report = oracle_chamber_probe(dt, 400, box=1)
    assert report.ok
    assert report.located > 300


def test_chamber_probe_with_contraction():
    dt = DynkinType(build_diagram("A", 3, affine=True), frozenset({2}))
    report = oracle_chamber_probe(dt, 200, box=1)
    assert report.ok
    assert report.located > 100


def test_chamber_probe_negative_side():
    dt = DynkinType(build_diagram("A", 2, affine=True), frozenset())
    report = oracle_chamber_probe(dt, 300, box=1, sign=-1)
    assert report.ok
    assert report.located > 200


@pytest.mark.parametrize("family,rank,contracted,samples", [
    ("D", 4, {3, 4}, 1000),
    ("D", 4, {0, 1}, 1000),       # rim = (2, 1, 1): sample denominators up to 194
    ("E", 6, {0, 1, 2, 3}, 300),
])
def test_chamber_probe_on_wider_types(family, rank, contracted, samples):
    dt = DynkinType(build_diagram(family, rank, affine=True), frozenset(contracted))
    report = oracle_chamber_probe(dt, samples, box=1)
    assert report.ok, report.mismatches[:3]
    assert report.located >= 0.9 * samples


def test_probe_rejects_wide_types():
    dt = DynkinType(build_diagram("D", 4, affine=True), frozenset())
    with pytest.raises(ValueError):
        oracle_chamber_probe(dt, 10)
