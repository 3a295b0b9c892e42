from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

import pytest

from cdvwall.arrangement import ChamberGraph, GeometryError, locate_by_walk
from cdvwall.dynkin import build_diagram, enumerate_roots, imaginary_root
from cdvwall.linalg import eliminate, primitive
from cdvwall.oracle import (
    _cone_rows,
    _inside,
    _sample_points,
    oracle_affine_restricted_roots,
    oracle_chamber_probe,
    oracle_delta,
    oracle_gcd_check,
    oracle_positive_roots,
    oracle_restricted_roots,
    sign_vector,
)
from cdvwall.restriction import DynkinType, proper_subsets, restricted_roots
from reference import neighbors


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 4), ("D", 6), ("E", 6), ("E", 7)])
def test_length_two_roots_match_reflection_closure(family, rank):
    d = build_diagram(family, rank)
    assert oracle_positive_roots(d) == frozenset(enumerate_roots(d).positive_roots)


@pytest.mark.parametrize("family,rank", [("A", n) for n in range(1, 9)]
                         + [("D", n) for n in range(4, 9)] + [("E", n) for n in (6, 7, 8)])
def test_oracle_delta_is_the_imaginary_root(family, rank):
    d = build_diagram(family, rank, affine=True)
    delta = oracle_delta(d)
    assert all(sum(a * c for a, c in zip(row, delta)) == 0 for row in d.cartan)
    assert delta == imaginary_root(d)


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


def _fraction_samples(dtype, count, box, level, denominator=97):
    """The probe's rational samples, defined with Fractions: the reference
    the integer generator is checked against."""
    delta = oracle_delta(dtype.diagram)
    rim = [delta[dtype.diagram.index[n]] for n in dtype.kept]
    span = 2 * box * denominator
    state = 123456789
    for _ in range(count):
        coords = []
        for _ in range(len(dtype.kept)):
            state = (state * 6364136223846793005 + 1442695040888963407) % (2 ** 63)
            coords.append(Fraction((state % span) - span // 2, denominator))
        rest = sum(c * r for c, r in zip(coords[1:], rim[1:]))
        coords[0] = Fraction(level - rest, rim[0])
        yield tuple(coords)


@pytest.mark.parametrize("family,rank,contracted", [
    ("A", 2, ()),
    ("A", 3, (2,)),
    ("D", 4, (0, 1)),             # rim = (2, 1, 1): sample denominators up to 194
])
@pytest.mark.parametrize("box", [1, 2])
@pytest.mark.parametrize("level", [1])   # the probe samples the positive side only
def test_integer_samples_are_the_scaled_fraction_samples(family, rank, contracted, box, level):
    dt = DynkinType(build_diagram(family, rank, affine=True), frozenset(contracted))
    expected = []
    for sample in _fraction_samples(dt, 300, box, level):
        scale = lcm(*(c.denominator for c in sample))
        expected.append(tuple(int(c * scale) for c in sample))
    assert list(_sample_points(dt, 300, box)) == expected


def _solve_contains(chamber, point):
    """Strict cone membership by solving for the ray coefficients
    adj . point / det, by elimination: all are positive exactly when
    sign(det) . adj . point is."""
    rays = chamber.rays
    m = len(rays)
    matrix = tuple(tuple(rays[j][i] for j in range(m)) for i in range(m))
    d, adj = eliminate(matrix, tuple((x,) for x in point))
    return d != 0 and all(d * c > 0 for (c,) in adj)


@pytest.mark.parametrize("family,rank,contracted", [("A", 2, ()), ("D", 4, (3, 4))])
def test_containment_is_the_solve_verdict(family, rank, contracted):
    # on every walked sample of a 400-sample probe, for the located chamber
    # and each of its neighbours; no neighbour holds the located chamber's
    # interior point, nor the located chamber a neighbour's
    dt = DynkinType(build_diagram(family, rank, affine=True), frozenset(contracted))
    graph = ChamberGraph(dt)
    neighbours = {}
    walked = 0
    for point in _sample_points(dt, 400, 1):
        try:
            chamber = locate_by_walk(graph, point)
        except GeometryError:
            continue
        walked += 1
        key = chamber.key()
        if key not in neighbours:
            neighbours[key] = [graph.chambers[e[0]] for e in neighbors(graph, chamber).values()
                               if e is not None]
            rows = _cone_rows(chamber)
            assert _inside(rows, chamber.interior)
            for other in neighbours[key]:
                assert not _inside(rows, other.interior)
                assert not _inside(_cone_rows(other), chamber.interior)
        for c in (chamber, *neighbours[key]):
            assert _inside(_cone_rows(c), point) == _solve_contains(c, point)
    assert walked > 300 and len(neighbours) > 5


def _crossing_parameters(start, end, normals) -> list:
    """The parameters t in (0, 1) at which the segment from start to end
    crosses the walls of the normals, one per wall it crosses."""
    ts = []
    for normal in normals:
        v0, v1 = sum(map(mul, start, normal)), sum(map(mul, end, normal))
        if v0 * v1 < 0:
            ts.append(Fraction(v0, v0 - v1))
    return ts


@pytest.mark.parametrize("family,rank,contracted,point,on_wall", [
    ("A", 2, (), (-5, 4, 4), False), ("A", 2, (), (-2, -2, 7), False),
    ("D", 4, (3, 4), (-1, -1, 3), False),
    ("A", 2, (), (-3, 2, 2), True), ("A", 2, (), (-1, -1, 3), True),
    ("D", 4, (3, 4), (-2, -2, 3), True)])
def test_walk_through_a_codimension_two_face(family, rank, contracted, point, on_wall):
    """The segment from the base chamber's interior point meets two walls at
    one point before its end.  The walk crosses them in turn and ends in the
    chamber holding the point, or, for a point on a wall, reports the wall."""
    dt = DynkinType(build_diagram(family, rank, affine=True), frozenset(contracted))
    normals = sorted({primitive(r) for r in oracle_affine_restricted_roots(dt, 8)})
    graph = ChamberGraph(dt)
    ts = _crossing_parameters(graph.chambers[graph.base_key].interior, point, normals)
    assert len(set(ts)) < len(ts)
    assert (0 in sign_vector(point, normals)) == on_wall
    if on_wall:
        with pytest.raises(GeometryError, match="point lies on a wall of the current chamber"):
            locate_by_walk(graph, point)
    else:
        assert _inside(_cone_rows(locate_by_walk(graph, point)), point)


def _per_normal_signs(point, normals):
    out = []
    for normal in normals:
        v = sum(p * c for p, c in zip(point, normal))
        out.append(0 if v == 0 else (1 if v > 0 else -1))
    return tuple(out)


@pytest.mark.parametrize("family,rank,contracted", [("A", 2, ()), ("D", 4, (3, 4))])
def test_sign_vector_is_the_per_normal_sign(family, rank, contracted):
    dt = DynkinType(build_diagram(family, rank, affine=True), frozenset(contracted))
    normals = sorted({primitive(r) for r in oracle_affine_restricted_roots(dt, 8)})
    # small lattice points lie on many walls, samples on none
    points = list(product(range(-3, 4), repeat=len(dt.kept)))
    points += list(_sample_points(dt, 200, 1))
    zeros = 0
    for point in points:
        signs = sign_vector(point, normals)
        assert signs == _per_normal_signs(point, normals)
        zeros += signs.count(0)
    assert zeros > 0
