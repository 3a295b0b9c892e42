"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its stated tolerance (exact everywhere) and runtime budget."""

import random
import time

import pytest

from cdvwall.arrangement import (
    ChamberGraph,
    GeometryError,
    chamber_from_label,
    gallery_through_wall,
)
from cdvwall.bps import SymmetryConfig, orbit_partition
from cdvwall.cli import main as cli_main
from cdvwall.dihedral import classify_restricted, mozgovoy_reineke_check, target_diagram
from cdvwall.dynkin import build_diagram, enumerate_roots, root_count_formula
from cdvwall.groupoid import compose, induced_root_map
from cdvwall.linalg import is_colinear, mat_vec, primitive
from cdvwall.restriction import (
    DynkinType,
    classify_value,
    imaginary_restriction,
    restrict,
    restricted_root_sweep,
    restricted_roots,
)
from reference import (
    minimal_gallery,
    neighbors,
    real_restricted_two_ways,
    separating_hyperplanes,
    verdict_constant_on_orbits,
)

GROUPOID_TYPES = [
    ("A2~ empty", DynkinType(build_diagram("A", 2, affine=True), frozenset())),
    ("D4~ pair", DynkinType(build_diagram("D", 4, affine=True), frozenset({3, 4}))),
    ("A3~ single", DynkinType(build_diagram("A", 3, affine=True), frozenset({2}))),
]


def test_criterion_1_gcd_closure_reproduction(capsys):
    start = time.time()
    for rank in (6, 7, 8):
        code = cli_main(["check-gcd", "--family", "E", "--rank", str(rank),
                         "--format", "text"])
        out = capsys.readouterr().out
        assert code == 0, f"E{rank} sweep exited {code}"
        assert out.strip() == "0 violations"
    elapsed = time.time() - start
    assert elapsed < 60, f"E-type sweep took {elapsed:.1f}s"
    print(f"criterion 1 PASS: all E6/E7/E8 subsets report 0 violations [{elapsed:.1f}s]")


def test_criterion_2_root_count_oracle():
    start = time.time()
    cases = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + \
        [("E", n) for n in (6, 7, 8)]
    for family, rank in cases:
        rts = enumerate_roots(build_diagram(family, rank))
        assert len(rts.positive_roots) == root_count_formula(family, rank)
    elapsed = time.time() - start
    assert elapsed < 5, f"root enumeration took {elapsed:.1f}s"
    print(f"criterion 2 PASS: {len(cases)} positive-root counts exact [{elapsed:.1f}s]")


def test_criterion_3_real_restricted_lemma_sweep():
    start = time.time()
    cases = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + \
        [("E", n) for n in (6, 7, 8)]
    total = 0
    for family, rank in cases:
        diagram = build_diagram(family, rank, affine=True)
        for rr in restricted_root_sweep(diagram, 3):
            report = real_restricted_two_ways(rr)
            assert report.equal, (family, rank, sorted(rr.dynkin_type.contracted))
            total += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"lemma sweep took {elapsed:.1f}s"
    print(f"criterion 3 PASS: two-way real restricted roots equal on {total} "
          f"affine types [{elapsed:.1f}s]")


def test_criterion_4_dihedral_suite():
    start = time.time()
    for n in (2, 3, 4, 5):
        split = classify_restricted(n)
        assert split.ok, f"n={n}: split not exact"
        roots = frozenset(enumerate_roots(target_diagram(n)).all_roots)
        assert split.root_part == roots
        assert len(split.compound_part) == 2 * (n - 1)
        parity = mozgovoy_reineke_check(n)
        assert parity.ok, f"n={n}: parity characterisation failed"
    elapsed = time.time() - start
    assert elapsed < 30, f"dihedral suite took {elapsed:.1f}s"
    print(f"criterion 4 PASS: dihedral split and parity checks exact for n=2..5 "
          f"[{elapsed:.1f}s]")


@pytest.mark.parametrize("name,dtype", GROUPOID_TYPES)
def test_criterion_5_groupoid_geometry_agreement(name, dtype):
    start = time.time()
    graph = ChamberGraph(dtype)
    chambers, edges = graph.bfs(6)  # every crossing is facet-verified
    keys = {c.key(): c for c in chambers}

    # every mutation path of length <= 6 stays inside the verified ball:
    # walk all paths, following the (deterministic) labels, and require the
    # geometric edge map to agree at each step
    edge_map = {}
    for c in chambers:
        edge_map[c.key()] = {}
        for k, edge in neighbors(graph, c).items():
            assert edge is not None, "sign crossing inside a groupoid component"
            edge_map[c.key()][c.kept_of_subset[k]] = edge[0]

    base = graph.chambers[graph.base_key]
    paths = 0
    frontier = [(base.key(), ())]
    for _ in range(6):
        nxt = []
        for key, path in frontier:
            chamber = keys[key]
            for node in chamber.kept_of_subset:
                target_key = edge_map[key][node]
                new_path = path + (node,)
                arrow = compose(dtype, new_path)
                label_chamber = chamber_from_label(
                    dtype, arrow.weyl, arrow.target_subset)
                assert label_chamber.key() == target_key, (name, new_path)
                nxt.append((target_key, new_path))
                paths += 1
        frontier = nxt

    # induced root maps: unimodular (construction checks this) and mapping
    # restricted roots to restricted roots in both directions; one arrow per
    # distinct reachable label, via BFS parents
    checked_arrows = 0
    parents = {base.key(): ()}
    order = [base.key()]
    for key in order:
        for node, target_key in edge_map[key].items():
            if target_key in keys and target_key not in parents:
                parents[target_key] = parents[key] + (node,)
                order.append(target_key)
    for key in order:
        arrow = compose(dtype, parents[key])
        rmap = induced_root_map(arrow)  # raises unless unimodular
        target = DynkinType(dtype.diagram, arrow.target_subset)
        for v in restricted_roots(target, 3).values():
            assert classify_value(dtype, mat_vec(rmap.matrix, v)) is not None
        for v in restricted_roots(dtype, 3).values():
            assert classify_value(target, mat_vec(rmap.inverse, v)) is not None
        checked_arrows += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"{name} agreement took {elapsed:.1f}s"
    print(f"criterion 5 PASS [{name}]: {paths} paths agree geometrically, "
          f"{checked_arrows} induced maps bijective [{elapsed:.1f}s]")


@pytest.mark.parametrize("name,dtype", GROUPOID_TYPES)
def test_criterion_6_gallery_minimality(name, dtype):
    start = time.time()
    graph = ChamberGraph(dtype)
    chambers, _ = graph.bfs(6)
    rng = random.Random(20240601)
    pairs = [rng.sample(chambers, 2) for _ in range(100)]
    for a, b in pairs:
        gallery = minimal_gallery(graph, a, b)
        separating = separating_hyperplanes(dtype, a, b)
        assert gallery.length == len(separating)
        assert len(set(gallery.walls)) == gallery.length
        assert set(gallery.walls) == separating

    rim = imaginary_restriction(dtype)
    demos = 0
    for node in dtype.kept:
        alpha = restrict(dtype, dtype.diagram.simple_root(node))
        for element in restricted_roots(dtype, 1).elements:
            rbar = element.coeffs
            if any(c < 0 for c in rbar):
                continue
            if is_colinear(rbar, alpha) or is_colinear(rbar, rim):
                continue
            try:
                gallery = gallery_through_wall(graph, node, rbar)
            except GeometryError as err:
                assert "cone" in str(err), (name, node, rbar, str(err))
                continue
            assert gallery.walls[0].normal == primitive(alpha)
            assert gallery.walls[-1].normal == primitive(rbar)
            assert len(set(gallery.walls)) == gallery.length
            demos += 1
    assert demos >= 10
    elapsed = time.time() - start
    print(f"criterion 6 PASS [{name}]: 100 pair galleries minimal and distinct, "
          f"{demos} through-wall galleries labelled correctly [{elapsed:.1f}s]")


def test_criterion_7_verdict_symmetry_constancy():
    start = time.time()
    dtype = DynkinType(build_diagram("D", 4), frozenset())
    config = SymmetryConfig(
        rigidified=True,
        weighted_homogeneous=True,
        non_flop_nodes=frozenset({1, 2, 3, 4}),
        chi_max=6,
        beta_max=3,
    )
    partition = orbit_partition(dtype, config)
    certs = list(partition.certificates())
    ok, offenders = verdict_constant_on_orbits(dtype, partition)
    assert ok, f"mixed orbits: {offenders[:3]}"
    assert certs
    for _, _, cert in certs:
        assert cert.rule.startswith("symmetry:")
        if cert.rule == "symmetry:motivic-duality":
            assert "n" in dict(cert.params)
    n_classes = sum(len(o) for o in partition.orbits)
    elapsed = time.time() - start
    print(f"criterion 7 PASS: forced-zero constant on {len(partition.orbits)} orbits "
          f"({n_classes} classes, {len(certs)} certificates) [{elapsed:.1f}s]")


def test_criterion_8_selftest(capsys):
    start = time.time()
    code = cli_main(["selftest"])
    out = capsys.readouterr().out
    elapsed = time.time() - start
    assert code == 0, out
    assert "selftest PASS: 0 failures" in out
    assert "0 mismatches" in out
    # recorded before the probe ran in plain integers: the same samples
    # locate to the same chambers
    assert ("[ok] chamber probe A2 affine: 9713 located, 287 skipped, 0 mismatches"
            in out.splitlines())
    assert elapsed < 30, f"selftest took {elapsed:.1f}s"
    print(f"criterion 8 PASS: oracle selftest clean [{elapsed:.1f}s]")
