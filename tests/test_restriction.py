import random
import sys
import threading
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdvwall import restriction
from cdvwall.dynkin import (
    DiagramError,
    build_diagram,
    enumerate_roots,
    expanded_window,
    imaginary_root,
)
from cdvwall.oracle import oracle_affine_restricted_roots
from cdvwall.restriction import (
    DynkinType,
    check_gcd_closure,
    classify_value,
    finite_companion_values,
    finite_restricted_values,
    gcd_report,
    imaginary_restriction,
    is_restricted_root,
    proper_subsets,
    restrict,
    restricted_root_sweep,
    restricted_roots,
)
from reference import real_restricted_two_ways


def d5_type():
    return DynkinType(build_diagram("D", 5), frozenset({1, 4, 5}))


def test_contracted_simples_restrict_to_zero():
    dt = d5_type()
    for j in dt.contracted:
        assert restrict(dt, dt.diagram.simple_root(j)) == (0, 0)


def test_highest_root_restriction():
    dt = d5_type()
    assert restrict(dt, enumerate_roots(dt.diagram).highest_root) == (2, 2)


def test_empty_contraction_is_the_identity():
    d = build_diagram("A", 3)
    dt = DynkinType(d, frozenset())
    for r in enumerate_roots(d).positive_roots:
        assert restrict(dt, r) == r


def test_restrict_to_one_kept_node_is_a_one_tuple():
    d = build_diagram("D", 4)
    dt = DynkinType(d, frozenset({1, 3, 4}))
    assert dt.kept == (2,)
    assert restrict(dt, enumerate_roots(d).highest_root) == (2,)
    assert restrict(dt, [0, 1, 0, 0]) == (1,)
    affine = DynkinType(build_diagram("A", 2, affine=True), frozenset({1, 2}))
    assert restrict(affine, (3, 1, 1)) == (3,)


def test_restrict_rejects_wrong_length():
    with pytest.raises(ValueError):
        restrict(d5_type(), (1, 0, 0))


def test_type_must_be_proper():
    d = build_diagram("A", 2)
    with pytest.raises(DiagramError):
        DynkinType(d, frozenset({1, 2}))


def test_kernel_is_exactly_the_contracted_support():
    d = build_diagram("D", 5)
    for J in [frozenset({1}), frozenset({2, 4}), frozenset({1, 4, 5})]:
        dt = DynkinType(d, J)
        for r in enumerate_roots(d).all_roots:
            support = {d.nodes[i] for i, c in enumerate(r) if c != 0}
            assert (all(c == 0 for c in restrict(dt, r))) == (support <= J)


def test_d5_multiplicity_pattern():
    rr = restricted_roots(d5_type())
    by = {e.coeffs: e for e in rr.elements}
    assert by[(2, 2)].mult == 2
    assert (1, 1) in by
    assert by[(1, 1)].mult == 1


def test_type_a_multiplicities_are_trivial():
    d = build_diagram("A", 5)
    for J in proper_subsets(d):
        rr = restricted_roots(DynkinType(d, J))
        assert all(e.mult == 1 for e in rr.elements)


def test_e6_full_restriction_is_the_root_system():
    d = build_diagram("E", 6)
    rr = restricted_roots(DynkinType(d, frozenset()))
    assert len(rr) == 72
    assert all(e.mult == 1 for e in rr.elements)
    assert rr.values() == frozenset(enumerate_roots(d).all_roots)


def test_restricted_sets_are_symmetric():
    for dt in (d5_type(), DynkinType(build_diagram("E", 6), frozenset({1, 3}))):
        values = restricted_roots(dt).values()
        assert values == frozenset(tuple(-c for c in v) for v in values)


def test_signs_are_single_valued():
    # a restricted root's sign is read off its coefficients: a nonzero image
    # can only come from one sign class, since positives summing into the
    # contracted span would restrict to zero.  So its coefficients are all
    # >= 0 or all <= 0, and its witness has their sign.  Checked on every
    # proper subset of every finite ADE type up to rank 8, and of the affine
    # types up to A6~, D6~ and E6~ at window 1 (all affine types up to rank
    # 8 would take about three times as long)
    finite = (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8)))
    affine = (("A", range(1, 7)), ("D", range(4, 7)), ("E", (6,)))
    diagrams = [build_diagram(family, rank, is_affine)
                for types, is_affine in ((finite, False), (affine, True))
                for family, ranks in types for rank in ranks]
    for diagram in diagrams:
        for rr in restricted_root_sweep(diagram, 1 if diagram.affine else None):
            for e in rr.elements:
                sign = 1 if max(e.coeffs) > 0 else -1
                assert all(sign * c >= 0 for c in e.coeffs), e
                assert all(sign * c >= 0 for c in e.witness), e
                assert e.to_json()["signs"] == ["+" if sign > 0 else "-"]


def test_witnesses_restrict_back():
    dt = d5_type()
    for e in restricted_roots(dt).elements:
        assert restrict(dt, e.witness) == e.coeffs


@pytest.mark.parametrize("family,rank", [("A", 5), ("D", 5), ("D", 6)])
def test_gcd_closure_sweep(family, rank):
    d = build_diagram(family, rank)
    for J in proper_subsets(d):
        report = check_gcd_closure(DynkinType(d, J))
        assert report.ok, (J, report.violations)


def test_gcd_closure_affine():
    da = build_diagram("D", 4, affine=True)
    for J in proper_subsets(da):
        report = check_gcd_closure(DynkinType(da, J), 3)
        assert report.ok, (J, report.violations)


def test_finite_gcd_report_builds_each_set_once(monkeypatch):
    # membership comes from the set being checked, not from a second build
    restriction.finite_restricted_values.cache_clear()
    calls = []
    build = restriction.restricted_roots
    monkeypatch.setattr(restriction, "restricted_roots",
                        lambda *args: calls.append(args) or build(*args))
    diagram = build_diagram("E", 6)
    for J in proper_subsets(diagram):
        assert check_gcd_closure(DynkinType(diagram, J)).ok
    assert len(calls) == 2 ** 6 - 1


def _set_by_definition(diagram, J, k_max) -> dict:
    """A restricted-root set's to_json() from the definition: restrict
    every scanned root (r, then -r, for each positive root of a finite
    diagram; the level window of an affine one), keep the first preimage of
    each nonzero image as its witness and unite the sign classes of its
    preimages.  An affine set adds k * pi(r_im), 0 < |k| <= k_max, and the
    multiples of pi(r_im) are its imaginary elements."""
    keep = [diagram.index[n] for n in diagram.nodes if n not in J]
    if diagram.affine:
        scanned = list(expanded_window(diagram, k_max))
        rim = imaginary_root(diagram)
        extra = [tuple(s * k * c for c in rim) for k in range(1, k_max + 1) for s in (1, -1)]
    else:
        scanned = [v for r in enumerate_roots(diagram).positive_roots
                   for v in (r, tuple(-c for c in r))]
        extra = []
    images: dict = {}
    for root in scanned + extra:
        image = tuple(root[j] for j in keep)
        if any(image):
            sign = "+" if all(c >= 0 for c in root) else "-"
            images.setdefault(image, (root, set()))[1].add(sign)

    def reality(image):
        if not diagram.affine:
            return None
        rim_bar = tuple(rim[j] for j in keep)
        m = image[0] // rim_bar[0]
        return "imaginary" if image == tuple(m * c for c in rim_bar) else "real"

    return {
        "type": {"family": diagram.family, "rank": diagram.rank, "affine": diagram.affine,
                 "contracted": sorted(J)},
        "window": k_max if diagram.affine else None,
        "elements": [{"coeffs": list(image), "mult": gcd(*image), "witness": list(root),
                      "signs": sorted(signs), "reality": reality(image)}
                     for image, (root, signs) in sorted(images.items())],
    }


@pytest.mark.parametrize("family,rank,affine,k_max", [
    ("E", 6, True, 3), ("D", 6, True, 2), ("A", 3, True, 1), ("E", 8, False, None),
])
def test_sweep_equals_direct_builds(family, rank, affine, k_max):
    # the swept sets, and the direct builds, agree with the definition on
    # every field, witness, signs, reality and mult included, and the sweep
    # runs in proper_subsets order
    diagram = build_diagram(family, rank, affine)
    subsets = list(proper_subsets(diagram))
    swept = list(restricted_root_sweep(diagram, k_max))
    assert [rr.dynkin_type.contracted for rr in swept] == subsets
    for rr, J in zip(swept, subsets):
        want = _set_by_definition(diagram, J, k_max)
        assert rr.to_json() == want, J
        assert restricted_roots(DynkinType(diagram, J), k_max).to_json() == want, J


def test_builds_in_any_order_equal_the_definition():
    # a single build holds no state between calls: every subset of D5~ at
    # k = 2, of finite E6 and of D5~ at k = 1, in one seeded shuffle
    d5a, e6 = build_diagram("D", 5, affine=True), build_diagram("E", 6)
    cases = [(diagram, J, k_max) for diagram, k_max in ((d5a, 2), (e6, None), (d5a, 1))
             for J in proper_subsets(diagram)]
    random.Random(16).shuffle(cases)
    for diagram, J, k_max in cases:
        want = _set_by_definition(diagram, J, k_max)
        assert restricted_roots(DynkinType(diagram, J), k_max).to_json() == want, (J, k_max)


def test_two_threads_build_every_subset_in_opposite_orders():
    # no build shares mutable state with another: two threads build every
    # subset of D5~ at k = 2, one in proper_subsets order and one in
    # reverse, switching as often as the interpreter allows
    diagram = build_diagram("D", 5, affine=True)
    subsets = list(proper_subsets(diagram))
    built = {}

    def build(order, key):
        built[key] = {J: restricted_roots(DynkinType(diagram, J), 2).to_json() for J in order}

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(order, key))
                   for key, order in (("up", subsets), ("down", subsets[::-1]))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert sorted(built) == ["down", "up"]
    for J in subsets:
        want = _set_by_definition(diagram, J, 2)
        assert built["up"][J] == built["down"][J] == want, J


def _count_drops(monkeypatch) -> list:
    """Record the width of every projection pass from here on."""
    passes = []
    project = restriction._project
    monkeypatch.setattr(restriction, "_project",
                        lambda entries, take, width: passes.append(width)
                        or project(entries, take, width))
    return passes


@pytest.mark.parametrize("family,rank,affine,k_max", [("E", 7, True, 3), ("E", 8, False, None)])
def test_a_sweep_drops_one_coordinate_per_subset(monkeypatch, family, rank, affine, k_max):
    drops = _count_drops(monkeypatch)
    diagram = build_diagram(family, rank, affine)
    n = len(diagram.nodes)
    for _ in restricted_root_sweep(diagram, k_max):
        pass
    assert len(drops) == 2 ** n - 2
    # each drop leaves the kept coordinates of its subset
    assert drops == [n - bin(mask).count("1") for mask in range(1, 2 ** n - 1)]


@pytest.mark.parametrize("family,rank,affine,k_max", [("E", 7, True, 3), ("D", 5, False, None)])
def test_a_single_build_projects_once(monkeypatch, family, rank, affine, k_max):
    # one pass over the scan per build, none for the empty subset, whose
    # entries are the scan itself
    passes = _count_drops(monkeypatch)
    diagram = build_diagram(family, rank, affine)
    for J in proper_subsets(diagram):
        passes.clear()
        dt = DynkinType(diagram, J)
        restricted_roots(dt, k_max)
        assert passes == ([len(dt.kept)] if J else []), J


def test_a_two_way_sweep_projects_once_per_set(monkeypatch):
    # criterion 3's loop on E6~: one drop per affine subset in the sweep and
    # one pass per proper subset of the finite companion
    drops = _count_drops(monkeypatch)
    restriction.finite_restricted_values.cache_clear()
    restriction.finite_companion_values.cache_clear()
    diagram = build_diagram("E", 6, affine=True)
    for rr in restricted_root_sweep(diagram, 3):
        assert real_restricted_two_ways(rr).equal, rr.dynkin_type
    assert len(drops) == (2 ** 7 - 2) + (2 ** 6 - 2)


@pytest.mark.parametrize("family,rank", [("E", 6), ("D", 5)])
def test_finite_values_are_the_set_values(family, rank):
    diagram = build_diagram(family, rank)
    for J in proper_subsets(diagram):
        dt = DynkinType(diagram, J)
        assert finite_restricted_values(dt) == restricted_roots(dt).values(), J


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_direct_real_set_is_the_real_elements(family, rank):
    diagram = build_diagram(family, rank, affine=True)
    for J in proper_subsets(diagram):
        dt = DynkinType(diagram, J)
        real = {e.coeffs for e in restricted_roots(dt, 3).elements if e.reality == "real"}
        assert real_restricted_two_ways(dt, 3).set_direct == real, J


def test_coefficient_readers_build_no_records(monkeypatch):
    def refuse(*args):
        raise AssertionError("a RestrictedRoot was built")

    monkeypatch.setattr(restriction, "RestrictedRoot", refuse)
    restriction.finite_restricted_values.cache_clear()
    restriction.finite_companion_values.cache_clear()
    diagram = build_diagram("D", 4, affine=True)
    for J in proper_subsets(diagram):
        dt = DynkinType(diagram, J)
        assert restricted_roots(dt).values() and len(restricted_roots(dt)), J
        finite_companion_values(dt)
    assert finite_restricted_values(DynkinType(build_diagram("E", 6), frozenset({2})))
    # a check-gcd sweep reads the scan entries, affine and finite
    for diagram, k_max in ((build_diagram("E", 7, affine=True), 3), (build_diagram("E", 8), None)):
        assert all(gcd_report(rr).ok for rr in restricted_root_sweep(diagram, k_max))


@pytest.mark.parametrize("family,rank,affine", [("E", 6, True), ("D", 5, True), ("E", 7, False)])
def test_gcd_report_counts_the_records(family, rank, affine):
    diagram = build_diagram(family, rank, affine)
    for rr in restricted_root_sweep(diagram, 3 if affine else None):
        report = gcd_report(rr)
        assert report.n_elements == len(rr.elements) == len(rr), rr.dynkin_type
        assert report.n_nontrivial == sum(e.mult > 1 for e in rr.elements), rr.dynkin_type


def test_gcd_report_lists_planted_violations_in_record_order(monkeypatch):
    # refuse every fraction with an odd first coordinate; the report must
    # list exactly the refused fractions, in the order of a walk over the
    # sorted records, though the entries are in scan order
    classify = restriction.classify_value

    def planted(dtype, v):
        return None if v[0] % 2 else classify(dtype, v)

    monkeypatch.setattr(restriction, "classify_value", planted)
    diagram = build_diagram("E", 6, affine=True)
    scan_ordered = 0
    for rr in restricted_root_sweep(diagram, 3):
        want = [(e.coeffs, e.mult, m) for e in rr.elements if e.mult > 1
                for m in range(1, e.mult)
                if planted(rr.dynkin_type, tuple(m * c // e.mult for c in e.coeffs)) is None]
        assert list(gcd_report(rr).violations) == want, rr.dynkin_type
        refused = {v[0] for v in want}
        in_scan_order = [c for c in rr.entries if c in refused]
        scan_ordered += in_scan_order != sorted(in_scan_order)
    assert scan_ordered > 0


def _drop(entries: dict, j: int) -> dict:
    """_project dropping position j, as a sweep does."""
    width = len(next(iter(entries)))
    return restriction._project(
        entries, restriction._taker(tuple(i for i in range(width) if i != j)), width - 1)


def test_dropping_a_coordinate_keeps_the_first_witness():
    parent = {(1, 2): "first", (0, 0): "zero", (-1, 2): "second", (3, 0): "x"}
    assert _drop(parent, 0) == {(2,): "first"}
    assert list(_drop(parent, 1)) == [(1,), (-1,), (3,)]


def _drop_by_loop(entries: dict, j: int) -> dict:
    child = {}
    for rbar, witness in entries.items():
        c = rbar[:j] + rbar[j + 1:]
        if c not in child and any(c):
            child[c] = witness
    return child


@st.composite
def _entries_and_position(draw):
    width = draw(st.integers(2, 5))
    keys = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * width), min_size=1, max_size=40,
                         unique=True))
    return {key: (i, key) for i, key in enumerate(keys)}, draw(st.integers(0, width - 1))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_entries_and_position())
def test_dropping_a_coordinate_matches_a_loop(case):
    # same keys in the same order, the first witness of each, no zero vector;
    # width 2 gives children of one coordinate
    entries, j = case
    child = _drop(entries, j)
    assert list(child.items()) == list(_drop_by_loop(entries, j).items())
    assert all(any(c) for c in child)


def test_sweep_checks_its_window():
    with pytest.raises(ValueError):
        next(restricted_root_sweep(build_diagram("D", 4), 2))
    with pytest.raises(ValueError):
        next(restricted_root_sweep(build_diagram("D", 4, affine=True), -1))


def test_a_window_reads_at_most_one_imaginary_root_more():
    # a real root r + k * r_im with |k| <= window reads at most
    # (window + 1) * r_im at every node, since |r_i| <= r_im_i, so the
    # imaginary line that annotates a set's records stops at window + 1;
    # the bound is attained
    diagrams = [build_diagram(family, rank, affine=True)
                for family, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8)))
                for rank in ranks]
    for diagram in diagrams:
        rim = imaginary_root(diagram)
        for window in range(5):
            excess = {abs(c) - (window + 1) * h
                      for root in expanded_window(diagram, window) for c, h in zip(root, rim)}
            assert max(excess) == 0, (diagram.family, diagram.rank, window)


def test_imaginary_restriction_never_zero():
    for family, rank in [("A", 3), ("D", 4), ("E", 6)]:
        da = build_diagram(family, rank, affine=True)
        for J in proper_subsets(da):
            rim = imaginary_restriction(DynkinType(da, J))
            assert any(c != 0 for c in rim)


@pytest.mark.parametrize("family,rank", [("A", 1), ("A", 3), ("D", 4), ("D", 5)])
def test_two_way_real_restricted_roots(family, rank):
    da = build_diagram(family, rank, affine=True)
    for J in proper_subsets(da):
        report = real_restricted_two_ways(DynkinType(da, J), 3)
        assert report.equal, (family, rank, sorted(J))


def test_two_way_excludes_highest_when_zero_contracted():
    da = build_diagram("A", 2, affine=True)
    dt = DynkinType(da, frozenset({0}))
    report = real_restricted_two_ways(dt, 3)
    assert report.excluded_highest and report.equal
    # with node 0 contracted the highest root restricts onto the imaginary
    # line, so its value lives outside the real sets entirely
    high = restrict(dt, (0,) + enumerate_roots(da.finite_part()).highest_root)
    assert high == imaginary_restriction(dt)
    assert high not in report.set_direct and high not in report.set_translated


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6)])
def test_finite_companion_values_are_the_level_zero_roots(family, rank):
    # the level-0 window holds the finite roots and no imaginary multiple,
    # projected onto the affine type's own kept coordinates; the subsets
    # cover node 0 kept, node 0 contracted, and node 0 the only kept node
    diagram = build_diagram(family, rank, affine=True)
    for J in proper_subsets(diagram):
        dt = DynkinType(diagram, J)
        assert finite_companion_values(dt) == oracle_affine_restricted_roots(dt, 0), J


def test_exact_membership_agrees_with_windowed_enumeration():
    da = build_diagram("D", 4, affine=True)
    for J in [frozenset(), frozenset({0}), frozenset({1, 3}), frozenset({0, 2})]:
        dt = DynkinType(da, J)
        window = restricted_roots(dt, 2)
        for e in window.elements:
            hit = classify_value(dt, e.coeffs)
            assert hit is not None, (J, e.coeffs)
            assert (hit == "imaginary") == (e.reality == "imaginary")
        assert not is_restricted_root(dt, tuple(7 if i == 0 else 1 for i in range(len(dt.kept))))


@pytest.mark.parametrize("family,rank,subset", [
    ("A", 2, frozenset()), ("A", 2, frozenset({0})), ("A", 3, frozenset({1, 3})),
    ("D", 4, frozenset({2})), ("D", 4, frozenset({0, 1, 3, 4})),
    ("E", 6, frozenset({0})), ("E", 6, frozenset({0, 3})),
])
def test_exact_membership_equals_conclusive_window(family, rank, subset):
    # for a vector with coordinates bounded by B, membership is decided by
    # a window whose level bound exceeds B plus the largest root
    # coefficient, so the windowed enumeration is conclusive and must agree
    # with the windowless classifier on every vector in the box
    import itertools

    diagram = build_diagram(family, rank, affine=True)
    dt = DynkinType(diagram, subset)
    box = 2 if family == "E" else 3   # 5^6 vectors on E6~ {0} already
    high = enumerate_roots(diagram.finite_part()).highest_root
    window = box + max(high) + 1
    values = restricted_roots(dt, window).values()
    m = len(dt.kept)
    for v in itertools.product(range(-box, box + 1), repeat=m):
        if all(c == 0 for c in v):
            continue
        assert (classify_value(dt, v) is not None) == (v in values), (subset, v)


def test_restricted_root_set_json():
    data = restricted_roots(d5_type()).to_json()
    entry = next(e for e in data["elements"] if e["coeffs"] == [2, 2])
    assert entry["mult"] == 2
    assert len(entry["witness"]) == 5
