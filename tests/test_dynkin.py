import pytest

from cdvwall.arrangement import Chamber, Gallery, Hyperplane, fundamental_chamber
from cdvwall.bps import ClassGenerator
from cdvwall.dynkin import (
    Diagram,
    DiagramError,
    build_diagram,
    enumerate_roots,
    expanded_window,
    imaginary_root,
    reflect,
    root_count_formula,
)
from cdvwall.oracle import oracle_positive_roots
from cdvwall.restriction import DynkinType, restricted_roots
from cdvwall.weyl import WeylElement

ALL_FINITE = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + \
    [("E", n) for n in (6, 7, 8)]


def test_a3_is_a_path():
    d = build_diagram("A", 3)
    assert len(d.nodes) == 3 and len(d.edges) == 2
    assert max(d.degrees().values()) == 2


def test_affine_d4_is_a_star():
    d = build_diagram("D", 4, affine=True)
    assert len(d.nodes) == 5
    deg = d.degrees()
    assert sorted(deg.values()) == [1, 1, 1, 1, 4]
    assert deg[2] == 4


def test_affine_e8_extends_the_long_arm():
    d = build_diagram("E", 8, affine=True)
    assert len(d.nodes) == 9
    deg = d.degrees()
    # one trivalent node, the extended vertex hangs off a chain end
    assert sorted(v for v in deg.values() if v == 3) == [3]
    assert deg[0] == 1 and (0, 1) in d.edges
    # arms of the trivalent node have sizes 5, 2, 1
    assert deg[5] == 3


def test_affine_e7_is_the_symmetric_extension():
    d = build_diagram("E", 7, affine=True)
    deg = d.degrees()
    assert deg[0] == 1 and (0, 1) in d.edges
    # arms from the branch node now have sizes 3, 3, 1
    assert deg[3] == 3


@pytest.mark.parametrize("family,rank", ALL_FINITE)
def test_positive_root_counts(family, rank):
    rts = enumerate_roots(build_diagram(family, rank))
    assert len(rts.positive_roots) == root_count_formula(family, rank)


def test_a2_positive_roots_frozen():
    rts = enumerate_roots(build_diagram("A", 2))
    assert set(rts.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_d5_highest_root():
    rts = enumerate_roots(build_diagram("D", 5))
    assert len(rts.positive_roots) == 20
    assert rts.highest_root == (1, 2, 2, 1, 1)


@pytest.mark.parametrize("family,rank", [("A", 4), ("D", 5), ("E", 6)])
def test_roots_closed_under_simple_reflections(family, rank):
    d = build_diagram(family, rank)
    rts = enumerate_roots(d)
    roots = set(rts.all_roots)
    for r in roots:
        for n in d.nodes:
            assert reflect(d, r, n) in roots


@pytest.mark.parametrize("family,rank", [("A", 3), ("D", 4), ("E", 6), ("E", 8)])
def test_enumeration_matches_length_two_oracle(family, rank):
    d = build_diagram(family, rank)
    assert frozenset(enumerate_roots(d).positive_roots) == oracle_positive_roots(d)


@pytest.mark.parametrize("family,rank", ALL_FINITE)
def test_highest_root_dominates(family, rank):
    rts = enumerate_roots(build_diagram(family, rank))
    high = rts.highest_root
    for r in rts.positive_roots:
        assert all(h - c >= 0 for h, c in zip(high, r))


def test_imaginary_roots():
    assert imaginary_root(build_diagram("A", 1, affine=True)) == (1, 1)
    rim = imaginary_root(build_diagram("D", 4, affine=True))
    assert rim == (1, 1, 2, 1, 1)
    rim6 = imaginary_root(build_diagram("E", 6, affine=True))
    assert rim6[0] == 1 and sum(rim6) == 12


def test_imaginary_root_is_alpha0_plus_highest():
    for family, rank in [("A", 3), ("D", 5), ("E", 7)]:
        da = build_diagram(family, rank, affine=True)
        rim = imaginary_root(da)
        fin = da.finite_part()
        high = enumerate_roots(fin).highest_root
        assert rim[0] == 1
        assert tuple(rim[da.index[n]] for n in fin.nodes) == high


def _window_by_definition(d, k_max):
    """The real affine roots r + k * r_im, |k| <= k_max, as (full, level,
    finite part) triples: levels upward from -k_max, and within a level the
    finite part's all_roots, each lifted by its node labels."""
    rim = dict(zip(d.nodes, imaginary_root(d)))
    fin = d.finite_part()
    out = []
    for k in range(-k_max, k_max + 1):
        for r in enumerate_roots(fin).all_roots:
            lifted = dict(zip(fin.nodes, r))
            out.append((tuple(lifted.get(n, 0) + k * rim[n] for n in d.nodes), k, r))
    return out


def test_real_root_windows():
    a1 = build_diagram("A", 1, affine=True)
    assert len(expanded_window(a1, 0)) == 2
    assert len(expanded_window(a1, 1)) == 6
    d4 = build_diagram("D", 4, affine=True)
    assert len(expanded_window(d4, 2)) == 120
    window = expanded_window(d4, 1)
    assert len(set(window)) == len(window)


def test_affine_expansion_round_trip():
    # the level and finite part are read back off the full coordinates:
    # r_im is 1 at node 0, where a lifted finite root is 0
    d4 = build_diagram("D", 4, affine=True)
    rim = imaginary_root(d4)
    for full, (_, level, r) in zip(expanded_window(d4, 2), _window_by_definition(d4, 2)):
        assert full[0] == level * rim[0] == level
        assert tuple(c - level * h for c, h in zip(full[1:], rim[1:])) == r


@pytest.mark.parametrize("family,rank", [("A", 1), ("D", 5), ("E", 7)])
def test_expanded_window_matches_the_definition(family, rank):
    d = build_diagram(family, rank, affine=True)
    for k_max in (0, 2):
        window = expanded_window(d, k_max)
        reference = _window_by_definition(d, k_max)
        assert list(window) == [full for full, _, _ in reference]
        # a real root's coordinates share the sign of its level, or of its
        # finite part at level 0: restricted roots take their sign from this
        for full, (_, level, r) in zip(window, reference):
            positive = level > 0 or (level == 0 and all(c >= 0 for c in r))
            sign = 1 if positive else -1
            assert all(sign * c >= 0 for c in full)
    with pytest.raises(ValueError):
        expanded_window(d, -1)
    with pytest.raises(DiagramError):
        expanded_window(d.finite_part(), 1)


def test_window_zero_is_the_finite_slice():
    d4 = build_diagram("D", 4, affine=True)
    fin = enumerate_roots(d4.finite_part())
    level0 = expanded_window(d4, 0)
    assert all(full[0] == 0 for full in level0)
    assert {full[1:] for full in level0} == set(fin.all_roots)


@pytest.mark.parametrize("family,rank", [("B", 2), ("D", 3), ("E", 9), ("A", 0), ("F", 4)])
def test_unsupported_types_rejected(family, rank):
    with pytest.raises(DiagramError):
        build_diagram(family, rank)


def test_imaginary_root_rejects_finite():
    with pytest.raises(DiagramError):
        imaginary_root(build_diagram("A", 2))


def test_affine_restriction_equals_finite_diagram():
    for family, rank in [("A", 4), ("D", 6), ("E", 7)]:
        da = build_diagram(family, rank, affine=True)
        assert da.finite_part() == build_diagram(family, rank)
        assert da.finite_part() is da.finite_part()
    with pytest.raises(DiagramError):
        build_diagram("A", 4).finite_part()


def test_separately_built_equal_diagrams_hash_and_compare_equal():
    d = build_diagram("E", 6, affine=True)
    twin = Diagram(d.family, d.rank, d.affine, tuple(list(d.nodes)),
                   tuple(tuple(list(e)) for e in d.edges))
    assert twin is not d and twin == d and hash(twin) == hash(d)
    # a record hashes as the tuple of its fields, so set and dict orders,
    # and with them the output bytes, stay what they were
    assert hash(d) == hash((d.family, d.rank, d.affine, d.nodes, d.edges))
    t, t_twin = DynkinType(d, frozenset({1, 3})), DynkinType(twin, frozenset([3, 1]))
    assert t_twin == t and hash(t_twin) == hash(t) == hash((d, frozenset({1, 3})))
    assert len({d, twin}) == 1 and len({t, t_twin}) == 1
    assert DynkinType(d, frozenset({1})) != t
    wall, wall_twin = Hyperplane((1, 2, 0), 1), Hyperplane(tuple([1, 2, 0]), 1)
    assert wall_twin == wall and hash(wall_twin) == hash(wall) == hash(((1, 2, 0), 1))
    c = fundamental_chamber(t)
    w = WeylElement(twin, tuple(map(tuple, c.weyl.matrix)), c.weyl.inverse_matrix)
    c_twin = Chamber(t_twin, w, frozenset(c.subset), tuple(map(tuple, c.rays)))
    assert c_twin is not c and c_twin == c
    assert hash(c_twin) == hash(c) == hash((t, c.weyl, c.subset, c.rays))
    # equal fields do not make records of other classes, or tuples, equal
    assert wall != ((1, 2, 0), 1) and t != (d, frozenset({1, 3}))
    assert c.__eq__(wall) is NotImplemented


def test_hand_written_records_are_immutable():
    d = build_diagram("A", 2, affine=True)
    t = DynkinType(d, frozenset({0}))
    c = fundamental_chamber(t)
    records = [
        (d, ("family", "rank", "affine", "nodes", "edges")),
        (t, ("diagram", "contracted")),
        (restricted_roots(t, 1), ("dynkin_type", "elements", "window")),
        (Hyperplane((1, 0)), ("normal", "offset")),
        (c, ("dtype", "weyl", "subset", "rays")),
        (Gallery((c,), ()), ("chambers", "walls")),
        (ClassGenerator("g", "rule", "numeric", lambda cc: None),
         ("name", "rule", "level", "act")),
    ]
    for record, names in records:
        for name in (*names, "unknown"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert all(hasattr(record, name) for name in names)
