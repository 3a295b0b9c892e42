import pytest

from cdvwall.arrangement import GeometryError, path_to_gallery
from cdvwall.dynkin import build_diagram
from cdvwall.groupoid import (
    GroupoidArrow,
    GroupoidError,
    compose,
    induced_root_map,
    mutate,
    mutation_data,
    self_mutation_identification,
)
from cdvwall.linalg import identity_matrix, mat_mul, mat_vec
from cdvwall.restriction import DynkinType, imaginary_restriction, restrict, restricted_roots
from cdvwall.weyl import identity, longest_element
from reference import simple_reflection
from test_linalg import invert_unimodular

A2_EMPTY = DynkinType(build_diagram("A", 2, affine=True), frozenset())
A3_ONE = DynkinType(build_diagram("A", 3, affine=True), frozenset({2}))
D4_PAIR = DynkinType(build_diagram("D", 4, affine=True), frozenset({3, 4}))


def test_empty_subset_mutation_is_a_simple_reflection():
    weyl, subset = mutate(identity(A2_EMPTY.diagram), A2_EMPTY.contracted, 1)
    assert subset == frozenset()
    assert weyl == simple_reflection(A2_EMPTY.diagram, 1)


def test_adjacent_mutation_moves_the_subset():
    # contracted {2}, mutate at the adjacent node 1: the pair {1,2} has
    # iota(1) = 2, so the subset moves to {1}
    dt = DynkinType(build_diagram("A", 2, affine=True), frozenset({2}))
    _, subset = mutate(identity(dt.diagram), dt.contracted, 1)
    assert subset == frozenset({1})
    _, iota_node, _ = mutation_data(dt.diagram, frozenset({2}), 1)
    assert iota_node == 2


def test_nonadjacent_mutation_fixes_the_subset():
    dt = DynkinType(build_diagram("A", 3, affine=True), frozenset({3}))
    # nodes 1 and 3 are not adjacent
    weyl, subset = mutate(identity(dt.diagram), dt.contracted, 1)
    assert subset == frozenset({3})
    assert weyl == simple_reflection(dt.diagram, 1)


def test_mutation_needs_two_kept_nodes():
    dt = DynkinType(build_diagram("A", 1, affine=True), frozenset({0}))
    with pytest.raises(GroupoidError):
        mutate(identity(dt.diagram), dt.contracted, 1)


def test_finite_one_kept_node_mutates_through_the_whole_longest_element():
    dt = DynkinType(build_diagram("A", 2), frozenset({1}))
    d = dt.diagram
    weyl, subset = mutate(identity(d), dt.contracted, 2)
    assert subset == frozenset({2})
    assert weyl == longest_element(d, frozenset({1})) * longest_element(d, frozenset({1, 2}))


@pytest.mark.parametrize("dtype", [A2_EMPTY, A3_ONE, D4_PAIR])
def test_mutation_inverts_through_iota(dtype):
    start = (identity(dtype.diagram), dtype.contracted)
    for node in dtype.kept:
        stepped = mutate(*start, node)
        _, iota_node, _ = mutation_data(dtype.diagram, dtype.contracted, node)
        assert mutate(*stepped, iota_node) == start


def test_compose_empty_path():
    arrow = compose(A2_EMPTY, ())
    assert arrow.weyl == identity(A2_EMPTY.diagram)
    assert arrow.target_subset == A2_EMPTY.contracted
    gallery = path_to_gallery(arrow)
    assert gallery.length == 0


def test_single_step_gallery_wall():
    arrow = compose(A3_ONE, (1,))
    gallery = path_to_gallery(arrow)
    alpha = restrict(A3_ONE, A3_ONE.diagram.simple_root(1))
    assert gallery.length == 1
    assert gallery.walls[0].normal == alpha


def test_step_then_reverse_is_the_identity_arrow():
    _, iota_node, _ = mutation_data(A2_EMPTY.diagram, A2_EMPTY.contracted, 1)
    arrow = compose(A2_EMPTY, (1, iota_node))
    assert arrow.weyl == identity(A2_EMPTY.diagram)
    assert arrow.target_subset == A2_EMPTY.contracted
    rmap = induced_root_map(arrow)
    assert rmap.matrix == identity_matrix(len(A2_EMPTY.kept))


def test_noncomposable_step_rejected():
    dt = DynkinType(build_diagram("A", 2, affine=True), frozenset({2}))
    # mutating at 1 moves the subset to {1}; stepping at 1 again is illegal
    with pytest.raises(GroupoidError):
        compose(dt, (1, 1))


def test_identity_arrow_has_identity_root_map():
    arrow = compose(D4_PAIR, ())
    assert induced_root_map(arrow).matrix == identity_matrix(len(D4_PAIR.kept))


def test_induced_map_rejects_an_element_that_misses_the_target_span():
    # s_1 sends alpha_1 to -alpha_1, outside the span of alpha_2, so it is
    # no arrow from A3~ {2} to {1}, although its kept block is unimodular
    arrow = GroupoidArrow(A3_ONE, frozenset({1}), simple_reflection(A3_ONE.diagram, 1), ())
    with pytest.raises(GroupoidError):
        induced_root_map(arrow)


@pytest.mark.parametrize("dtype", [
    A3_ONE, D4_PAIR,
    DynkinType(build_diagram("E", 6, affine=True), frozenset({1, 3, 5})),
    DynkinType(build_diagram("D", 5), frozenset({1})),
    DynkinType(build_diagram("E", 6), frozenset({2, 4})),
], ids=["A3~ {2}", "D4~ {3,4}", "E6~ {1,3,5}", "D5 {1}", "E6 {2,4}"])
def test_induced_inverse_is_the_eliminated_inverse(dtype):
    # the block of the carried w^-1 against elimination, on every path of
    # up to three steps
    paths = [()]
    for _ in range(3):
        grown = []
        for path in paths:
            target = compose(dtype, path).target_subset
            grown += [path + (n,) for n in dtype.diagram.nodes if n not in target]
        paths = grown
        for path in paths:
            rmap = induced_root_map(compose(dtype, path))
            assert rmap.inverse == invert_unimodular(rmap.matrix)


@pytest.mark.parametrize("dtype", [A2_EMPTY, A3_ONE, D4_PAIR])
def test_induced_map_fixes_the_imaginary_direction(dtype):
    rim_source = imaginary_restriction(dtype)
    for node in dtype.kept:
        arrow = compose(dtype, (node,))
        target = DynkinType(dtype.diagram, arrow.target_subset)
        rim_target = imaginary_restriction(target)
        assert mat_vec(induced_root_map(arrow).matrix, rim_target) == rim_source


@pytest.mark.parametrize("dtype", [A2_EMPTY, A3_ONE])
def test_induced_map_bijects_windowed_restricted_roots(dtype):
    from cdvwall.restriction import classify_value

    for node in dtype.kept:
        arrow = compose(dtype, (node,))
        target = DynkinType(dtype.diagram, arrow.target_subset)
        rmap = induced_root_map(arrow)
        source_window = restricted_roots(dtype, 3).values()
        target_window = restricted_roots(target, 3).values()
        # images of restricted roots stay restricted roots, both ways; the
        # membership test is windowless so no edge tolerance is needed
        for v in target_window:
            assert classify_value(dtype, mat_vec(rmap.matrix, v)) is not None
        for v in source_window:
            assert classify_value(target, mat_vec(rmap.inverse, v)) is not None


def test_gallery_is_geometrically_accepted():
    for path in [(0, 1, 2), (1, 0, 1, 2), (2, 2), (0, 1, 0, 1)]:
        arrow = compose(A2_EMPTY, path)
        gallery = path_to_gallery(arrow)  # raises on any facet mismatch
        assert gallery.length == len(path)


def test_gallery_rejects_an_arrow_whose_label_disagrees_with_its_word():
    d = A3_ONE.diagram
    word = ((frozenset({2}), 1),)
    arrow = GroupoidArrow(A3_ONE, compose(A3_ONE, (1,)).target_subset,
                          simple_reflection(d, 0), word)
    with pytest.raises(GeometryError, match="endpoint"):
        path_to_gallery(arrow)


def test_self_identification_nonadjacent_is_the_restricted_reflection():
    dt = DynkinType(build_diagram("A", 3, affine=True), frozenset({3}))
    arrow = compose(dt, (1,))
    autom = self_mutation_identification(arrow)
    sigma = simple_reflection(dt.diagram, 1)
    cols = [restrict(dt, mat_vec(sigma.matrix, dt.diagram.simple_root(n))) for n in dt.kept]
    expected = tuple(tuple(col[i] for col in cols) for i in range(len(dt.kept)))
    assert autom == expected
    assert mat_mul(autom, autom) == identity_matrix(len(dt.kept))


def test_self_identification_identity_arrow():
    autom = self_mutation_identification(compose(A2_EMPTY, ()))
    assert autom == identity_matrix(len(A2_EMPTY.kept))


def test_self_identification_round_trip_adjacent():
    dt = DynkinType(build_diagram("A", 2, affine=True), frozenset({2}))
    arrow = compose(dt, (1,))
    autom = self_mutation_identification(arrow)
    assert invert_unimodular(autom) is not None
    # going down and back along iota gives the identity arrow, whose
    # induced map is the identity
    _, iota_node, _ = mutation_data(dt.diagram, frozenset({2}), 1)
    round_trip = compose(dt, (1, iota_node))
    assert induced_root_map(round_trip).matrix == identity_matrix(len(dt.kept))


def test_self_identification_rejects_multi_step_words():
    arrow = compose(A2_EMPTY, (0, 1))
    with pytest.raises(GroupoidError):
        self_mutation_identification(arrow)


def test_label_relabelling_map():
    # D4~ {1,2} at node 4: iota(4) = 1, so the target {2,4} keeps 0, 1, 3,
    # and the row of node 4 is the inverse map's row of node 1
    dt = DynkinType(build_diagram("D", 4, affine=True), frozenset({1, 2}))
    arrow = compose(dt, (4,))
    assert arrow.target_subset == frozenset({2, 4})
    rows = dict(zip((0, 1, 3), induced_root_map(arrow).inverse))
    assert self_mutation_identification(arrow) == (rows[0], rows[3], rows[1])


def test_self_identification_refuses_another_contraction():
    # D4~ {1} at node 2: iota(2) = 1, and the target {2} contracts the
    # centre; its restricted roots have no coordinate 2, those of {1} do
    dt = DynkinType(build_diagram("D", 4, affine=True), frozenset({1}))
    with pytest.raises(GroupoidError, match="not a symmetry"):
        self_mutation_identification(compose(dt, (2,)))
