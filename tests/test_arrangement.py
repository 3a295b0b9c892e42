import random
import re
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdvwall import arrangement
from cdvwall.arrangement import (
    ChamberGraph,
    Gallery,
    GeometryError,
    SignCrossing,
    arrangement_hyperplanes,
    cross_wall,
    fundamental_chamber,
    gallery_through_wall,
    locate_by_walk,
    shares_facet,
    through_wall_end_point,
    wall_through,
)
from cdvwall.dynkin import DiagramError, build_diagram
from cdvwall.linalg import dot, is_colinear, mat_vec, primitive
from cdvwall.restriction import DynkinType, imaginary_restriction, restrict, restricted_roots
from cdvwall.weyl import identity
from reference import (
    gallery_from_parents,
    linear_walls,
    minimal_gallery,
    neighbors,
    separating_hyperplanes,
)
from test_linalg import leibniz_det

A2_EMPTY = DynkinType(build_diagram("A", 2, affine=True), frozenset())
D4_PAIR = DynkinType(build_diagram("D", 4, affine=True), frozenset({3, 4}))
A3_ONE = DynkinType(build_diagram("A", 3, affine=True), frozenset({2}))
E6_EMPTY = DynkinType(build_diagram("E", 6, affine=True), frozenset())
D5_PAIR = DynkinType(build_diagram("D", 5, affine=True), frozenset({1, 4}))
E6_TRIPLE = DynkinType(build_diagram("E", 6, affine=True), frozenset({1, 3, 5}))
E7_PAIR = DynkinType(build_diagram("E", 7, affine=True), frozenset({2, 5}))

TYPES = [A2_EMPTY, D4_PAIR, A3_ONE]


def test_fundamental_chamber_rays_are_the_dual_basis():
    c = fundamental_chamber(A2_EMPTY)
    assert c.rays == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    p = c.interior
    for n in A2_EMPTY.kept:
        alpha = restrict(A2_EMPTY, A2_EMPTY.diagram.simple_root(n))
        assert dot(p, alpha) > 0


def test_fundamental_chamber_with_contraction():
    c = fundamental_chamber(D4_PAIR)
    assert len(c.rays) == 3
    p = c.interior
    for n in D4_PAIR.kept:
        alpha = restrict(D4_PAIR, D4_PAIR.diagram.simple_root(n))
        assert dot(p, alpha) > 0


@pytest.mark.parametrize("dtype", TYPES)
def test_cross_twice_returns(dtype):
    c = fundamental_chamber(dtype)
    for k in range(len(c.rays)):
        c2, wall = cross_wall(c, k)
        back_k = next(
            j for j in range(len(c2.rays))
            if primitive(c2.facet_normals[j]) == wall.normal
        )
        c3, wall2 = cross_wall(c2, back_k)
        assert c3.key() == c.key()
        assert wall2 == wall


@pytest.mark.parametrize("dtype,radius", [
    (A3_ONE, 6),
    (D4_PAIR, 5),
    (DynkinType(build_diagram("E", 6, affine=True), frozenset({1, 3, 5})), 4),
], ids=["A3~{2}", "D4~{3,4}", "E6~{1,3,5}"])
def test_crossing_a_wall_twice_returns(dtype, radius):
    # every facet of a BFS ball that is not the imaginary wall
    graph = ChamberGraph(dtype)
    chambers, _ = graph.bfs(radius)
    facets = [(c, k) for c in chambers
              for k, edge in neighbors(graph, c).items() if edge is not None]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(facets))
    def check(facet):
        chamber, k = facet
        across, wall = cross_wall(chamber, k)
        shared = {r for j, r in enumerate(chamber.rays) if j != k}
        back = next(j for j, r in enumerate(across.rays) if r not in shared)
        returned, wall2 = cross_wall(across, back)
        assert returned.key() == chamber.key()
        assert wall2 == wall

    check()


@pytest.mark.parametrize("dtype", TYPES)
def test_first_wall_is_the_simple_restriction(dtype):
    c = fundamental_chamber(dtype)
    for k, node in enumerate(c.kept_of_subset):
        _, wall = cross_wall(c, k)
        alpha = restrict(dtype, dtype.diagram.simple_root(node))
        assert wall.normal == primitive(alpha)


@pytest.mark.parametrize("dtype", TYPES)
def test_subset_size_is_preserved(dtype):
    c = fundamental_chamber(dtype)
    for k in range(len(c.rays)):
        c2, _ = cross_wall(c, k)
        assert len(c2.subset) == len(c.subset)


def test_enumerate_length_zero():
    chambers, edges = ChamberGraph(A2_EMPTY).bfs(0)
    assert len(chambers) == 1
    assert chambers[0].weyl == identity(A2_EMPTY.diagram)


def test_rank_two_fan_is_a_path():
    # hand model: the positive-side chambers of the rank-two arrangement
    # form a fan indexed by integers, so the radius-3 ball has 7 members
    dt = DynkinType(build_diagram("A", 1, affine=True), frozenset())
    chambers, edges = ChamberGraph(dt).bfs(3)
    assert len(chambers) == 7
    deg = {}
    for a, b, _ in edges:
        deg.setdefault(a, set()).add(b)
        deg.setdefault(b, set()).add(a)
    counts = sorted(len(v) for v in deg.values())
    assert counts == [1, 1, 2, 2, 2, 2, 2]


def test_bfs_expands_each_chamber_once_in_found_order(monkeypatch):
    # the chambers within 2 crossings are the ones a radius-3 search
    # expands, each once, in the order it finds them, crossing every facet
    # of each once
    inner = [c.key() for c in ChamberGraph(A2_EMPTY).bfs(2)[0]]
    crossed = []
    cross = arrangement.cross_wall

    def counted(chamber, k, known=None):
        crossed.append((chamber.key(), k))
        return cross(chamber, k, known)

    monkeypatch.setattr(arrangement, "cross_wall", counted)
    graph = ChamberGraph(A2_EMPTY)
    graph.bfs(3)
    expanded = list(dict.fromkeys(key for key, _ in crossed))
    assert expanded == inner
    assert crossed == [(key, k) for key in inner
                       for k in range(len(graph.chambers[key].rays))]


def test_bfs_of_a_finite_type_stops_when_the_queue_empties():
    # the Weyl chambers of A3 are the 24 elements of S4, each with 3 walls
    dt = DynkinType(build_diagram("A", 3), frozenset())
    chambers, edges = ChamberGraph(dt).bfs(100)
    assert len(chambers) == 24 and len(edges) == 24 * 3 // 2
    assert Counter(i for a, b, _ in edges for i in (a, b)) == {i: 3 for i in range(24)}


@pytest.mark.parametrize("dtype,max_len", [
    (DynkinType(build_diagram("A", 3), frozenset()), 100),
    (D4_PAIR, 3),
    (E6_TRIPLE, 2),
], ids=["A3", "D4~{3,4}", "E6~{1,3,5}"])
def test_bfs_records_each_wall_once(dtype, max_len):
    # every facet of every chamber nearer than max_len, crossed on its own,
    # gives the walls between the found chambers, each once with i < j
    chambers, edges = ChamberGraph(dtype).bfs(max_len)
    nearer, _ = ChamberGraph(dtype).bfs(max_len - 1)
    index = {c.key(): i for i, c in enumerate(chambers)}
    expected = set()
    for chamber in nearer:
        for k in range(len(chamber.rays)):
            try:
                across, wall = cross_wall(chamber, k)
            except SignCrossing:
                continue
            i, j = sorted((index[chamber.key()], index[across.key()]))
            expected.add((i, j, wall))
    assert len(set(edges)) == len(edges)
    assert set(edges) == expected


@pytest.mark.parametrize("dtype", TYPES)
def test_interior_adjacency_degree(dtype):
    chambers, edges = ChamberGraph(dtype).bfs(3)
    graph = ChamberGraph(dtype)
    inner, _ = graph.bfs(2)
    index = {c.key(): i for i, c in enumerate(chambers)}
    neighbor_count = {}
    for a, b, _ in edges:
        neighbor_count.setdefault(a, set()).add(b)
        neighbor_count.setdefault(b, set()).add(a)
    for c in inner:
        assert len(neighbor_count[index[c.key()]]) == len(dtype.kept)


@pytest.mark.parametrize("dtype", TYPES)
def test_chambers_have_disjoint_sign_vectors(dtype):
    chambers, _ = ChamberGraph(dtype).bfs(3)
    normals = [h.normal for h in linear_walls(dtype, 5)]
    seen = {}
    for c in chambers:
        p = c.interior
        sig = tuple(1 if dot(p, n) > 0 else (-1 if dot(p, n) < 0 else 0) for n in normals)
        assert 0 not in sig, "interior point lies on an arrangement hyperplane"
        assert sig not in seen, "two chambers share every windowed side"
        seen[sig] = c.key()


def test_cached_facet_normals_match_a_fresh_restriction():
    dtype = DynkinType(build_diagram("E", 7, affine=True), frozenset({2, 5}))
    chambers, _ = ChamberGraph(dtype).bfs(3)
    assert len(chambers) > 50
    for c in chambers:
        for k, node in enumerate(c.kept_of_subset):
            fresh = restrict(dtype, mat_vec(c.weyl.matrix, dtype.diagram.simple_root(node)))
            assert c.facet_normals[k] == fresh
        # facet k pairs to 1 with ray k and to 0 with the others
        for j, ray in enumerate(c.rays):
            assert c.coords_in(ray) == tuple(int(k == j) for k in range(len(c.rays)))


@pytest.mark.parametrize("dtype", [
    A2_EMPTY, D4_PAIR, DynkinType(build_diagram("E", 6, affine=True), frozenset({1, 3, 5})),
    DynkinType(build_diagram("E", 6), frozenset({2, 5}))], ids=["A2~", "D4~", "E6~", "E6"])
def test_chamber_rays_are_unimodular(dtype):
    # chamber_from_label does not check full-dimensionality: the ray matrix
    # is a diagonal block of the label's block-triangular inverse
    chambers, _ = ChamberGraph(dtype).bfs(3)
    assert len(chambers) > 1
    for c in chambers:
        assert leibniz_det(c.rays) in (1, -1), c.label_str()


def _walk_outcome(graph, point):
    try:
        return locate_by_walk(graph, point).key()
    except GeometryError as err:
        return str(err)


@pytest.mark.parametrize("dtype,sign", [(A2_EMPTY, 1), (A2_EMPTY, -1), (D4_PAIR, 1),
                                        (A3_ONE, 1)])
def test_walk_is_invariant_under_positive_scaling(dtype, sign):
    graph = ChamberGraph(dtype)
    rim = imaginary_restriction(dtype)
    rng = random.Random(11)
    located = 0
    for _ in range(60):
        coords = [rng.randrange(-200, 200) for _ in dtype.kept]
        # the point (x, coords[1:] / 97) pairing to sign with pi(r_im), times
        # 97 * rim[0] > 0 and over the gcd: its least integer multiple
        coords[0] = 97 * sign - sum(c * r for c, r in zip(coords[1:], rim[1:]))
        coords[1:] = [c * rim[0] for c in coords[1:]]
        g = gcd(*coords)
        point = tuple(c // g for c in coords)
        outcome = _walk_outcome(graph, point)
        if sign < 0:
            # the graph holds the positive side of the imaginary wall only
            assert outcome == "point is not on the graph's side of the imaginary wall"
        elif isinstance(outcome, str):
            # a walk through a meet of walls goes on; only an end on a wall stops it
            assert outcome == "point lies on a wall of the current chamber"
            continue
        else:
            located += 1
            assert all(c > 0 for c in graph.chambers[outcome].coords_in(point))
        for m in (3, 5, 7):
            assert _walk_outcome(graph, tuple(m * c for c in point)) == outcome
    assert located > 40 if sign > 0 else located == 0


def test_minimal_gallery_trivial_cases():
    graph = ChamberGraph(A2_EMPTY)
    base = graph.chambers[graph.base_key]
    assert minimal_gallery(graph, base, base).length == 0
    neighbor, wall = cross_wall(base, 0)
    g = minimal_gallery(graph, base, neighbor)
    assert g.length == 1 and g.walls == (wall,)


@pytest.mark.parametrize("dtype", TYPES)
def test_minimal_gallery_length_equals_separation(dtype):
    graph = ChamberGraph(dtype)
    chambers, _ = graph.bfs(4)
    rng = random.Random(17)
    for _ in range(15):
        a, b = rng.sample(chambers, 2)
        g = minimal_gallery(graph, a, b)
        sep = separating_hyperplanes(dtype, a, b)
        assert g.length == len(sep)
        assert len(set(g.walls)) == g.length
        assert set(g.walls) == sep


def test_gallery_endpoints_share_facets():
    graph = ChamberGraph(A2_EMPTY)
    chambers, _ = graph.bfs(3)
    g = minimal_gallery(graph, chambers[0], chambers[-1])
    assert len(g.chambers) == g.length + 1


def test_sign_classes_never_mix():
    graph = ChamberGraph(A2_EMPTY)
    chambers, _ = graph.bfs(4)
    rim = imaginary_restriction(A2_EMPTY)
    assert all(dot(c.interior, rim) > 0 for c in chambers)


def _positive_rows(dtype, nodes=None):
    """The (node, alpha_bar, rbar) rows of the gallery command: kept nodes
    against positive level-1 restricted roots off both excluded lines."""
    rim = imaginary_restriction(dtype)
    positives = sorted(
        e.coeffs for e in restricted_roots(dtype, 1).elements if all(c >= 0 for c in e.coeffs)
    )
    for node in nodes or dtype.kept:
        alpha = restrict(dtype, dtype.diagram.simple_root(node))
        for rbar in positives:
            if not (is_colinear(rbar, alpha) or is_colinear(rbar, rim)):
                yield node, alpha, rbar


def _in_nonneg_cone(target, u, v) -> bool:
    """Whether target = a*u + b*v with rational a, b >= 0 (u, v independent),
    by Cramer's rule on the first nonsingular 2x2 minor."""
    for i, j in combinations(range(len(u)), 2):
        d = u[i] * v[j] - u[j] * v[i]
        if d:
            a = Fraction(target[i] * v[j] - target[j] * v[i], d)
            b = Fraction(u[i] * target[j] - u[j] * target[i], d)
            return (a >= 0 and b >= 0
                    and all(a * x + b * y == t for x, y, t in zip(u, v, target)))
    return False


def _region_search_gallery(dtype, node, rbar) -> Gallery:
    """Oracle: a shortest gallery through both walls, by breadth-first search
    from the chamber across the facet at `node` over the chambers with
    alpha_bar < 0 < rbar, to the nearest one with a facet in the wall of rbar."""
    graph = ChamberGraph(dtype)
    alpha = restrict(dtype, dtype.diagram.simple_root(node))
    base = graph.chambers[graph.base_key]
    first_key, first_wall = neighbors(graph, base)[base.kept_of_subset.index(node)]
    parent, queue = {first_key: None}, deque([first_key])
    while queue:
        key = queue.popleft()
        for edge in neighbors(graph, graph.chambers[key]).values():
            if edge is None:
                continue
            if edge[1].normal == primitive(rbar):
                mid = gallery_from_parents(graph, parent, key)
                return Gallery((base,) + mid.chambers + (graph.chambers[edge[0]],),
                               (first_wall,) + mid.walls + (edge[1],))
            p = graph.chambers[edge[0]].interior
            if edge[0] not in parent and dot(p, alpha) < 0 < dot(p, rbar):
                parent[edge[0]] = (key, edge[1])
                queue.append(edge[0])
    raise AssertionError("the region holds no chamber with a facet in the target wall")


def test_gallery_through_wall_labels():
    graph = ChamberGraph(A2_EMPTY)
    checked = 0
    for node, alpha, rbar in _positive_rows(A2_EMPTY):
        try:
            g = gallery_through_wall(graph, node, rbar)
        except GeometryError as err:
            assert "cone" in str(err)
            continue
        assert g.walls[0].normal == primitive(alpha)
        assert g.walls[-1].normal == primitive(rbar)
        assert len(set(g.walls)) == g.length
        sep = separating_hyperplanes(A2_EMPTY, g.chambers[0], g.chambers[-1])
        assert g.length == len(sep)
        checked += 1
    assert checked >= 15


@pytest.mark.parametrize("dtype", TYPES)
def test_gallery_through_wall_on_a_shared_graph(dtype):
    """A row built on a graph that earlier rows expanded equals the row
    built on a fresh graph; it is no shorter than the region search's
    shortest gallery, and both are minimal between their own ends."""
    shared = ChamberGraph(dtype)
    built = 0
    for node, _, rbar in _positive_rows(dtype):
        try:
            g = gallery_through_wall(shared, node, rbar)
        except GeometryError as err:
            assert "cone" in str(err)
            with pytest.raises(GeometryError, match=re.escape(str(err))):
                gallery_through_wall(ChamberGraph(dtype), node, rbar)
            continue
        assert g == gallery_through_wall(ChamberGraph(dtype), node, rbar)
        shortest = _region_search_gallery(dtype, node, rbar)
        assert g.length >= shortest.length
        for h in (g, shortest):
            assert h.length == len(separating_hyperplanes(dtype, h.chambers[0], h.chambers[-1]))
        built += 1
    assert built >= 15


@pytest.mark.parametrize("dtype,nodes", [(E7_PAIR, (0,)), (D5_PAIR, None), (E6_TRIPLE, None)],
                         ids=["E7~-node-0", "D5~", "E6~"])
def test_through_wall_rows_are_minimal_galleries_or_cone_skips(dtype, nodes):
    """Every row at the given nodes (every kept node when None) is decided by
    the geometry: a gallery through both walls, minimal between its ends, or
    a skip by the cone rule."""
    rim = imaginary_restriction(dtype)
    graph = ChamberGraph(dtype)
    built = skipped = 0
    for node, alpha, rbar in _positive_rows(dtype, nodes):
        if _in_nonneg_cone(rim, rbar, alpha):
            with pytest.raises(GeometryError, match="cone"):
                gallery_through_wall(graph, node, rbar)
            skipped += 1
            continue
        g = gallery_through_wall(graph, node, rbar)
        assert g.walls[0].normal == primitive(alpha)
        assert g.walls[-1].normal == primitive(rbar)
        sep = separating_hyperplanes(dtype, g.chambers[0], g.chambers[-1])
        assert g.length == len(sep) and set(g.walls) == sep
        built += 1
    assert built >= 70 and skipped >= 1


@pytest.mark.parametrize("dtype", [D5_PAIR, E6_TRIPLE], ids=["D5~", "E6~"])
def test_every_gallery_row_walks_once(monkeypatch, dtype):
    """A walk meeting several walls at one point crosses them in turn, so each
    built row makes exactly one segment walk."""
    walks = []
    crossings = arrangement._crossings

    def counted(*args):
        walks.append(args)
        return crossings(*args)

    monkeypatch.setattr(arrangement, "_crossings", counted)
    graph = ChamberGraph(dtype)
    built = 0
    for node, _, rbar in _positive_rows(dtype):
        try:
            gallery_through_wall(graph, node, rbar)
        except GeometryError as err:
            assert "cone" in str(err)
            continue
        built += 1
    assert len(walks) == built >= 80


@pytest.mark.parametrize("dtype", [A2_EMPTY, A3_ONE, D4_PAIR,
                                   DynkinType(build_diagram("D", 4, affine=True), frozenset()),
                                   D5_PAIR, E6_TRIPLE, E6_EMPTY])
def test_through_wall_end_point_exists_exactly_off_the_cone(dtype):
    rim = imaginary_restriction(dtype)
    for _, alpha, rbar in _positive_rows(dtype):
        if _in_nonneg_cone(rim, rbar, alpha):
            with pytest.raises(GeometryError, match="cone"):
                through_wall_end_point(rbar, alpha, rim)
        else:
            z = through_wall_end_point(rbar, alpha, rim)
            assert dot(z, rbar) < 0 and dot(z, alpha) < 0 < dot(z, rim)


@pytest.mark.parametrize("a,b", [(a, b) for a in range(-3, 4) for b in range(-3, 4)
                                 if (a, b) != (0, 0)])
def test_through_wall_end_point_on_every_sign_pattern(a, b):
    """rim_bar = a*rbar + b*alpha_bar in every sign pattern of (a, b),
    including a < 0, which no gallery row reaches."""
    rbar, alpha, rim = (1, 0, 0), (0, 1, 0), (a, b, 0)
    if a >= 0 and b >= 0:
        with pytest.raises(GeometryError, match="cone"):
            through_wall_end_point(rbar, alpha, rim)
    else:
        z = through_wall_end_point(rbar, alpha, rim)
        assert dot(z, rbar) < 0 and dot(z, alpha) < 0 < dot(z, rim)
        assert z[2] == 0


def test_gallery_through_wall_rejects_colinear():
    alpha = restrict(A2_EMPTY, A2_EMPTY.diagram.simple_root(1))
    graph = ChamberGraph(A2_EMPTY)
    with pytest.raises(GeometryError):
        gallery_through_wall(graph, 1, alpha)
    with pytest.raises(GeometryError):
        gallery_through_wall(graph, 1, imaginary_restriction(A2_EMPTY))


def test_hyperplane_multiples_collapse():
    d5 = DynkinType(build_diagram("D", 5, affine=True), frozenset({1, 4, 5}))
    walls = linear_walls(d5, 1)
    normals = [h.normal for h in walls]
    assert len(set(normals)) == len(normals)
    assert all(primitive(n) == n for n in normals)


def test_rank_one_slice_walls():
    dt = DynkinType(build_diagram("A", 1, affine=True), frozenset())
    walls = arrangement_hyperplanes(dt, 2)
    assert {(h.normal, h.offset) for h in walls} == {((1,), k) for k in range(-2, 3)}


def test_slice_walls_need_an_affine_type_with_node_0_kept():
    with pytest.raises(DiagramError, match="affine"):
        arrangement_hyperplanes(DynkinType(build_diagram("A", 2), frozenset()), 1)
    with pytest.raises(DiagramError, match="node 0 kept"):
        arrangement_hyperplanes(DynkinType(build_diagram("A", 2, affine=True), frozenset({0})), 1)


def test_slice_reproduces_the_affine_arrangement():
    # a linear wall u = rbar + k*rim (rbar in the finite kept lattice, k the
    # node-0 coefficient) slices the positive level in {theta(rbar) = -k},
    # and every windowed slice wall lifts back
    rim = imaginary_restriction(A2_EMPTY)
    upstairs = linear_walls(A2_EMPTY, 2)
    downstairs = set(arrangement_hyperplanes(A2_EMPTY, 2))
    for wall in upstairs:
        k = wall.normal[0]
        fin = tuple(c - k * r for c, r in zip(wall.normal[1:], rim[1:]))
        if all(c == 0 for c in fin):
            continue  # the imaginary wall misses the level entirely
        assert wall_through(fin, -k) in downstairs
    for wall in downstairs:
        lifted = wall_through(
            (-wall.offset,)
            + tuple(c - wall.offset * r for c, r in zip(wall.normal, rim[1:])))
        assert any(h.normal == lifted.normal for h in upstairs), wall


def _facet_in(chamber, wall):
    """The index of the chamber's facet lying in `wall`."""
    return next(j for j in range(len(chamber.rays))
                if primitive(chamber.facet_normals[j]) == wall.normal)


def _wrong_chambers(dtype, k):
    """The chamber across facet k of the base, then chambers that are not:
    the base itself, every chamber two crossings away through it, and every
    neighbour across another facet."""
    base = fundamental_chamber(dtype)
    across, wall = cross_wall(base, k)
    back = _facet_in(across, wall)
    two_away = [cross_wall(across, j)[0] for j in range(len(across.rays)) if j != back]
    others = [cross_wall(base, j)[0] for j in range(len(base.rays)) if j != k]
    return across, {"itself": [base], "two crossings away": two_away,
                    "across another facet": others}


@pytest.mark.parametrize("dtype", TYPES)
def test_shares_facet_rejects_every_chamber_but_the_neighbour(dtype):
    base = fundamental_chamber(dtype)
    for k in range(len(base.rays)):
        across, wrong = _wrong_chambers(dtype, k)
        shares_facet(base, k, across)
        for case, chambers in wrong.items():
            assert chambers, case
            for c in chambers:
                with pytest.raises(GeometryError):
                    shares_facet(base, k, c)


def test_cross_wall_rejects_a_label_for_the_wrong_chamber(monkeypatch):
    # the mutation returns the label of a wrong chamber: the unmutated base
    # itself, one two crossings away, or one across another facet
    base = fundamental_chamber(D4_PAIR)
    _, wrong = _wrong_chambers(D4_PAIR, 0)
    for chambers in wrong.values():
        c = chambers[0]
        monkeypatch.setattr(arrangement, "mutate",
                            lambda _weyl, _subset, _node: (c.weyl, c.subset))
        with pytest.raises(GeometryError):
            cross_wall(base, 0)
        monkeypatch.undo()


def test_cross_wall_checks_a_known_chamber_too():
    graph = ChamberGraph(D4_PAIR)
    base = graph.chambers[graph.base_key]
    across, wrong = _wrong_chambers(D4_PAIR, 0)
    assert cross_wall(base, 0, {across.key(): across})[0] is across
    for c in (*wrong["across another facet"], *wrong["two crossings away"]):
        with pytest.raises(GeometryError):
            cross_wall(base, 0, {across.key(): c})


def _contains_facet(c1, k, c2):
    """Every ray of c1 but the k-th lies in the closed chamber c2."""
    return all(all(x >= 0 for x in c2.coords_in(ray))
               for j, ray in enumerate(c1.rays) if j != k)


def _same_facet_rays(c1, k, c2, k2):
    return ({r for j, r in enumerate(c1.rays) if j != k}
            == {r for j, r in enumerate(c2.rays) if j != k2})


@pytest.mark.parametrize("dtype,max_len", [(D4_PAIR, 3), (E6_EMPTY, 2)])
def test_facet_ray_sets_agree_with_two_way_containment(dtype, max_len):
    chambers, edges = ChamberGraph(dtype).bfs(max_len)
    for a, b, wall in edges:
        c1, c2 = chambers[a], chambers[b]
        k, k2 = _facet_in(c1, wall), _facet_in(c2, wall)
        assert _same_facet_rays(c1, k, c2, k2)
        assert _contains_facet(c1, k, c2) and _contains_facet(c2, k2, c1)
    # every pair of chambers with facets in one wall, on its two sides
    disagreements, pairs = 0, 0
    for c1 in chambers:
        for k, normal in enumerate(c1.facet_normals):
            side = dot(c1.interior, normal)
            for c2 in chambers:
                if dot(c2.interior, normal) * side >= 0:
                    continue
                k2 = next((j for j, n2 in enumerate(c2.facet_normals)
                           if is_colinear(n2, normal)), None)
                if k2 is None:
                    continue
                pairs += 1
                contained = _contains_facet(c1, k, c2) and _contains_facet(c2, k2, c1)
                disagreements += contained != _same_facet_rays(c1, k, c2, k2)
    assert pairs > 2 * len(edges) and disagreements == 0
