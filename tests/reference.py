"""Independent references the tests check the engine against.  No command
runs them, so they live with the tests: each is built its own way (from
the Cartan matrix, by breadth-first search, by translating the finite
restricted roots, by restricting the real roots before adding the
imaginary ones, or by counting sign changes), not by the engine path it
checks."""

from collections import deque
from functools import lru_cache
from typing import Callable, NamedTuple

from cdvwall.arrangement import Chamber, ChamberGraph, Gallery, GeometryError, Hyperplane
from cdvwall.bps import (
    CurveClass,
    OrbitPartition,
    SymmetryConfig,
    affine_companion,
    class_to_vector,
    finite_verdicts,
    vector_to_class,
)
from cdvwall.dynkin import Diagram, expanded_window, imaginary_root
from cdvwall.groupoid import compose, induced_root_map, mutation_data
from cdvwall.linalg import Mat, Vec, dot, is_colinear, mat_vec, primitive, vec_gcd, vec_neg
from cdvwall.restriction import (
    DynkinType,
    RestrictedRootSet,
    classify_value,
    finite_restricted_values,
    imaginary_restriction,
    restricted_roots,
)
from cdvwall.weyl import WeylElement, identity

GALLERY_SEARCH_CAP = 200_000   # chamber expansions before minimal_gallery gives up


def simple_reflection(diagram: Diagram, node: int) -> WeylElement:
    """The reflection sigma_node, acting by alpha_j -> alpha_j - A_ij alpha_i,
    built from the Cartan matrix; a reflection is its own inverse."""
    i = diagram.index[node]
    a = diagram.cartan
    n = len(diagram.nodes)
    m = tuple(
        tuple((1 if r == j else 0) - (a[i][j] if r == i else 0) for j in range(n))
        for r in range(n)
    )
    return WeylElement(diagram, m, m)


def from_word(diagram: Diagram, word) -> WeylElement:
    """s_{i_1} ... s_{i_m}, stepped from the identity."""
    return identity(diagram).times_word(word)


def neighbors(graph: ChamberGraph, chamber: Chamber) -> dict:
    """Every edge of a chamber, keyed by facet index in facet order, through
    the graph's memoised crossings (`ChamberGraph.edge`)."""
    return {k: graph.edge(chamber, k) for k in range(len(chamber.rays))}


def gallery_from_parents(graph: ChamberGraph, parent: dict, key) -> Gallery:
    """The gallery that search parent links, key -> (parent key, wall) and
    None at the start, trace back from key."""
    chain, walls = [key], []
    while parent[chain[-1]] is not None:
        prev, wall = parent[chain[-1]]
        chain.append(prev)
        walls.append(wall)
    return Gallery(tuple(graph.chambers[k] for k in reversed(chain)), tuple(reversed(walls)))


def minimal_gallery(graph: ChamberGraph, source: Chamber, target: Chamber) -> Gallery:
    """A shortest wall-crossing path from source to target, by breadth-first
    search with parent links over the lazily expanded chamber graph."""
    skey, tkey = source.key(), target.key()
    graph.chambers.setdefault(skey, source)
    parent = {skey: None}
    queue = deque([skey])
    for _ in range(GALLERY_SEARCH_CAP):
        if tkey in parent:
            return gallery_from_parents(graph, parent, tkey)
        if not queue:
            break
        key = queue.popleft()
        for edge in neighbors(graph, graph.chambers[key]).values():
            if edge is not None and edge[0] not in parent:
                parent[edge[0]] = (key, edge[1])
                queue.append(edge[0])
    raise GeometryError(f"target not reached within {GALLERY_SEARCH_CAP} expansions")


def separating_hyperplanes(dtype: DynkinType, a: Chamber, b: Chamber) -> frozenset:
    """The exact set of arrangement walls separating two chambers.

    For each finite restricted-root direction the translates that can
    separate the two interior points form a bounded integer range, so the
    count needs no window.
    """
    p, q = a.interior, b.interior
    rim_bar = imaginary_restriction(dtype)
    separating = set()

    def check(normal: Vec):
        sp, sq = dot(p, normal), dot(q, normal)
        if sp == 0 or sq == 0:
            raise GeometryError("interior point lies on an arrangement hyperplane")
        if (sp > 0) != (sq > 0):
            separating.add(Hyperplane(primitive(normal)))

    check(rim_bar)
    p_rim, q_rim = dot(p, rim_bar), dot(q, rim_bar)
    for base in finite_restricted_values(dtype):
        if is_colinear(base, rim_bar):
            continue
        pb, qb = dot(p, base), dot(q, base)
        # the roots of pb + k*p_rim and qb + k*q_rim bound the sign-flip
        # range; every integer k between them lies between their floors
        floors = (-pb // p_rim, -qb // q_rim)
        for k in range(min(floors), max(floors) + 1):
            normal = tuple(bc + k * rc for bc, rc in zip(base, rim_bar))
            if any(c != 0 for c in normal):
                check(normal)
    return frozenset(separating)


def linear_walls(dtype: DynkinType, k_max: int) -> tuple:
    """The linear walls of the affine arrangement within a level window: one
    hyperplane per primitive direction of a windowed restricted root, in
    order of their normals."""
    normals = {primitive(coeffs) for coeffs in restricted_roots(dtype, k_max).values()}
    return tuple(Hyperplane(n) for n in sorted(normals))


def entries_with_multiples_added(dtype: DynkinType, k_max: int) -> dict:
    """An affine set's entries, coeffs -> first witness, in two steps: the
    real roots of the level window restricted in window order, each image
    keeping its first preimage, then the imaginary multiples k * pi(r_im),
    0 < |k| <= k_max, +k before -k, added where no real root put them."""
    keep = [dtype.diagram.index[n] for n in dtype.kept]
    entries = {}
    for root in expanded_window(dtype.diagram, k_max):
        image = tuple(root[i] for i in keep)
        if any(image):
            entries.setdefault(image, root)
    rim = imaginary_root(dtype.diagram)
    for k in range(1, k_max + 1):
        for m in (k, -k):
            entries.setdefault(tuple(m * rim[i] for i in keep), tuple(m * c for c in rim))
    return entries


def companion_from_finite_part(dtype: DynkinType) -> frozenset:
    """An affine type's finite restricted roots, from the finite part with
    the contracted finite nodes, a 0 put in front when node 0 is kept;
    empty when node 0 is the only kept node."""
    if dtype.kept == (0,):
        return frozenset()
    finite = DynkinType(dtype.diagram.finite_part(), dtype.contracted - {0})
    values = restricted_roots(finite).values()
    return values if 0 in dtype.contracted else frozenset((0, *v) for v in values)


class TwoWayReport(NamedTuple):
    set_direct: frozenset
    set_translated: frozenset
    equal: bool
    excluded_highest: bool


def _on_imaginary_line(v: Vec, rim_bar: Vec) -> bool:
    """Whether v is a nonzero integer multiple of pi(r_im), whose entries
    are positive."""
    k = v[0] // rim_bar[0]
    return k != 0 and v == tuple(k * c for c in rim_bar)


def real_restricted_two_ways(dtype: DynkinType | RestrictedRootSet,
                             k_max: int = 3) -> TwoWayReport:
    """Real restricted roots built two ways over the same level window.

    dtype is a type, whose set is built at k_max, or a built set, whose
    type and window are read instead.  set_direct holds the elements of
    that set off the imaginary line, the windowed restrictions of real
    affine roots.  set_translated translates the finite restricted roots
    by multiples of pi(r_im), dropping the two vectors +-pi(r_max) exactly
    when node 0 is contracted.  The two must coincide.
    """
    if isinstance(dtype, RestrictedRootSet):
        rr, dtype, k_max = dtype, dtype.dynkin_type, dtype.window
    else:
        rr = restricted_roots(dtype, k_max)
    rim_bar = imaginary_restriction(dtype)
    direct = {e.coeffs for e in rr.elements if not _on_imaginary_line(e.coeffs, rim_bar)}

    zero_contracted = 0 in dtype.contracted
    # with node 0 contracted, pi(r_max) = pi(r_im - alpha_0) = pi(r_im)
    excluded = {rim_bar, vec_neg(rim_bar)} if zero_contracted else set()
    translated = set()
    for base in finite_restricted_values(dtype):
        if base in excluded:
            continue
        for k in range(-k_max, k_max + 1):
            v = tuple(b + k * c for b, c in zip(base, rim_bar))
            if not _on_imaginary_line(v, rim_bar):
                translated.add(v)

    return TwoWayReport(
        frozenset(direct), frozenset(translated), direct == translated, zero_contracted
    )


def minimal_duality_shift(dtype: DynkinType, cc: CurveClass) -> int:
    """The smallest n >= 0 for which (n*d - chi, -beta) maps into the
    non-negative dimension vectors, d the beta multiplicity, found by
    trying n = 0, 1, 2, ... in turn."""
    d = cc.d_beta
    if d == 0:
        raise ValueError("duality needs beta nonzero")
    aff = affine_companion(dtype)
    n = 0
    while min(class_to_vector(aff, CurveClass(n * d - cc.chi, tuple(-b for b in cc.beta)))) < 0:
        n += 1
    return n


def unchecked_mutation_map(dtype: DynkinType, node: int) -> Mat:
    """One mutation's map on the affine companion's dimension vectors with
    the mutated subset relabelled as the source whether or not that is a
    symmetry: the row of each source kept node is the inverse induced
    map's row of the same target node, and i takes iota(i)'s row."""
    arrow = compose(affine_companion(dtype), (node,))
    _, iota_node, _ = mutation_data(arrow.source.diagram, arrow.source.contracted, node)
    target_kept = [n for n in arrow.source.diagram.nodes if n not in arrow.target_subset]
    rows = dict(zip(target_kept, induced_root_map(arrow).inverse))
    return tuple(rows[iota_node if n == node else n] for n in arrow.source.kept)


def generator_acts(dtype: DynkinType, config: SymmetryConfig) -> dict[str, Callable]:
    """The act of each generator of symmetry_generators, by name, with every
    domain decided the long way and every mutation through
    unchecked_mutation_map, so a non-flop node the engine refuses gets an
    act here too.  A mutation moves a class whose dimension vector
    delta = class_to_vector(aff, cc) is nonzero, off the imaginary line and
    a real restricted root by classify_value (motivic), or indivisible
    (numeric).  A numeric twist moves a class with beta nonzero
    and non-negative entry by entry and (chi, beta) coprime.  The duality
    shift is minimal_duality_shift's."""
    aff = affine_companion(dtype)
    rim_bar = imaginary_restriction(aff)
    rigidified = config.rigidified

    @lru_cache(maxsize=None)
    def moves(cc: CurveClass) -> bool:
        delta = class_to_vector(aff, cc)
        if not any(delta) or is_colinear(delta, rim_bar):
            return False
        if rigidified:
            return classify_value(aff, delta) == "real"
        return vec_gcd(delta) == 1

    acts = {}
    if rigidified:
        def twist(cc):
            d = vec_gcd(cc.beta)
            return None if d == 0 else (CurveClass(cc.chi + d, cc.beta), (("d", d),))

        def dual(cc):
            d = vec_gcd(cc.beta)
            if d == 0:
                return None
            n = minimal_duality_shift(dtype, cc)
            return CurveClass(n * d - cc.chi, tuple(-b for b in cc.beta)), (("n", n), ("d", d))

        acts["motivic-twist"], acts["motivic-duality"] = twist, dual

    for idx, node in enumerate(dtype.kept):
        def numeric_twist(cc, idx=idx, node=node):
            chi, beta = cc
            if all(b == 0 for b in beta) or any(b < 0 for b in beta) or vec_gcd((chi, *beta)) != 1:
                return None
            return CurveClass(chi + beta[idx], beta), (("node", node),)

        acts[f"numeric-twist-{node}"] = numeric_twist

    for node in sorted(config.non_flop_nodes):
        matrix = unchecked_mutation_map(dtype, node)
        alpha_bar = class_to_vector(aff, CurveClass(0, tuple(int(n == node) for n in dtype.kept)))

        def mutation(cc, node=node, matrix=matrix, alpha_bar=alpha_bar):
            delta = class_to_vector(aff, cc)
            if not moves(cc) or is_colinear(delta, alpha_bar):
                return None
            image = mat_vec(matrix, delta)
            if any(c < 0 for c in image):
                return None
            return vector_to_class(aff, image), (("node", node),)

        acts[f"mutation-{node}"] = mutation
    return acts


def verdict_constant_on_orbits(dtype: DynkinType, partition: OrbitPartition):
    """Check that forced-zero verdicts are constant on every orbit.

    Returns (ok, offenders) where offenders lists the mixed orbits.
    """
    verdict, offenders = finite_verdicts(dtype, False), []
    for orbit in partition.orbits():
        flags = {verdict(cc).forced_zero for cc in orbit}
        if len(flags) > 1:
            offenders.append(orbit)
    return (not offenders), tuple(offenders)
