"""Vanishing verdicts and forced equalities for curve-counting invariants.

The engine never computes invariant values.  It decides, from the Dynkin
data alone, which invariants are forced to vanish (a dimension vector
whose primitive part is not a restricted root) and which are forced equal
(twists, duality, and mutation symmetries), emitting a certificate with a
rule tag for every verdict and every equality edge.  Candidate verdicts
mean "not forced to vanish", never "nonzero".
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from functools import lru_cache
from math import gcd
from typing import Callable, Iterator, NamedTuple, Optional

from .dynkin import Frozen, build_diagram
from .groupoid import GroupoidError, compose, induced_root_map, self_mutation_identification
from .linalg import Mat, Vec, is_colinear, mat_vec, vec_gcd
from .restriction import (
    DynkinType,
    classify_value,
    finite_restricted_values,
    imaginary_restriction,
)

RULE_NC_VANISHING = "vanishing:nonroot-dimension-vector"
RULE_NC_VANISHING_GLOBAL = "vanishing:nonroot-dimension-vector-global"
RULE_GEOM_VANISHING = "vanishing:nonroot-curve-class"
RULE_TWIST_MOTIVIC = "symmetry:motivic-euler-twist"
RULE_DUAL_MOTIVIC = "symmetry:motivic-duality"
RULE_TWIST_NUMERIC = "symmetry:numeric-line-bundle-twist"
RULE_MUT_MOTIVIC = "symmetry:motivic-mutation"
RULE_MUT_NUMERIC = "symmetry:numeric-mutation"
RULE_GV_TRANSPORT = "symmetry:gv-mutation-transport"


class ClassError(ValueError):
    pass


class CurveClass(NamedTuple):
    """A class (chi, beta) with beta in curve-class coordinates."""

    chi: int
    beta: Vec

    @property
    def d_pair(self) -> int:
        return gcd(self.chi, *self.beta)

    @property
    def d_beta(self) -> int:
        return vec_gcd(self.beta)

    def is_effective(self) -> bool:
        return any(self.beta) and min(self.beta) >= 0

    def to_json(self) -> dict:
        return {"chi": self.chi, "beta": list(self.beta)}


class Verdict(NamedTuple):
    forced_zero: bool
    rule: str
    mult: int
    kind: Optional[str] = None   # "real" | "imaginary" on candidates
    base: Optional[Vec] = None   # primitive restricted root under a candidate
    global_scope: bool = False

    def to_json(self) -> dict:
        return {
            "verdict": "forced-zero" if self.forced_zero else "candidate",
            "paper_ref": self.rule,
            "mult": self.mult,
            "kind": self.kind,
            "base": list(self.base) if self.base is not None else None,
            "global": self.global_scope,
        }


class Certificate(NamedTuple):
    rule: str
    level: str                       # "motivic" | "numeric"
    params: tuple[tuple[str, int], ...] = ()

    def to_json(self) -> dict:
        return {"paper_ref": self.rule, "level": self.level, "params": dict(self.params)}


class SymmetryConfig(NamedTuple):
    rigidified: bool = False
    weighted_homogeneous: bool = False
    non_flop_nodes: frozenset = frozenset()
    chi_max: int = 4
    beta_max: int = 2

    def to_json(self) -> dict:
        return {
            "rigidified": self.rigidified,
            "weighted_homogeneous": self.weighted_homogeneous,
            "non_flop_nodes": sorted(self.non_flop_nodes),
            "window": {"chi": self.chi_max, "beta": self.beta_max},
        }


@lru_cache(maxsize=None)
def affine_companion(dtype: DynkinType) -> DynkinType:
    """The affine type (same family and rank, node 0 kept) of a finite type.

    Cached, so the companion's own cached data is built once per type."""
    if dtype.affine:
        raise ClassError("affine_companion starts from a finite type")
    diagram = build_diagram(dtype.diagram.family, dtype.diagram.rank, affine=True)
    return DynkinType(diagram, dtype.contracted)


def _finite_rim(aff: DynkinType) -> Vec:
    """pi(r_im) at the kept finite nodes of an affine type that keeps node
    0, its first coordinate, where pi(r_im) reads 1."""
    if 0 in aff.contracted:
        raise ClassError("curve classes need node 0 kept")
    return imaginary_restriction(aff)[1:]


def class_to_vector(aff: DynkinType, cc: CurveClass) -> Vec:
    """beta + chi * pi(r_im) in the affine kept coordinates: chi at node 0,
    then beta_i + chi * pi(r_im)_i at the kept finite nodes."""
    return _to_vector(_finite_rim(aff), cc)


def _to_vector(rim_fin: Vec, cc: CurveClass) -> Vec:
    """class_to_vector with pi(r_im) at the kept finite nodes given."""
    if len(cc.beta) != len(rim_fin):
        raise ClassError("beta length does not match the kept finite nodes")
    chi = cc.chi
    return (chi, *(b + chi * r for b, r in zip(cc.beta, rim_fin)))


def vector_to_class(aff: DynkinType, delta: Vec) -> CurveClass:
    """The class of a dimension vector: chi is its node 0 coordinate."""
    return _to_class(_finite_rim(aff), delta)


def _to_class(rim_fin: Vec, delta: Vec) -> CurveClass:
    """vector_to_class with pi(r_im) at the kept finite nodes given."""
    chi = delta[0]
    return CurveClass(chi, tuple(d - chi * r for d, r in zip(delta[1:], rim_fin)))


def vanishing_verdict(dtype: DynkinType, delta: Vec,
                      weighted_homogeneous: bool = False) -> Verdict:
    """Verdict for a dimension vector over an affine type.

    Forced zero exactly when delta/gcd(delta) is not a restricted root;
    membership is decided without window truncation.  With the weighted-
    homogeneous flag the same verdict also labels the global invariant.
    """
    if not dtype.affine:
        raise ClassError("vanishing verdicts take an affine type")
    if len(delta) != len(dtype.kept):
        raise ClassError("dimension vector length does not match the kept nodes")
    if any(c < 0 for c in delta):
        raise ClassError("dimension vectors are non-negative")
    d = vec_gcd(delta)
    if d == 0:
        raise ClassError("the zero dimension vector has no verdict")
    v = tuple(c // d for c in delta)
    hit = classify_value(dtype, v)
    rule = RULE_NC_VANISHING_GLOBAL if weighted_homogeneous else RULE_NC_VANISHING
    if hit is None:
        return Verdict(True, rule, d, global_scope=weighted_homogeneous)
    base = imaginary_restriction(dtype) if hit == "imaginary" else v
    return Verdict(False, rule, d, kind=hit, base=base,
                   global_scope=weighted_homogeneous)


def geometric_verdict(dtype: DynkinType, cc: CurveClass,
                      weighted_homogeneous: bool = False) -> Verdict:
    """Verdict for a class (chi, beta) on a finite type.

    The class must map to a non-negative dimension vector.  beta = 0 is the
    point-class direction and is never forced to vanish; otherwise the
    verdict is forced zero exactly when beta over the pair multiplicity is
    not a finite restricted root.  As on the dimension-vector side, the
    weighted-homogeneous flag extends the verdict to the global invariant.
    """
    return finite_verdicts(dtype, weighted_homogeneous)(cc)


@lru_cache(maxsize=None)
def finite_verdicts(dtype: DynkinType,
                    weighted_homogeneous: bool) -> Callable[[CurveClass], Verdict]:
    """The verdict function of one finite type.  The type's pi(r_im) and
    restricted roots are read once here, so a class costs a cone check, a
    gcd and one set lookup.  Verdicts themselves are not kept."""
    if dtype.affine:
        raise ClassError("geometric verdicts take a finite type")
    aff = affine_companion(dtype)
    rim_fin = _finite_rim(aff)
    rim_bar = imaginary_restriction(aff)
    values = finite_restricted_values(dtype)
    rule, scope = RULE_GEOM_VANISHING, bool(weighted_homogeneous)
    outside = "class does not map into the non-negative dimension vectors"

    def verdict(cc: CurveClass) -> Verdict:
        chi, beta = cc
        if len(beta) != len(rim_fin):
            raise ClassError("beta length does not match the kept finite nodes")
        if chi < 0:
            raise ClassError(outside)
        for b, r in zip(beta, rim_fin):
            if b + chi * r < 0:
                raise ClassError(outside)
        if not any(beta):
            if not chi:
                raise ClassError("the zero class has no verdict")
            return Verdict(False, rule, chi, "imaginary", rim_bar, scope)
        d = gcd(chi, *beta)
        base = beta if d == 1 else tuple([b // d for b in beta])
        if base in values:
            return Verdict(False, rule, d, "real", base, scope)
        return Verdict(True, rule, d, None, None, scope)

    return verdict


class ClassGenerator(Frozen):
    """A partial self-map on classes with its certificate data.  act(cc)
    gives the image and its certificate parameters, or None off the
    domain.  act takes no part in comparison."""

    def __init__(self, name: str, rule: str, level: str,
                 act: Callable[[CurveClass], Optional[tuple[CurveClass, tuple]]]):
        self.__dict__.update(name=name, rule=rule, level=level, act=act)

    def _key(self) -> tuple:
        return (self.name, self.rule, self.level)


@lru_cache(maxsize=None)
def mutation_map(dtype: DynkinType, node: int) -> Mat:
    """The automorphism of dimension vectors of one mutation at a kept finite
    node, self_mutation_identification's on the affine companion; raises
    ClassError where the mutated subset is another contraction."""
    try:
        return self_mutation_identification(compose(affine_companion(dtype), (node,)))
    except GroupoidError as err:
        raise ClassError(str(err)) from None


def symmetry_generators(dtype: DynkinType, config: SymmetryConfig) -> tuple[ClassGenerator, ...]:
    """The configured partial self-maps on classes.

    Motivic twist and duality require the rigidified flag; the line-bundle
    twists hold at the numeric level for coprime pairs only, and the engine
    refuses to chain them through non-coprime intermediates.  Mutation
    generators exist at the nodes whose contraction does not flop, and act
    on dimension vectors through mutation_map, which gv_transport shares;
    a non-flop node whose mutated subset is another contraction raises
    ClassError.  A class moves when its dimension vector delta = (chi,
    beta + chi * pi(r_im)) is a real restricted root (motivic) or
    indivisible off the imaginary line (numeric).  Since delta - chi *
    pi(r_im) = (0, beta) and gcd(delta) = gcd(chi, beta), both are read off
    the class: beta is a finite restricted root, or beta is nonzero and the
    pair coprime.
    """
    if dtype.affine:
        raise ClassError("symmetry generators are configured on a finite type")
    if not config.non_flop_nodes <= set(dtype.kept):
        raise ClassError("non-flop nodes must be kept finite nodes")
    rim_fin = _finite_rim(affine_companion(dtype))
    gens: list[ClassGenerator] = []

    if config.rigidified:
        def twist(cc: CurveClass):
            d = cc.d_beta
            if d == 0:
                return None
            return CurveClass(cc.chi + d, cc.beta), (("d", d),)

        gens.append(ClassGenerator("motivic-twist", RULE_TWIST_MOTIVIC, "motivic", twist))

        def dual(cc: CurveClass):
            d = cc.d_beta
            if d == 0:
                return None
            # the smallest n >= 0 for which (n*d - chi, -beta) maps into the
            # cone: (n*d - chi) * pi(r_im)_i - beta_i >= 0 at every node
            t_min = max(0, *(-(-b // r) for b, r in zip(cc.beta, rim_fin)))
            n = max(0, -(-(t_min + cc.chi) // d))
            # from a list: tuple() over a generator allocates 10 slots and
            # shrinks them, which lifts the traced peak of writing the D4
            # orbits at chi=4, beta=2 by about 80 KB
            out = CurveClass(n * d - cc.chi, tuple([-b for b in cc.beta]))
            return out, (("n", n), ("d", d))

        gens.append(ClassGenerator("motivic-duality", RULE_DUAL_MOTIVIC, "motivic", dual))

    for idx, node in enumerate(dtype.kept):
        def numeric_twist(cc: CurveClass, _idx=idx, _node=node):
            if not (cc.is_effective() and cc.d_pair == 1):
                return None
            return CurveClass(cc.chi + cc.beta[_idx], cc.beta), (("node", _node),)

        gens.append(ClassGenerator(
            f"numeric-twist-{node}", RULE_TWIST_NUMERIC, "numeric", numeric_twist))

    rigid = config.rigidified
    level = "motivic" if rigid else "numeric"
    values = finite_restricted_values(dtype)

    for node in sorted(config.non_flop_nodes):
        matrix = mutation_map(dtype, node)
        alpha_bar = _to_vector(rim_fin, CurveClass(0, tuple(
            1 if n == node else 0 for n in dtype.kept)))

        def mutation(cc: CurveClass, _node=node, _alpha=alpha_bar, _matrix=matrix):
            if not (cc.beta in values if rigid else any(cc.beta) and cc.d_pair == 1):
                return None
            delta = _to_vector(rim_fin, cc)
            if is_colinear(delta, _alpha):
                return None
            image = mat_vec(_matrix, delta)
            if any(c < 0 for c in image):
                return None
            return _to_class(rim_fin, image), (("node", _node),)

        gens.append(ClassGenerator(
            f"mutation-{node}", RULE_MUT_MOTIVIC if rigid else RULE_MUT_NUMERIC,
            level, mutation))

    return tuple(gens)


def window_classes(dtype: DynkinType, config: SymmetryConfig) -> Iterator[CurveClass]:
    """All nonzero classes in the window that map into the cone, in
    lexicographic (chi, beta) order, generated one at a time.

    Node 0 of the dimension vector is chi >= 0, and a kept finite node reads
    beta_i + chi * pi(r_im)_i, so each beta_i starts at the larger of
    -beta_max and -chi * pi(r_im)_i; no class outside the cone is built.
    Each class is built at C level, by tuple.__new__ as CurveClass(chi,
    beta) builds it, so a sweep costs no Python call per class."""
    rim_fin = _finite_rim(affine_companion(dtype))
    b_max = config.beta_max

    def box(chi: int) -> Iterator[CurveClass]:
        betas = itertools.product(*(range(max(-b_max, -chi * r), b_max + 1) for r in rim_fin))
        if chi == 0:
            next(betas, None)   # the zero class comes first and has no verdict
        return map(tuple.__new__, itertools.repeat(CurveClass), zip(itertools.repeat(chi), betas))

    return itertools.chain.from_iterable(map(box, range(config.chi_max + 1)))


# the largest C int, 32 bits wide on every platform CPython runs on
INDEX_MAX = 2 ** 31 - 1


def _ints(n: int) -> memoryview:
    """n C ints, all 0, in a bytearray.  The array module would do as well,
    but loading it adds about 0.1 MB to the peak RSS of every command."""
    return memoryview(bytearray(4 * n)).cast("i")


class ClassWindow:
    """The classes of window_classes numbered in its order, and size, their
    number.  At each chi the betas run over one product box, the last
    coordinate fastest, so a class's index is a per-chi base plus sum
    beta_i * stride_i.  index is None for a class outside the box, so
    outside the window or the cone, and for the zero class; at is its
    inverse.  A row holds its chi's base and one (floor, stride) pair per
    coordinate.

    beta_i takes beta_max + 1 + min(beta_max, chi * pi(r_im)_i) values, and
    from the first chi at which every floor is -beta_max each box is the
    full cube, so a window too large to index is counted without a row
    apiece: it raises ClassError above INDEX_MAX, before anything per class
    is built."""

    def __init__(self, dtype: DynkinType, config: SymmetryConfig):
        rim_fin = _finite_rim(affine_companion(dtype))
        b_max = self._beta_max = config.beta_max
        cube = (2 * b_max + 1) ** len(rim_fin)
        rows, starts, start = [], [], -1   # the zero class, first at chi = 0, has no index
        for chi in range(config.chi_max + 1):
            floors = tuple(max(-b_max, -chi * r) for r in rim_fin)
            strides, box = [], 1
            for lo in reversed(floors):
                strides.append(box)
                box *= b_max + 1 - lo
            strides.reverse()
            if box == cube and start + box * (config.chi_max + 1 - chi) > INDEX_MAX:
                start += box * (config.chi_max + 1 - chi)   # every later box is the cube
                break
            if start <= INDEX_MAX:   # past it the rest is only counted
                rows.append((start - sum(lo * s for lo, s in zip(floors, strides)),
                             tuple(zip(floors, strides))))
                starts.append(start)
            start += box
        if start > INDEX_MAX:
            raise ClassError(f"the window holds {start} classes, more than the "
                             f"{INDEX_MAX} that a class index can number")
        self.size = start
        self._rows, self._starts = rows, starts

    def index(self, cc: CurveClass) -> Optional[int]:
        chi, beta = cc
        if not 0 <= chi < len(self._rows):
            return None
        i, digits = self._rows[chi]
        b_max = self._beta_max
        for b, (lo, s) in zip(beta, digits):
            if not lo <= b <= b_max:
                return None
            i += b * s
        return i if i >= 0 else None

    def at(self, i: int) -> CurveClass:
        """The class of index i: its chi by bisection on the rows' first
        indices, then each beta_i by division with the strides."""
        if not 0 <= i < self.size:
            raise IndexError(f"class index {i} is outside a window of {self.size}")
        chi = bisect_right(self._starts, i) - 1
        rest = i - self._starts[chi]
        beta = []
        for lo, s in self._rows[chi][1]:
            beta.append(lo + rest // s)
            rest %= s
        return tuple.__new__(CurveClass, (chi, tuple(beta)))


def _find(parent: memoryview, i: int) -> int:
    """The root of i in a union-find forest; the path to it is compressed."""
    root = i
    while parent[root] != root:
        root = parent[root]
    while parent[i] != root:
        parent[i], i = root, parent[i]
    return root


class OrbitPartition:
    """The orbits of the configured generators on a window of classes, and
    one certificate per generator step, found in one union-find pass.

    certificates() yields each step (from, to, Certificate) as the pass
    makes it, generator by generator and each in class order.  The steps
    are read once and before the orbits: reading them a second time, or
    after the orbits, raises RuntimeError.  orbits() finishes what is left
    of the pass and yields the orbits one at a time; no step and no orbit
    is kept.  The pass holds no class: it builds the window's classes
    again for each generator, and per class it holds one C int, its
    parent's index."""

    def __init__(self, dtype: DynkinType, config: SymmetryConfig, window: ClassWindow,
                 gens: tuple[ClassGenerator, ...]):
        self.dtype = dtype
        self.config = config
        self._window = window
        self._parent = parent = _ints(window.size)
        for i in range(window.size):
            parent[i] = i
        self._steps = self._closure(gens)
        self._read = False
        self._grouped = False

    def _closure(self, gens: tuple[ClassGenerator, ...]):
        """The pass, over class indices.  A generator meets each class once
        and decides on the class alone, and the generators of one rule
        differ in params, so no step repeats.  A root is the smallest index
        of its tree."""
        index, parent = self._window.index, self._parent
        for gen in gens:
            act, rule, level = gen.act, gen.rule, gen.level
            for i, cc in enumerate(window_classes(self.dtype, self.config)):
                hit = act(cc)
                if hit is None:
                    continue
                img, params = hit
                j = index(img)
                if j is None or j == i:
                    continue
                ri, rj = _find(parent, i), _find(parent, j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
                yield cc, img, Certificate(rule, level, params)

    def certificates(self) -> Iterator[tuple[CurveClass, CurveClass, Certificate]]:
        """The steps of the pass, once; checked when iteration starts, and
        again after each step in case the orbits were read meanwhile."""
        if self._read or self._grouped:
            raise RuntimeError("the certificates are read once, before the orbits")
        self._read = True
        for step in self._steps:
            yield step
            if self._grouped:
                raise RuntimeError("the certificates are read once, before the orbits")

    def orbits(self) -> Iterator[tuple[CurveClass, ...]]:
        """Sorted members per orbit, the orbits in order of their first
        members, once the pass is finished; each orbit is built as it is
        yielded and not kept.  Each root is its orbit's smallest index and
        a parent is smaller than its child, so one ascending pass sets
        every parent to its root; a descending pass then links each member
        in right after its root, which leaves every orbit's members linked
        in index order, and the classes come sorted.  A link of 0 ends a
        list, since index 0 is a root."""
        for _ in self._steps:
            pass
        self._grouped = True
        at, parent = self._window.at, self._parent
        n = self._window.size
        for i in range(n):
            parent[i] = parent[parent[i]]
        following = _ints(n)
        for i in range(n - 1, -1, -1):
            root = parent[i]
            if root != i:
                following[i], following[root] = following[root], i
        for root in range(n):
            if parent[root] == root:
                members, i = [at(root)], following[root]
                while i:
                    members.append(at(i))
                    i = following[i]
                yield tuple(members)

    def to_json(self) -> dict:
        """The document with its orbits and certificates as generators, so
        the JSON writer builds each entry only as it writes it, and no
        orbit is kept.  Keys are written sorted, so the certificates are
        written, and the pass ends, before the orbits are grouped."""

        def orbits():
            for o in self.orbits():
                members = [m.to_json() for m in o]
                yield {"representative": members[0], "members": members}

        return {
            "type": self.dtype.to_json(),
            "config": self.config.to_json(),
            "orbits": orbits(),
            "certificates": (
                {"from": a.to_json(), "to": b.to_json(), **cert.to_json()}
                for a, b, cert in self.certificates()
            ),
        }


def orbit_partition(dtype: DynkinType, config: SymmetryConfig) -> OrbitPartition:
    """The orbit partition of the window under the configured generators.
    The window and generators are built here, so a bad type or config, or
    a window too large to index, raises before any output; the union-find
    pass runs only as the partition's certificates or orbits are read."""
    return OrbitPartition(dtype, config, ClassWindow(dtype, config),
                          symmetry_generators(dtype, config))


class TransportResult(NamedTuple):
    source_beta: Vec
    node: int
    image_beta: Vec
    target: str                       # "same space" | "flopped space"
    target_contracted: tuple[int, ...]
    rule: str = RULE_GV_TRANSPORT

    def to_json(self) -> dict:
        return {
            "beta": list(self.source_beta),
            "node": self.node,
            "image_beta": list(self.image_beta),
            "target": self.target,
            "target_contracted": list(self.target_contracted),
            "paper_ref": self.rule,
        }


def gv_transport(dtype: DynkinType, beta: Vec, node: int, flop: bool) -> TransportResult:
    """Transport an effective class through the mutation at one node.

    Rejects classes colinear to the node's curve class, whose transport is
    not covered.  Through a flop the image is the inverse induced lattice
    map applied to the class's dimension vector, read in the flopped
    space's coordinates.  Otherwise it is mutation_map's image read in the
    source's own, and a node whose mutated subset is another contraction
    raises ClassError.  Effectiveness of the image is asserted.
    """
    if dtype.affine:
        raise ClassError("gv transport takes a finite type")
    if node not in dtype.kept:
        raise ClassError(f"node {node} is not a kept finite node")
    # first, so that every row at a refused node is skipped for that reason
    matrix = None if flop else mutation_map(dtype, node)
    if not all(b >= 0 for b in beta) or all(b == 0 for b in beta):
        raise ClassError("beta must be a nonzero effective class")
    unit = tuple(1 if n == node else 0 for n in dtype.kept)
    if is_colinear(beta, unit):
        raise ClassError("beta colinear to the contracted curve's class is not covered")
    if beta not in finite_restricted_values(dtype):
        raise ClassError(
            "beta is not a positive restricted root: its curve count is forced "
            "to vanish and the transport relation is vacuous"
        )
    aff = affine_companion(dtype)
    delta = class_to_vector(aff, CurveClass(1, beta))
    if flop:
        arrow = compose(aff, (node,))
        # the target contracts only nodes of S and the node itself, all
        # finite, so it keeps node 0
        space = DynkinType(aff.diagram, arrow.target_subset)
        image = mat_vec(induced_root_map(arrow).inverse, delta)
    else:
        space, image = aff, mat_vec(matrix, delta)
    chi, beta_img = vector_to_class(space, image)
    if chi != 1:
        raise ClassError("transport did not preserve the point class")
    if any(b < 0 for b in beta_img):
        raise ClassError("transported class is not effective")
    return TransportResult(beta, node, beta_img, "flopped space" if flop else "same space",
                           tuple(sorted(space.contracted)))
