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
from functools import lru_cache, partial
from math import gcd, prod
from typing import Callable, Iterator, NamedTuple, Optional

from .dynkin import Frozen, build_diagram
from .groupoid import compose, induced_root_map, self_mutation_identification, step_relabelling
from .linalg import Vec, is_colinear, mat_vec, vec_gcd
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
        return any(b != 0 for b in self.beta) and all(b >= 0 for b in self.beta)

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
    """A partial self-map on classes with its certificate data.  act(cc, i)
    gives the image and its certificate parameters, or None off the
    domain; i is the class's index in its window, which a generator may
    use to remember what it decided about the class, or None.  act takes
    no part in comparison."""

    def __init__(self, name: str, rule: str, level: str,
                 act: Callable[..., Optional[tuple[CurveClass, tuple]]]):
        self.__dict__.update(name=name, rule=rule, level=level, act=act)

    def _key(self) -> tuple:
        return (self.name, self.rule, self.level)


def mutation_vector_map(dtype: DynkinType, node: int) -> Callable[[Vec], Vec]:
    """The self-map on dimension vectors induced by one mutation at a kept
    finite node, through the canonical relabelling of the mutated subset."""
    arrow = compose(affine_companion(dtype), (node,))
    return partial(mat_vec, self_mutation_identification(arrow))


def symmetry_generators(dtype: DynkinType, config: SymmetryConfig) -> tuple[ClassGenerator, ...]:
    """The configured partial self-maps on classes.

    Motivic twist and duality require the rigidified flag; the line-bundle
    twists hold at the numeric level for coprime pairs only, and the engine
    refuses to chain them through non-coprime intermediates.  Mutation
    generators exist at the nodes whose contraction does not flop, and act
    on dimension vectors through the induced lattice map.  What the twists
    and the mutations share about a class is decided once per window index.
    """
    if dtype.affine:
        raise ClassError("symmetry generators are configured on a finite type")
    if not config.non_flop_nodes <= set(dtype.kept):
        raise ClassError("non-flop nodes must be kept finite nodes")
    size = window_size(dtype, config)
    aff = affine_companion(dtype)
    rim_fin = _finite_rim(aff)
    rim_bar = imaginary_restriction(aff)
    gens: list[ClassGenerator] = []

    if config.rigidified:
        def twist(cc: CurveClass, i=None):
            d = cc.d_beta
            if d == 0:
                return None
            return CurveClass(cc.chi + d, cc.beta), (("d", d),)

        gens.append(ClassGenerator("motivic-twist", RULE_TWIST_MOTIVIC, "motivic", twist))

        def dual(cc: CurveClass, i=None):
            d = cc.d_beta
            if d == 0:
                return None
            # the smallest n >= 0 for which (n*d - chi, -beta) maps into the
            # cone: (n*d - chi) * pi(r_im)_i - beta_i >= 0 at every node
            t_min = max(0, *(-(-b // r) for b, r in zip(cc.beta, rim_fin)))
            n = max(0, -(-(t_min + cc.chi) // d))
            out = CurveClass(n * d - cc.chi, tuple(-b for b in cc.beta))
            return out, (("n", n), ("d", d))

        gens.append(ClassGenerator("motivic-duality", RULE_DUAL_MOTIVIC, "motivic", dual))

    def coprime_effective(cc: CurveClass) -> bool:
        return cc.is_effective() and cc.d_pair == 1

    twistable = _by_index(size, coprime_effective)

    for idx, node in enumerate(dtype.kept):
        def numeric_twist(cc: CurveClass, i=None, _idx=idx, _node=node):
            if not twistable(cc, i):
                return None
            return CurveClass(cc.chi + cc.beta[_idx], cc.beta), (("node", _node),)

        gens.append(ClassGenerator(
            f"numeric-twist-{node}", RULE_TWIST_NUMERIC, "numeric", numeric_twist))

    level = "motivic" if config.rigidified else "numeric"

    def moves(cc: CurveClass) -> bool:
        """Whether the class's dimension vector is nonzero, off the imaginary
        line, and a real restricted root (motivic) or indivisible
        (numeric)."""
        delta = _to_vector(rim_fin, cc)
        if not any(delta) or is_colinear(delta, rim_bar):
            return False
        if level == "motivic":
            return classify_value(aff, delta) == "real"
        return vec_gcd(delta) == 1

    movable = _by_index(size if config.non_flop_nodes else 0, moves)

    for node in sorted(config.non_flop_nodes):
        apply_map = mutation_vector_map(dtype, node)
        alpha_bar = _to_vector(rim_fin, CurveClass(0, tuple(
            1 if n == node else 0 for n in dtype.kept)))

        def mutation(cc: CurveClass, i=None, _node=node, _alpha=alpha_bar, _apply=apply_map):
            if not movable(cc, i):
                return None
            delta = _to_vector(rim_fin, cc)
            if is_colinear(delta, _alpha):
                return None
            image = _apply(delta)
            if any(c < 0 for c in image):
                return None
            return _to_class(rim_fin, image), (("node", _node),)

        gens.append(ClassGenerator(
            f"mutation-{node}", RULE_MUT_MOTIVIC if config.rigidified else RULE_MUT_NUMERIC,
            level, mutation))

    return tuple(gens)


def _by_index(size: int, test: Callable[[CurveClass], bool]) -> Callable:
    """test(cc, i), remembered per window index i in a bytearray (0 not yet
    decided, 1 no, 2 yes), so that the generators that share it decide a
    class once whatever their number.  A call with i None is not
    remembered."""
    decided = bytearray(size)

    def remembered(cc: CurveClass, i: Optional[int]) -> bool:
        if i is None:
            return test(cc)
        known = decided[i]
        if not known:
            known = decided[i] = 2 if test(cc) else 1
        return known == 2

    return remembered


def window_classes(dtype: DynkinType, config: SymmetryConfig) -> Iterator[CurveClass]:
    """All nonzero classes in the window that map into the cone, in
    lexicographic (chi, beta) order, generated one at a time.

    Node 0 of the dimension vector is chi >= 0, and a kept finite node reads
    beta_i + chi * pi(r_im)_i, so each beta_i starts at the larger of
    -beta_max and -chi * pi(r_im)_i; no class outside the cone is built."""
    aff = affine_companion(dtype)
    rim_fin = _finite_rim(aff)
    b_max = config.beta_max
    for chi in range(config.chi_max + 1):
        betas = itertools.product(*(range(max(-b_max, -chi * r), b_max + 1) for r in rim_fin))
        if chi == 0:
            next(betas, None)   # the zero class comes first and has no verdict
        for beta in betas:
            yield CurveClass(chi, beta)


# the largest C int, 32 bits wide on every platform CPython runs on
INDEX_MAX = 2 ** 31 - 1


def _ints(n: int) -> memoryview:
    """n C ints, all 0, in a bytearray.  The array module would do as well,
    but loading it adds about 0.1 MB to the peak RSS of every command."""
    return memoryview(bytearray(4 * n)).cast("i")


def window_size(dtype: DynkinType, config: SymmetryConfig) -> int:
    """The number of classes window_classes yields, counted from its boxes:
    beta_i takes beta_max + 1 + min(beta_max, chi * pi(r_im)_i) values, and
    from the first chi at which every floor is -beta_max each box is the
    full cube.  Raises ClassError above INDEX_MAX, before anything per
    class is built."""
    rim_fin = _finite_rim(affine_companion(dtype))
    b_max = config.beta_max
    cube = (2 * b_max + 1) ** len(rim_fin)
    size = -1   # the zero class
    for chi in range(config.chi_max + 1):
        box = prod(b_max + 1 + min(b_max, chi * r) for r in rim_fin)
        if box == cube:
            size += box * (config.chi_max + 1 - chi)
            break
        size += box
    if size > INDEX_MAX:
        raise ClassError(f"the window holds {size} classes, more than the "
                         f"{INDEX_MAX} that a class index can number")
    return size


class ClassWindow:
    """The classes of window_classes numbered in its order.  At each chi the
    betas run over one product box, the last coordinate fastest, so a
    class's index is a per-chi base plus sum beta_i * stride_i.  index is
    None for a class outside the box, so outside the window or the cone,
    and for the zero class."""

    def __init__(self, dtype: DynkinType, config: SymmetryConfig):
        window_size(dtype, config)   # raises before a row is built
        rim_fin = _finite_rim(affine_companion(dtype))
        b_max = self._beta_max = config.beta_max
        rows, start = [], -1   # the zero class, first at chi = 0, has no index
        for chi in range(config.chi_max + 1):
            floors = tuple(max(-b_max, -chi * r) for r in rim_fin)
            strides, box = [], 1
            for lo in reversed(floors):
                strides.append(box)
                box *= b_max + 1 - lo
            strides.reverse()
            base = start - sum(lo * s for lo, s in zip(floors, strides))
            rows.append((base, floors, tuple(strides)))
            start += box
        self._rows = rows

    def index(self, cc: CurveClass) -> Optional[int]:
        chi, beta = cc
        if not 0 <= chi < len(self._rows):
            return None
        i, floors, strides = self._rows[chi]
        b_max = self._beta_max
        for b, lo, s in zip(beta, floors, strides):
            if not lo <= b <= b_max:
                return None
            i += b * s
        return i if i >= 0 else None


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
    after the orbits, raises RuntimeError.  orbits finishes what is left of
    the pass and groups the classes by root; no step is kept.  Besides the
    classes, the pass holds per class one C int, its parent's index, and
    the generators' memo bytes."""

    def __init__(self, dtype: DynkinType, config: SymmetryConfig, window: ClassWindow,
                 classes: tuple[CurveClass, ...], gens: tuple[ClassGenerator, ...]):
        self.dtype = dtype
        self.config = config
        self._classes = classes
        self._parent = parent = _ints(len(classes))
        for i in range(len(classes)):
            parent[i] = i
        self._steps = self._closure(window.index, gens)
        self._read = False
        self._grouped = False
        self._kept: Optional[tuple[tuple[CurveClass, ...], ...]] = None

    def _closure(self, index: Callable[[CurveClass], Optional[int]],
                 gens: tuple[ClassGenerator, ...]):
        """The pass, over class indices.  A generator meets each class once,
        and the generators of one rule differ in params, so no step
        repeats.  A root is the smallest index of its tree."""
        classes, parent = self._classes, self._parent
        for gen in gens:
            act, rule, level = gen.act, gen.rule, gen.level
            for i, cc in enumerate(classes):
                hit = act(cc, i)
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

    def _orbits(self) -> Iterator[tuple[CurveClass, ...]]:
        """Sorted members per orbit, the orbits in order of their first
        members, once the pass is finished.  Each root is its orbit's
        smallest index and a parent is smaller than its child, so one
        ascending pass sets every parent to its root; a descending pass
        then links each member in right after its root, which leaves every
        orbit's members linked in index order, and the classes come
        sorted.  A link of 0 ends a list, since index 0 is a root."""
        for _ in self._steps:
            pass
        self._grouped = True
        classes, parent = self._classes, self._parent
        n = len(classes)
        for i in range(n):
            parent[i] = parent[parent[i]]
        following = _ints(n)
        for i in range(n - 1, -1, -1):
            root = parent[i]
            if root != i:
                following[i], following[root] = following[root], i
        for root in range(n):
            if parent[root] == root:
                members, i = [classes[root]], following[root]
                while i:
                    members.append(classes[i])
                    i = following[i]
                yield tuple(members)

    @property
    def orbits(self) -> tuple[tuple[CurveClass, ...], ...]:
        """The orbits, grouped on the first read and kept."""
        if self._kept is None:
            self._kept = tuple(self._orbits())
        return self._kept

    def to_json(self) -> dict:
        """The document with its orbits and certificates as generators, so
        the JSON writer builds each entry only as it writes it, and no
        orbit is kept.  Keys are written sorted, so the certificates are
        written, and the pass ends, before the orbits are grouped."""

        def orbits():
            for o in self._orbits():
                yield {
                    "representative": o[0].to_json(),
                    "members": [m.to_json() for m in o],
                }

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
    The classes and generators are built here, so a bad type or config
    raises before any output; the union-find pass runs only as the
    partition's certificates or orbits are read.  The window is numbered
    first, so a window too large to index raises before any class is
    built.  The classes of one beta share its tuple, so a beta is held
    once, not once per chi."""
    window = ClassWindow(dtype, config)
    betas: dict = {}
    classes = tuple(CurveClass(chi, betas.setdefault(beta, beta))
                    for chi, beta in window_classes(dtype, config))
    return OrbitPartition(dtype, config, window, classes, symmetry_generators(dtype, config))


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
    not covered.  The image is the inverse induced lattice map applied to
    the class's dimension vector; effectiveness of the image is asserted.
    """
    if dtype.affine:
        raise ClassError("gv transport takes a finite type")
    if node not in dtype.kept:
        raise ClassError(f"node {node} is not a kept finite node")
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
    arrow = compose(aff, (node,))
    delta = class_to_vector(aff, CurveClass(1, beta))
    image = mat_vec(induced_root_map(arrow).inverse, delta)
    # the target contracts only nodes of S and the node itself, all finite,
    # so it keeps node 0
    target_dtype = DynkinType(aff.diagram, arrow.target_subset)
    chi, beta_img = vector_to_class(target_dtype, image)
    if chi != 1:
        raise ClassError("transport did not preserve the point class")

    if flop:
        if any(b < 0 for b in beta_img):
            raise ClassError("transported class is not effective")
        return TransportResult(beta, node, beta_img, "flopped space",
                               tuple(sorted(n for n in arrow.target_subset)))
    relabel = step_relabelling(arrow)
    back = {relabel[t]: b for t, b in zip(target_dtype.kept[1:], beta_img)}
    beta_same = tuple(back[n] for n in dtype.kept)
    if any(b < 0 for b in beta_same):
        raise ClassError("transported class is not effective")
    return TransportResult(beta, node, beta_same, "same space",
                           tuple(sorted(dtype.contracted)))
