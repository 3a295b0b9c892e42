"""Intersection arrangements: chambers, wall-crossing, level slices, and
galleries, all in exact integer arithmetic.

A chamber labelled (w, S) is the simplicial cone spanned by the dual
vectors w . alpha_i^* for kept nodes i of S, cut to the coordinate
subspace of the base type's kept nodes.  Its facet through the rays other
than the i-th lies in the hyperplane orthogonal to the restriction of
w . alpha_i, which makes containment tests pure sign checks.

Two ways move through the chamber graph.  `ChamberGraph.bfs` is a
breadth-first search that enumerates the chambers within a number of
crossings; it expands each chamber once and lists each wall between them
once, by chamber index.  A straight-segment walk crosses the walls a
segment meets, in order, and expands only the facets it crosses, memoised
per graph (`ChamberGraph.edge`).  Where several walls meet the segment at
one point, it crosses them one at a time, first facet in order first, so
every segment is walked once, with no restart.  The walk locates points
(`locate_by_walk`) and builds galleries through two given walls
(`gallery_through_wall`).
"""

from __future__ import annotations

from functools import cached_property
from math import gcd
from typing import Iterable

from .dynkin import DiagramError, Frozen
from .groupoid import GroupoidArrow, mutate
from .linalg import (
    Vec,
    dot,
    eliminate,
    is_colinear,
    primitive,
    vec_gcd,
)
from .restriction import (
    DynkinType,
    finite_restricted_values,
    imaginary_restriction,
    is_restricted_root,
    restrict,
)
from .weyl import WeylElement, identity


class SignCrossing(Exception):
    """Raised when a crossing would leave the chamber's sign class: the
    positive side of the imaginary wall, where every chamber lies."""


class GeometryError(RuntimeError):
    """An algebraic label disagrees with the chamber geometry."""


class Hyperplane(Frozen):
    """A wall {theta : theta(normal) = offset}.

    Linear walls have offset 0 and a primitive sign-normalised normal;
    level-slice walls carry an integer offset and are normalised jointly
    (gcd of all entries including the offset is 1, leading normal entry
    positive)."""

    def __init__(self, normal: Vec, offset: int = 0):
        self.__dict__.update(normal=normal, offset=offset)
        if vec_gcd((*normal, offset)) != 1:
            raise ValueError("hyperplane data must be jointly primitive")
        lead = next((c for c in normal if c != 0), None)
        if lead is None or lead < 0:
            raise ValueError("hyperplane normal must be sign-normalised and nonzero")

    def _key(self) -> tuple:
        return (self.normal, self.offset)

    def to_json(self) -> dict:
        return {"normal": list(self.normal), "offset": self.offset}


def wall_through(normal: Vec, offset: int = 0) -> Hyperplane:
    """Normalise (normal, offset) jointly and build the wall."""
    g = vec_gcd((*normal, offset))
    if g == 0:
        raise ValueError("zero wall data")
    normal = tuple(c // g for c in normal)
    offset //= g
    lead = next(c for c in normal if c != 0)
    if lead < 0:
        normal, offset = tuple(-c for c in normal), -offset
    return Hyperplane(normal, offset)


def _chamber_key(subset: frozenset, weyl: WeylElement) -> tuple:
    return (tuple(sorted(subset)), weyl.matrix)


class Chamber(Frozen):
    """The cone w C_subset.  Chambers form one sign class, on affine types
    the positive side of the imaginary wall, so `sign` is the constant +1;
    the JSON writes it, and the benchmark's tracer (bench/shim.py) reads it."""

    sign = 1

    def __init__(self, dtype: DynkinType, weyl: WeylElement, subset: frozenset,
                 rays: tuple[Vec, ...]):
        self.__dict__.update(dtype=dtype, weyl=weyl, subset=subset, rays=rays)

    def _key(self) -> tuple:
        return (self.dtype, self.weyl, self.subset, self.rays)

    @property
    def kept_of_subset(self) -> tuple[int, ...]:
        return tuple(n for n in self.dtype.diagram.nodes if n not in self.subset)

    def key(self):
        return _chamber_key(self.subset, self.weyl)

    @cached_property
    def interior(self) -> Vec:
        """The sum of the rays, a point strictly inside the chamber."""
        return tuple(sum(column) for column in zip(*self.rays))

    @cached_property
    def facet_normals(self) -> tuple[Vec, ...]:
        """Unnormalised inner normal data of every facet, in facet order:
        facet k's is the restriction of w . alpha_{i_k}, which pairs to +1
        with ray k and to 0 with every other ray."""
        return tuple(restrict(self.dtype, self.weyl.image_of_simple(node))
                     for node in self.kept_of_subset)

    def coords_in(self, point: Vec) -> tuple:
        """Coefficients of a point over the rays (dual-basis pairing)."""
        return tuple(dot(point, n) for n in self.facet_normals)

    def label_str(self) -> str:
        word = ",".join(str(i) for i in self.weyl.word) or "e"
        subset = ",".join(str(n) for n in sorted(self.subset)) or "-"
        return f"+[{word}|{subset}]"

    def to_json(self) -> dict:
        return {
            "sign": self.sign,
            "word": list(self.weyl.word),
            "subset": sorted(self.subset),
            "rays": [list(r) for r in self.rays],
        }


def chamber_from_label(dtype: DynkinType, weyl: WeylElement, subset: Iterable[int]) -> Chamber:
    """Build the chamber w C_subset inside the base coordinate space.

    Raises GeometryError when the labelled cone does not lie in that
    subspace.  Once it does, it is full-dimensional: the rays are the rows
    of w^-1 at the nodes off the subset, cut to the kept columns, and the
    rest of each row is zero.  With rows ordered (off subset, subset) and
    columns (kept, contracted), w^-1 is block lower-triangular and the ray
    matrix is a diagonal block, so det(rays) divides det(w^-1) = +-1.
    """
    subset = frozenset(subset)
    diagram = dtype.diagram
    if len(subset) != len(dtype.contracted):
        raise GeometryError("label subset size must match the base contracted size")
    minv = weyl.inverse_matrix
    kept_cols = [diagram.index[n] for n in dtype.kept]
    contracted_cols = [diagram.index[n] for n in sorted(dtype.contracted)]
    rays = []
    for node in (n for n in diagram.nodes if n not in subset):
        row = minv[diagram.index[node]]
        if any(row[c] != 0 for c in contracted_cols):
            raise GeometryError(
                f"chamber ray for node {node} does not vanish on the contracted roots"
            )
        rays.append(tuple(row[c] for c in kept_cols))
    return Chamber(dtype, weyl, subset, tuple(rays))


def fundamental_chamber(dtype: DynkinType) -> Chamber:
    """C_J: label (identity, contracted), rays the kept dual basis vectors."""
    return chamber_from_label(dtype, identity(dtype.diagram), dtype.contracted)


def facet_index_of_node(chamber: Chamber, node: int) -> int:
    try:
        return chamber.kept_of_subset.index(node)
    except ValueError:
        raise GeometryError(f"node {node} does not index a facet of this chamber") from None


def shares_facet(c1: Chamber, k: int, c2: Chamber) -> None:
    """Check that c2 is the chamber across facet k of c1; raise otherwise.

    Verifies opposite strict sides of the wall, a facet of c2 in the same
    wall, and that the two facet cones are equal (full rank inside the wall
    is automatic because the rays of a simplicial chamber are independent).
    """
    normal = c1.facet_normals[k]
    s1 = dot(c1.interior, normal)
    s2 = dot(c2.interior, normal)
    if s1 == 0 or s2 == 0 or (s1 > 0) == (s2 > 0):
        raise GeometryError("chambers do not sit on opposite sides of the wall")
    k2 = next((j for j, n2 in enumerate(c2.facet_normals) if is_colinear(n2, normal)), None)
    if k2 is None:
        raise GeometryError("second chamber has no facet in the crossed wall")
    # Each facet is a simplicial cone on the chamber's other rays, and every
    # ray is primitive: a row of a unimodular matrix (the label's inverse)
    # whose contracted entries are zero.  Equal ray sets give equal facet
    # cones, so each lies in the other closed chamber.  Conversely, a
    # simplicial cone fixes its extreme rays up to positive scale and a
    # primitive integer vector is the only one on its ray, so mutual
    # containment of the facets forces equal ray sets: the comparison is
    # the two-way containment test, exactly.
    facet1 = {ray for j, ray in enumerate(c1.rays) if j != k}
    facet2 = {ray for j, ray in enumerate(c2.rays) if j != k2}
    if facet1 != facet2:
        raise GeometryError("the two chambers do not share the crossed facet")


def cross_wall(chamber: Chamber, k: int,
               known: dict | None = None) -> tuple[Chamber, Hyperplane]:
    """Cross facet k; returns the unique chamber sharing it and the wall.

    The new label comes from the groupoid mutation and is verified
    geometrically.  When `known` (a map from chamber keys to chambers)
    already holds the new label's chamber, that chamber is reused instead
    of being built again; it is facet-checked all the same.  A facet lying
    in the hyperplane of the restricted imaginary root signals a
    sign-crossing instead of returning a chamber.
    """
    dtype = chamber.dtype
    raw = chamber.facet_normals[k]
    rim_bar = imaginary_restriction(dtype) if dtype.affine else None
    if rim_bar is not None and is_colinear(raw, rim_bar):
        raise SignCrossing("facet lies in the imaginary-root hyperplane")
    node = chamber.kept_of_subset[k]
    weyl, subset = mutate(chamber.weyl, chamber.subset, node)
    c2 = None
    if known is not None:
        c2 = known.get(_chamber_key(subset, weyl))
    if c2 is None:
        c2 = chamber_from_label(dtype, weyl, subset)
    shares_facet(chamber, k, c2)
    return c2, Hyperplane(primitive(raw))


class Gallery(Frozen):
    def __init__(self, chambers: tuple[Chamber, ...], walls: tuple[Hyperplane, ...]):
        self.__dict__.update(chambers=chambers, walls=walls)
        if len(walls) != len(chambers) - 1:
            raise ValueError("a gallery needs one wall per adjacent chamber pair")

    def _key(self) -> tuple:
        return (self.chambers, self.walls)

    @property
    def length(self) -> int:
        return len(self.walls)


def path_to_gallery(arrow: GroupoidArrow) -> Gallery:
    """The wall-crossing gallery traced by a mutation path.

    The k-th wall is the restriction of (product of the first k-1 omegas)
    applied to alpha_{i_k}.  Every crossing is facet-checked by
    `cross_wall`, and a final chamber other than the arrow's labelled one
    raises GeometryError.
    """
    chambers = [fundamental_chamber(arrow.source)]
    walls = []
    for _, node in arrow.word:
        chamber, wall = cross_wall(chambers[-1], facet_index_of_node(chambers[-1], node))
        chambers.append(chamber)
        walls.append(wall)
    final = chambers[-1]
    if (final.subset, final.weyl.matrix) != (arrow.target_subset, arrow.weyl.matrix):
        raise GeometryError("gallery endpoint disagrees with the composed arrow")
    return Gallery(tuple(chambers), tuple(walls))


class ChamberGraph:
    """Lazily expanded adjacency structure on the chambers of the sign class."""

    def __init__(self, dtype: DynkinType):
        self.dtype = dtype
        base = fundamental_chamber(dtype)
        self.chambers: dict = {base.key(): base}
        self.base_key = base.key()
        self._adj: dict = {}

    def _cross(self, chamber: Chamber, k: int):
        """The crossing of facet k, (key, wall), with the chamber across
        kept in `chambers`, or None at the imaginary wall."""
        try:
            c2, wall = cross_wall(chamber, k, self.chambers)
        except SignCrossing:
            return None
        key = c2.key()
        self.chambers.setdefault(key, c2)
        return key, wall

    def edge(self, chamber: Chamber, k: int):
        """The crossing of facet k, memoised for the walks: (key, wall), or
        None at the imaginary wall."""
        edges = self._adj.setdefault(chamber.key(), {})
        if k not in edges:
            edges[k] = self._cross(chamber, k)
        return edges[k]

    def bfs(self, max_len: int) -> tuple[list, list]:
        """Chambers within max_len crossings of the base, in the order a
        breadth-first search finds them, and the walls of every chamber
        nearer than max_len as (i, j, wall) over that order, i < j.  Each
        chamber is expanded once, in found order, so each wall is recorded
        once, when its earlier end is expanded; the walks' memo is unused."""
        if max_len < 0:
            raise ValueError(f"max_len must be >= 0, got {max_len}")
        found, depth, edges = [self.chambers[self.base_key]], [0], []
        index = {self.base_key: 0}
        for i, chamber in enumerate(found):   # the list is the queue
            if depth[i] == max_len:   # all within max_len found; expand none at it
                break
            for k in range(len(chamber.rays)):
                crossed = self._cross(chamber, k)
                if crossed is None:
                    continue
                nkey, wall = crossed
                j = index.setdefault(nkey, len(found))
                if j == len(found):
                    found.append(self.chambers[nkey])
                    depth.append(depth[i] + 1)
                if i < j:   # else recorded when chamber j was expanded
                    edges.append((i, j, wall))
        return found, edges


def arrangement_hyperplanes(dtype: DynkinType, k_max: int) -> tuple:
    """The walls of the affine arrangement's level slice within a window:
    the hyperplanes {theta(rbar) = k} in finite kept coordinates with
    |k| <= k_max, for the finite restricted roots rbar, the level-0 set.  Needs
    an affine type with node 0 kept."""
    if not dtype.affine:
        raise DiagramError("arrangement_hyperplanes requires an affine type")
    if 0 in dtype.contracted:
        raise DiagramError("slice coordinates need node 0 kept")
    walls = set()
    for rbar in finite_restricted_values(dtype):
        normal = rbar[1:]   # node 0 is the first coordinate
        for k in range(-k_max, k_max + 1):
            walls.add(wall_through(normal, k))
    return tuple(sorted(walls, key=lambda h: (h.normal, h.offset)))


def _crossings(graph: ChamberGraph, chamber: Chamber, start: Vec, end: Vec):
    """Walk the straight segment from `start`, interior to `chamber`, to
    `end`, crossing walls in order; yields (chamber entered, wall crossed)
    per crossing and returns once the current chamber holds `end` strictly
    inside.  Both ends are integer vectors, and the crossing parameters
    v0 / (v0 - v1) are compared by cross-multiplication, so every quantity
    is an integer.

    The walk leaves a chamber through the facet met first, the first in
    facet order when several are met at one point; the other walls through
    that point are then crossed from the chambers that follow, at the same
    parameter.  A facet is crossed only when `start` is on the chamber's
    side of it and `end` on the other, so every wall crossed separates the
    two ends and none is crossed twice.  The segment lies in one sign class,
    where the arrangement is locally finite, so the walk is finite, and the
    chambers it passes form a minimal gallery between its ends.

    Raises GeometryError when `end` lies on a wall or the walk would leave
    the sign class.
    """
    while True:
        coords_start, coords_end = chamber.coords_in(start), chamber.coords_in(end)
        if all(c > 0 for c in coords_end):
            return
        best = None
        for k, (v0, v1) in enumerate(zip(coords_start, coords_end)):
            if v0 <= 0 or v1 >= 0:
                continue
            # the open segment leaves facet k's side at t_k = v0 / (v0 - v1) < 1
            den = v0 - v1
            if best is None or v0 * best[1] < best[0] * den:
                best = (v0, den, k)
        if best is None:
            raise GeometryError("point lies on a wall of the current chamber")
        edge = graph.edge(chamber, best[2])
        if edge is None:
            raise GeometryError("walk attempted to leave the sign class")
        chamber = graph.chambers[edge[0]]
        yield chamber, edge[1]


def locate_by_walk(graph: ChamberGraph, point: tuple) -> Chamber:
    """The chamber holding `point`, found by walking the straight segment
    from the base chamber's interior point to the integer point; exact
    integer arithmetic throughout.

    A segment through the meet of several walls is walked like any other.
    Raises GeometryError when the point lies on a wall or on the other side
    of the imaginary wall; callers should skip such samples.
    """
    chamber = graph.chambers[graph.base_key]
    level = dot(point, imaginary_restriction(graph.dtype))
    if level <= 0:
        raise GeometryError("point is not on the graph's side of the imaginary wall")
    for chamber, _ in _crossings(graph, chamber, chamber.interior, point):
        pass
    return chamber


def through_wall_end_point(rbar: Vec, alpha_bar: Vec, rim_bar: Vec) -> Vec:
    """The least positive integer multiple of a point z in
    span(rbar, alpha_bar, rim_bar) with z.rbar < 0, z.alpha_bar < 0 and
    z.rim_bar > 0 (rbar and alpha_bar independent).

    With an invertible Gram matrix the pairings are (-1, -1, +1).  Otherwise
    rim_bar = a*rbar + b*alpha_bar.  By Gordan's theorem the three strict
    signs have no solution exactly when a, b >= 0, which raises
    GeometryError; else the two negative pairings are picked from the signs
    of a and b so that z.rim_bar = -a, -b or -a-b is positive.
    """
    gens = (rbar, alpha_bar, rim_bar)
    gram = tuple(tuple(dot(u, v) for v in gens) for u in gens)
    # z = sum(adj[i] * gens[i]) / den, where den > 0 since a nonzero Gram
    # determinant is positive
    den, adj = eliminate(gram, ((-1,), (-1,), (1,)))
    if den == 0:
        gram2 = tuple(row[:2] for row in gram[:2])
        d, ((a,), (b,)) = eliminate(gram2, tuple((x,) for x in gram[2][:2]))
        # rim_bar = (a*rbar + b*alpha_bar) / d with d > 0, and the pairings
        # below are d times those for the coefficients a/d and b/d
        if a >= 0 and b >= 0:
            # every point below both walls pairs negatively with rim_bar
            raise GeometryError(
                "no positive-side gallery exists: the imaginary direction lies in "
                "the cone spanned by rbar and the restricted simple root"
            )
        if a < 0 and b < 0:
            pairings = (-d, -d)
        elif a < 0:
            pairings = (-(b + d), a)
        else:
            pairings = (b, -(a + d))
        den, adj = eliminate(gram2, tuple((x,) for x in pairings))
        den *= d
    num = tuple(sum(c * g[i] for (c,), g in zip(adj, gens)) for i in range(len(rbar)))
    g = gcd(den, *num)
    return tuple(x // g for x in num)


def gallery_through_wall(graph: ChamberGraph, node: int, rbar: Vec) -> Gallery:
    """A minimal gallery from the base chamber whose first crossed wall is
    the facet hyperplane at `node` and whose last crossed wall is the one
    orthogonal to `rbar`.

    Requires rbar to be a positive restricted root not colinear to the
    restricted simple root alpha_bar at `node` nor to the restricted
    imaginary root.  After crossing into `first`, the chamber across the
    facet at `node`, the gallery walks one straight segment from the
    interior point of `first` to `through_wall_end_point` and stops right
    after crossing the wall of rbar.  Both ends lie below alpha_bar and on
    the positive imaginary side, and the walk crosses only walls separating
    its ends, each once, so the walls are distinct and the gallery is
    minimal between its ends (Abramenko-Brown, Buildings, 2008, ch. 1); it
    need not be the shortest gallery through the two walls.
    """
    dtype = graph.dtype
    if node not in dtype.kept:
        raise GeometryError(f"node {node} is not kept")
    alpha_bar = restrict(dtype, dtype.diagram.simple_root(node))
    rim_bar = imaginary_restriction(dtype)
    if any(c < 0 for c in rbar) or all(c == 0 for c in rbar):
        raise GeometryError("rbar must be a positive restricted root")
    if not is_restricted_root(dtype, rbar):
        raise GeometryError("rbar is not a restricted root")
    if is_colinear(rbar, alpha_bar):
        raise GeometryError("rbar must not be colinear to the simple root's restriction")
    if is_colinear(rbar, rim_bar):
        raise GeometryError("rbar must not be colinear to the imaginary restriction")
    end = through_wall_end_point(rbar, alpha_bar, rim_bar)

    base = graph.chambers[graph.base_key]
    first_key, first_wall = graph.edge(base, facet_index_of_node(base, node))
    first = graph.chambers[first_key]
    prim_r = primitive(rbar)
    chambers, walls = [base, first], [first_wall]
    for chamber, wall in _crossings(graph, first, first.interior, end):
        chambers.append(chamber)
        walls.append(wall)
        if wall.normal == prim_r:
            return Gallery(tuple(chambers), tuple(walls))
    raise GeometryError("the walk ended without crossing the target wall")
