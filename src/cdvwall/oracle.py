"""Definition-level brute-force cross checks.

These deliberately re-derive the roots and restricted roots from first
principles: roots are the lattice vectors of squared length two (grown
height by height), the imaginary root is the kernel vector among them,
restriction is a bare coordinate projection in a double loop, and
chamber location works by matching sign vectors against a window of
walls.  From the engine they take only the Diagram and DynkinType
records, linalg.primitive to normalise wall normals, and the chamber
walk and chambers that the probe puts under test.  The chamber probe runs
in plain integers: its samples are integer points on the level, and a
located chamber's containment check is the sign of its ray matrix's
adjugate (by cofactor expansion, once per chamber) applied to the point.
Slow is fine here; any disagreement with the engine is a hard failure.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from math import gcd
from operator import add, mul
from typing import NamedTuple

from .arrangement import ChamberGraph, GeometryError, locate_by_walk
from .dynkin import Diagram
from .linalg import primitive
from .restriction import DynkinType


def _form(cartan, v) -> int:
    n = len(v)
    return sum(v[i] * cartan[i][j] * v[j] for i in range(n) for j in range(n))


@lru_cache(maxsize=None)
def oracle_positive_roots(diagram: Diagram) -> frozenset:
    """Positive roots as the non-negative length-two vectors, grown from the
    simple roots by adding one simple root at a time."""
    cartan = diagram.cartan
    n = len(diagram.nodes)
    simples = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    layer = set(simples)
    found = set(simples)
    while layer:
        nxt = set()
        for v in layer:
            for s in simples:
                w = tuple(a + b for a, b in zip(v, s))
                if w not in found and _form(cartan, w) == 2:
                    nxt.add(w)
        found |= nxt
        layer = nxt
    return frozenset(found)


def oracle_restricted_roots(dtype: DynkinType) -> frozenset:
    """Restricted roots by the naive double loop: enumerate all roots,
    project away the contracted coordinates, drop zeros."""
    if dtype.affine:
        raise ValueError("the brute-force oracle handles finite types")
    positives = oracle_positive_roots(dtype.diagram)
    keep = [dtype.diagram.index[n] for n in dtype.kept]
    out = set()
    for root in positives:
        for signed in (root, tuple(-c for c in root)):
            image = tuple(signed[i] for i in keep)
            if any(c != 0 for c in image):
                out.add(image)
    return frozenset(out)


def oracle_delta(diagram: Diagram) -> tuple:
    """The kernel vector of an affine Cartan matrix with delta_0 = 1: the
    one vector (1, *r), r a positive root of the finite part, that the
    matrix sends to 0."""
    candidates = ((1, *r) for r in oracle_positive_roots(diagram.finite_part()))
    found = [delta for delta in candidates
             if all(sum(map(mul, row, delta)) == 0 for row in diagram.cartan)]
    if len(found) != 1:
        raise AssertionError(f"expected one kernel vector (1, *r), found {found}")
    return found[0]


def oracle_affine_restricted_roots(dtype: DynkinType, k_max: int) -> frozenset:
    """Affine restricted roots over the levels |k| <= k_max, from the
    definition: real roots r + k*delta, with r a root of the finite part and
    delta from `oracle_delta`, each asserted to have norm two; then the
    imaginary roots k*delta, 1 <= |k| <= k_max; all projected onto the kept
    nodes, zeros dropped."""
    if not dtype.affine:
        raise ValueError("the affine oracle handles affine types")
    diagram = dtype.diagram
    cartan = diagram.cartan
    delta = oracle_delta(diagram)
    fin = diagram.finite_part()
    keep = [diagram.index[n] for n in dtype.kept]
    roots = set()
    for r in oracle_positive_roots(fin):
        for signed in (r, tuple(-c for c in r)):
            lifted = dict(zip(fin.nodes, signed))
            for k in range(-k_max, k_max + 1):
                v = tuple(lifted.get(n, 0) + k * delta[i] for i, n in enumerate(diagram.nodes))
                if _form(cartan, v) != 2:
                    raise AssertionError(f"{v} is not a real root: norm {_form(cartan, v)}")
                roots.add(v)
    for k in range(1, k_max + 1):
        for sign in (1, -1):
            roots.add(tuple(sign * k * d for d in delta))
    out = set()
    for root in roots:
        image = tuple(root[i] for i in keep)
        if any(c != 0 for c in image):
            out.add(image)
    return frozenset(out)


def oracle_gcd_check(dtype: DynkinType) -> bool:
    """True when every restricted root of multiplicity d has all d of the
    fractions (i/d) * r, i = 1..d, in the set."""
    rr = oracle_restricted_roots(dtype)
    for r in rr:
        d = 0
        for c in r:
            d = gcd(d, abs(c))
        mults = [i for i in range(1, d + 1)
                 if all(c * i % d == 0 for c in r)
                 and tuple(c * i // d for c in r) in rr]
        if len(mults) != d:
            return False
    return True


class ProbeReport(NamedTuple):
    located: int
    skipped_degenerate: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches


def _sample_points(dtype: DynkinType, count: int, box: int, denominator: int = 97):
    """Deterministic integer points on the unit level, in a box.

    Each point is the least positive integer multiple of a rational sample
    (x_0, x_1, ..., x_{m-1}): x_i = a_i / denominator for i >= 1, with a_i
    drawn by a linear congruential generator from the box, and x_0 =
    (denominator - sum_i a_i rim_i) / (denominator * rim_0), which puts the
    sample on the level.  Over the common denominator D = denominator * rim_0
    the numerators are y_0 = denominator - sum_i a_i rim_i and
    y_i = a_i rim_0, and the least multiple is y / g for
    g = gcd(D, y_0, ..., y_{m-1}).
    """
    delta = oracle_delta(dtype.diagram)
    rim = [delta[dtype.diagram.index[n]] for n in dtype.kept]
    m = len(dtype.kept)
    span = 2 * box * denominator
    common = denominator * rim[0]
    state = 123456789
    for _ in range(count):
        draws = []
        for _ in range(m):
            state = (state * 6364136223846793005 + 1442695040888963407) % (2 ** 63)
            draws.append((state % span) - span // 2)
        # the first draw is replaced by the level's first coordinate
        nums = [denominator - sum(map(mul, draws[1:], rim[1:]))]
        nums += [a * rim[0] for a in draws[1:]]
        g = gcd(common, *nums)
        yield tuple(y // g for y in nums)


def _det(matrix) -> int:
    """Determinant by cofactor expansion along the first row."""
    if not matrix:
        return 1
    return sum((-1) ** j * a * _det(_minor(matrix, 0, j)) for j, a in enumerate(matrix[0]))


def _minor(matrix, i: int, j: int) -> tuple:
    return tuple(row[:j] + row[j + 1:] for r, row in enumerate(matrix) if r != i)


def _cone_rows(chamber):
    """The rows of sign(det M) * adj(M), for M the matrix whose columns are
    the chamber's rays, or None when M is singular.

    M c = point has the solution c = adj(M) point / det(M), so a point is
    strictly inside the cone exactly when every row pairs positively with
    it.  This is an independent route from the engine's dual-pairing test.
    """
    rays = chamber.rays
    m = len(rays)
    matrix = tuple(tuple(rays[j][i] for j in range(m)) for i in range(m))
    d = _det(matrix)
    if d == 0:
        return None
    s = 1 if d > 0 else -1
    return tuple(tuple(s * (-1) ** (i + j) * _det(_minor(matrix, j, i)) for j in range(m))
                 for i in range(m))


def _inside(rows, point) -> bool:
    return rows is not None and all(sum(map(mul, row, point)) > 0 for row in rows)


def sign_vector(point, normals) -> tuple:
    """The sign (+1, 0 or -1) of the point's pairing with each normal, in
    order; the pairings are summed column by column over the coordinates."""
    values = [0] * len(normals)
    for p, column in zip(point, zip(*normals)):
        values = map(add, values, map(mul, column, repeat(p)))
    return tuple([(v > 0) - (v < 0) for v in values])


def oracle_chamber_probe(dtype: DynkinType, sample_count: int, box: int = 1,
                         k_max: int = 8) -> ProbeReport:
    """Locate sampled points twice: by the engine's exact segment walk, and
    independently by matching sign vectors over the wall normals of the
    oracle's own affine restricted roots in a window.

    Points land on the unit level, on the positive side of the imaginary
    wall; each is the integer point of `_sample_points`, the least positive
    integer multiple of a rational sample, which lies in the same chambers
    and on the same sides of every linear wall.  Points on a hyperplane are
    skipped.  A sample mismatch, an ambiguous sign-vector match, or a
    located chamber that fails the containment check (by the adjugate of
    its ray matrix, computed once per chamber) all count as mismatches,
    each recorded as (integer point, reason).
    """
    if not dtype.affine:
        raise ValueError("the chamber probe runs on affine types")
    if len(dtype.kept) > 3:
        raise ValueError("the probe is limited to at most three kept nodes")
    normals = sorted({primitive(r) for r in oracle_affine_restricted_roots(dtype, k_max)})
    graph = ChamberGraph(dtype)
    signatures: dict = {}
    cones: dict = {}   # chamber key -> _cone_rows of the chamber
    mismatches = []
    located = skipped = 0
    for point in _sample_points(dtype, sample_count, box):
        try:
            chamber = locate_by_walk(graph, point)
        except GeometryError:
            skipped += 1
            continue
        sig = sign_vector(point, normals)
        if 0 in sig:
            skipped += 1
            continue
        located += 1
        key = chamber.key()
        if key not in cones:
            cones[key] = _cone_rows(chamber)
        if not _inside(cones[key], point):
            mismatches.append((point, "walk chamber does not contain the point"))
            continue
        ref = signatures.get(sig)
        if ref is None:
            # the sign vector must match the chamber's own interior point
            interior_sig = sign_vector(chamber.interior, normals)
            if interior_sig != sig:
                mismatches.append((point, "sign vector differs from the chamber's"))
                continue
            signatures[sig] = key
        elif ref != key:
            mismatches.append((point, "two chambers share a windowed sign vector"))
    return ProbeReport(located, skipped, tuple(mismatches))
