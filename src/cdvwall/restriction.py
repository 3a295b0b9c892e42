"""Dynkin types (diagram, contracted subset), restriction maps, and
restricted roots with their gcd multiplicities.

A restricted root is a nonzero image of a root under the projection that
drops the contracted coordinates.  Deduplication is by coefficient tuple;
the reality class is an annotation on the tuple, not part of its identity.
A root's coordinates are all >= 0 or all <= 0, and so are those of its
image, so a restricted root's sign class is the sign of its coefficients.
Affine sets are infinite, so enumeration takes a level window; membership
tests are windowless and exact via the translation structure of the real
restricted roots.  Kept coordinates follow node order, so an affine type
that keeps node 0 has it first, where pi(r_im) reads 1 and its finite
restricted roots, its level-0 set, read 0.

Every set of one diagram is built from one scan of its roots, real and
imaginary, the entries of the empty subset.  Restriction composes, so a
single build projects the scan onto its kept coordinates in one pass, and
a sweep over all subsets builds each from its parent, the subset without
its lowest node, by dropping one coordinate.  Neither keeps state outside
its call.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from .dynkin import (
    Diagram,
    DiagramError,
    Frozen,
    enumerate_roots,
    expanded_window,
    imaginary_root,
)
from .linalg import (
    Vec,
    integer_multiple_of,
    vec_neg,
    vec_sub,
)

DEFAULT_WINDOW = 3


def _taker(positions: tuple[int, ...]) -> Callable[[Vec], Vec]:
    """Picks the given positions out of a vector, as a tuple."""
    if len(positions) == 1:
        (i,) = positions
        return lambda v: (v[i],)   # itemgetter of one index returns a bare item
    return itemgetter(*positions)


class DynkinType(Frozen):
    """A diagram with a proper subset of contracted nodes."""

    def __init__(self, diagram: Diagram, contracted: Iterable[int]):
        self.__dict__.update(diagram=diagram, contracted=frozenset(contracted))
        if not self.contracted <= set(diagram.nodes):
            raise DiagramError("contracted set contains unknown nodes")
        if self.contracted == set(diagram.nodes):
            raise DiagramError("contracted set must be a proper subset")

    def _key(self) -> tuple:
        return (self.diagram, self.contracted)

    @cached_property
    def kept(self) -> tuple[int, ...]:
        return tuple(n for n in self.diagram.nodes if n not in self.contracted)

    @cached_property
    def kept_index(self) -> tuple[int, ...]:
        """Positions of the kept nodes in the diagram's node order."""
        return tuple(self.diagram.index[n] for n in self.kept)

    @cached_property
    def _take_kept(self) -> Callable[[Vec], Vec]:
        """Picks the kept coordinates out of a full vector, as a tuple."""
        return _taker(self.kept_index)

    @property
    def affine(self) -> bool:
        return self.diagram.affine

    def to_json(self) -> dict:
        return {
            "family": self.diagram.family,
            "rank": self.diagram.rank,
            "affine": self.diagram.affine,
            "contracted": sorted(self.contracted),
        }


def restrict(dtype: DynkinType, root: Vec) -> Vec:
    """Drop the contracted coordinates, keeping the rest in node order."""
    if len(root) != len(dtype.diagram.nodes):
        raise ValueError("root length does not match the diagram")
    return dtype._take_kept(root)


@lru_cache(maxsize=None)
def imaginary_restriction(dtype: DynkinType) -> Vec:
    """The restriction of the imaginary root; never zero for proper subsets."""
    if not dtype.affine:
        raise DiagramError("imaginary restriction requires an affine type")
    return restrict(dtype, imaginary_root(dtype.diagram))


class RestrictedRoot(NamedTuple):
    coeffs: Vec
    reality: Optional[str]    # "real" | "imaginary" for affine types, None finite
    mult: int                 # gcd of the absolute coefficients
    witness: Vec              # one preimage root, in full node coordinates

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "mult": self.mult,
            "witness": list(self.witness),
            "signs": ["+" if max(self.coeffs) > 0 else "-"],
            "reality": self.reality,
        }


class RestrictedRootSet(Frozen):
    """A restricted-root set kept as its scan entries, coeffs -> first
    witness in scan order; they may be shared with the scan or with the
    sets of one sweep, so they are read-only.  The sorted RestrictedRoot
    records are built only when elements is read."""

    def __init__(self, dynkin_type: DynkinType, entries: dict, window: Optional[int]):
        self.__dict__.update(dynkin_type=dynkin_type, entries=entries, window=window)

    def _key(self) -> tuple:
        return (self.dynkin_type, self.elements, self.window)

    @cached_property
    def elements(self) -> tuple[RestrictedRoot, ...]:
        """The records, sorted by coefficients.  An affine record is
        imaginary on the line of multiples k * pi(r_im) and real off it.  A
        real root r + k * r_im with |k| <= window reads at most
        (window + 1) * r_im at every node, as |r_i| <= r_im_i, and pi(r_im)
        has positive entries, so the line is taken out to |k| = window + 1."""
        window = self.window
        line, real = frozenset(), None
        if window is not None:
            rim_bar = imaginary_restriction(self.dynkin_type)
            line = frozenset(tuple(k * c for c in rim_bar)
                             for k in range(-window - 1, window + 2) if k)
            real = "real"
        return tuple(
            RestrictedRoot(coeffs, "imaginary" if coeffs in line else real,
                           gcd(*coeffs), witness)
            for coeffs, witness in sorted(self.entries.items())
        )

    def values(self) -> frozenset:
        return frozenset(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def to_json(self) -> dict:
        return {
            "type": self.dynkin_type.to_json(),
            "window": self.window,
            "elements": [e.to_json() for e in self.elements],
        }


def _window(diagram: Diagram, k_max: Optional[int]) -> Optional[int]:
    """The level window of a restricted-root set: None for finite types,
    k_max (default DEFAULT_WINDOW) for affine ones."""
    if not diagram.affine:
        if k_max is not None:
            raise ValueError("finite types take no level window")
        return None
    window = DEFAULT_WINDOW if k_max is None else k_max
    if window < 0:
        raise ValueError("k_max must be >= 0")
    return window


@lru_cache(maxsize=None)
def _scan(diagram: Diagram, window: Optional[int]) -> dict:
    """The scan entries of the empty subset, root -> root (its own witness),
    in scan order.  Every restricted-root set of the diagram is built from
    these by _project.  Finite types scan r, then -r, for each positive
    root; affine types scan the real roots of the level window, then the
    imaginary roots k * r_im, 0 < |k| <= window, +k before -k for k = 1,
    2, ..., so a real root is the witness of any image the two share."""
    if window is None:
        roots = (root for r in enumerate_roots(diagram).positive_roots
                 for root in (r, vec_neg(r)))
    else:
        rim = imaginary_root(diagram)
        roots = (*expanded_window(diagram, window),
                 *(tuple(m * c for c in rim) for k in range(1, window + 1) for m in (k, -k)))
    return {full: full for full in roots}


def _project(entries: dict, take: Callable[[Vec], Vec], width: int) -> dict:
    """The scan entries of a projection, take, onto width coordinates: the
    nonzero images, coeffs -> first preimage's witness.  The images are
    taken in one pass; dict.fromkeys keys the child in first-appearance
    order, and writing the witnesses in reverse leaves the first preimage
    of each image, as the keys keep their order when rewritten.  The zero
    image is dropped last."""
    images = list(map(take, entries))
    child = dict.fromkeys(images)
    child.update(zip(reversed(images), reversed(entries.values())))
    child.pop((0,) * width, None)
    return child


def restricted_roots(dtype: DynkinType, k_max: Optional[int] = None) -> RestrictedRootSet:
    """All nonzero restrictions of roots, annotated and deduplicated: the
    scan projected onto the kept coordinates in one pass.

    Finite types need no window.  For affine types, the real roots at
    levels |k| <= k_max and the imaginary roots k * r_im with 0 < |k| <=
    k_max are scanned.
    """
    window = _window(dtype.diagram, k_max)
    entries = _scan(dtype.diagram, window)
    if dtype.contracted:
        entries = _project(entries, dtype._take_kept, len(dtype.kept))
    return RestrictedRootSet(dtype, entries, window)


def restricted_root_sweep(diagram: Diagram,
                          k_max: Optional[int] = None) -> Iterator[RestrictedRootSet]:
    """restricted_roots of every proper subset, in proper_subsets order.

    chain[d] holds the entries of the subset made of the d highest
    contracted positions of the last subset built.  The parent of mask,
    mask & (mask - 1), is the part of mask - 1 above mask's lowest position
    j, so it is chain[popcount - 1], and each subset costs one drop of
    position j.  The chain lives as long as the sweep.
    """
    window = _window(diagram, k_max)
    n = len(diagram.nodes)
    chain = [_scan(diagram, window)]
    for mask, J in enumerate(proper_subsets(diagram)):
        if mask:
            depth, j = mask.bit_count(), (mask & -mask).bit_length() - 1
            del chain[depth:]
            take = _taker((*range(j), *range(j + 1, n - depth + 1)))
            chain.append(_project(chain[-1], take, n - depth))
        yield RestrictedRootSet(DynkinType(diagram, J), chain[-1], window)


@lru_cache(maxsize=None)
def finite_restricted_values(dtype: DynkinType) -> frozenset:
    """Coefficient tuples of the finite restricted roots (cached): a finite
    type's whole set, an affine type's level-0 set, the images of the finite
    part's roots in the type's own kept coordinates."""
    return restricted_roots(dtype, 0 if dtype.affine else None).values()


def classify_value(dtype: DynkinType, v: Vec) -> Optional[str]:
    """Exact membership of a vector in the affine restricted-root set.

    Returns None if v is not a restricted root, "imaginary" when
    v = k * pi(r_im) for some k != 0, and "real" when v = rbar + k * pi(r_im)
    off the imaginary line, with rbar a finite restricted root.  No window
    is involved: real membership reduces to the finite set plus integer
    translation along the imaginary direction.
    """
    if not dtype.affine:
        raise DiagramError("classify_value requires an affine type")
    if all(c == 0 for c in v):
        return None
    rim_bar = imaginary_restriction(dtype)
    k = integer_multiple_of(v, rim_bar)
    if k is not None:
        return "imaginary" if k != 0 else None
    fin_values = finite_restricted_values(dtype)
    if 0 not in dtype.contracted:
        # pi(r_im) reads 1 at node 0, the first coordinate, and finite
        # values read 0, so the translation level is v[0]
        k = v[0]
        shifted = tuple(a - k * c for a, c in zip(v, rim_bar))
        return "real" if shifted in fin_values else None
    # node 0 is contracted, so the kept nodes are finite ones: a finite
    # root's coefficient is at most the highest root's, which is pi(r_im)'s,
    # so |rbar_0| <= h_0 and k is within one of v_0 / h_0
    h, v0 = rim_bar[0], v[0]
    for k in range(-((h - v0) // h), (v0 + h) // h + 1):
        if vec_sub(v, tuple(k * c for c in rim_bar)) in fin_values:
            return "real"
    return None


def is_restricted_root(dtype: DynkinType, v: Vec) -> bool:
    """Windowless membership test, finite or affine."""
    if dtype.affine:
        return classify_value(dtype, v) is not None
    return v in finite_restricted_values(dtype)


class GcdViolation(NamedTuple):
    coeffs: Vec
    mult: int
    missing_numerator: int


class GcdReport(NamedTuple):
    dynkin_type: DynkinType
    n_elements: int
    n_nontrivial: int
    violations: tuple[GcdViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "type": self.dynkin_type.to_json(),
            "elements": self.n_elements,
            "nontrivial_multiplicities": self.n_nontrivial,
            "violations": [
                {"coeffs": list(v.coeffs), "mult": v.mult, "missing": v.missing_numerator}
                for v in self.violations
            ],
        }


def gcd_report(rr: RestrictedRootSet) -> GcdReport:
    """For each restricted root of multiplicity d, check that the proper
    fractions (m/d) * rbar, m = 1..d-1, are again restricted roots.

    Finite sets are complete, so membership is read from the set itself;
    affine sets are windowed, so membership is decided exactly by
    classify_value.  The scan entries are walked directly, so no record is
    built, and the violations are sorted into record order, by
    coefficients and then m.
    """
    dtype = rr.dynkin_type
    if dtype.affine:
        def member(v: Vec) -> bool:
            return classify_value(dtype, v) is not None
    else:
        member = rr.entries.__contains__
    violations = []
    nontrivial = 0
    for coeffs in rr.entries:
        d = gcd(*coeffs)
        if d <= 1:
            continue
        nontrivial += 1
        for m in range(1, d):
            frac = tuple(m * c // d for c in coeffs)
            if not member(frac):
                violations.append(GcdViolation(coeffs, d, m))
    violations.sort()
    return GcdReport(dtype, len(rr.entries), nontrivial, tuple(violations))


def check_gcd_closure(dtype: DynkinType, k_max: Optional[int] = None) -> GcdReport:
    """The gcd report of one type's set; k_max is ignored for finite types."""
    return gcd_report(restricted_roots(dtype, k_max if dtype.affine else None))


def proper_subsets(diagram: Diagram) -> Iterable[frozenset]:
    """All proper contraction subsets, in order of their bit masks, bit i
    standing for the i-th node."""
    for mask in range(2 ** len(diagram.nodes) - 1):
        yield frozenset(n for i, n in enumerate(diagram.nodes) if mask >> i & 1)
