"""Dynkin types (diagram, contracted subset), restriction maps, and
restricted roots with their gcd multiplicities.

A restricted root is a nonzero image of a root under the projection that
drops the contracted coordinates.  Deduplication is by coefficient tuple;
sign and reality classes are annotations on the tuple, not part of its
identity.  Affine sets are infinite, so enumeration takes a level window;
membership tests are windowless and exact via the translation structure
of the real restricted roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from typing import Callable, Iterable, Optional

from .dynkin import (
    Diagram,
    DiagramError,
    build_diagram,
    enumerate_roots,
    expanded_window,
    imaginary_root,
)
from .linalg import (
    Vec,
    integer_multiple_of,
    vec_gcd,
    vec_neg,
    vec_sub,
)

DEFAULT_WINDOW = 3


@dataclass(frozen=True)
class DynkinType:
    """A diagram with a proper subset of contracted nodes."""

    diagram: Diagram
    contracted: frozenset

    def __post_init__(self):
        object.__setattr__(self, "contracted", frozenset(self.contracted))
        if not self.contracted <= set(self.diagram.nodes):
            raise DiagramError("contracted set contains unknown nodes")
        if self.contracted == set(self.diagram.nodes):
            raise DiagramError("contracted set must be a proper subset")

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The field hash the dataclass would compute, computed once."""
        return hash((self.diagram, self.contracted))

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
        if len(self.kept_index) == 1:
            (i,) = self.kept_index
            return lambda v: (v[i],)   # itemgetter of one index returns a bare item
        return itemgetter(*self.kept_index)

    @property
    def affine(self) -> bool:
        return self.diagram.affine

    def finite_type(self) -> "DynkinType":
        """The finite companion (finite part, contracted intersected with it)."""
        if not self.affine:
            return self
        fin = self.diagram.finite_part()
        return DynkinType(fin, frozenset(self.contracted - {0}))

    def to_json(self) -> dict:
        return {
            "family": self.diagram.family,
            "rank": self.diagram.rank,
            "affine": self.diagram.affine,
            "contracted": sorted(self.contracted),
        }

    @staticmethod
    def from_json(data: dict) -> "DynkinType":
        diagram = build_diagram(data["family"], data["rank"], data["affine"])
        return DynkinType(diagram, frozenset(data["contracted"]))


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


@dataclass(frozen=True)
class RestrictedRoot:
    coeffs: Vec
    signs: frozenset          # subset of {+1, -1}: sign classes of the preimages
    reality: Optional[str]    # "real" | "imaginary" for affine types, None finite
    mult: int                 # gcd of the absolute coefficients
    witness: Vec              # one preimage root, in full node coordinates

    def to_json(self) -> dict:
        return {
            "coeffs": list(self.coeffs),
            "mult": self.mult,
            "witness": list(self.witness),
            "signs": sorted("+" if s > 0 else "-" for s in self.signs),
            "reality": self.reality,
        }


@dataclass(frozen=True)
class RestrictedRootSet:
    dynkin_type: DynkinType
    elements: tuple[RestrictedRoot, ...]
    window: Optional[int]

    def values(self) -> frozenset:
        return frozenset(e.coeffs for e in self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def to_json(self) -> dict:
        return {
            "type": self.dynkin_type.to_json(),
            "window": self.window,
            "elements": [e.to_json() for e in self.elements],
        }


def _collect(entries: dict, coeffs: Vec, sign: int, reality: Optional[str], witness: Vec):
    if coeffs in entries:
        signs, old_reality, old_witness = entries[coeffs]
        entries[coeffs] = (signs | {sign}, old_reality, old_witness)
    else:
        entries[coeffs] = (frozenset({sign}), reality, witness)


def _real_window_entries(dtype: DynkinType, k_max: int) -> dict:
    """Restrictions of the real roots at levels |k| <= k_max, collected as by
    _collect, zeros dropped.  Reality depends only on the restricted vector,
    so the imaginary line is tested once per distinct vector."""
    rim_bar = imaginary_restriction(dtype)
    entries: dict[Vec, tuple] = {}
    for full, sign in expanded_window(dtype.diagram, k_max):
        rbar = restrict(dtype, full)
        if rbar in entries:
            signs, reality, witness = entries[rbar]
            if sign not in signs:
                entries[rbar] = (signs | {sign}, reality, witness)
        elif any(rbar):
            reality = "imaginary" if integer_multiple_of(rbar, rim_bar) is not None else "real"
            entries[rbar] = (frozenset({sign}), reality, full)
    return entries


def restricted_roots(dtype: DynkinType, k_max: Optional[int] = None) -> RestrictedRootSet:
    """All nonzero restrictions of roots, annotated and deduplicated.

    Finite types need no window.  For affine types, real roots are scanned
    at levels |k| <= k_max and the imaginary multiples k * pi(r_im) with
    0 < |k| <= k_max are included.
    """
    entries: dict[Vec, tuple] = {}
    if not dtype.affine:
        if k_max is not None:
            raise ValueError("finite types take no level window")
        rts = enumerate_roots(dtype.diagram)
        for r in rts.positive_roots:
            for sign, root in ((1, r), (-1, vec_neg(r))):
                rbar = restrict(dtype, root)
                if any(c != 0 for c in rbar):
                    _collect(entries, rbar, sign, None, root)
        window = None
    else:
        window = DEFAULT_WINDOW if k_max is None else k_max
        if window < 0:
            raise ValueError("k_max must be >= 0")
        entries = _real_window_entries(dtype, window)
        rim_bar = imaginary_restriction(dtype)
        rim = imaginary_root(dtype.diagram)
        for k in range(1, window + 1):
            for sign in (1, -1):
                coeffs = tuple(sign * k * c for c in rim_bar)
                _collect(entries, coeffs, sign, "imaginary", tuple(sign * k * c for c in rim))
    elements = tuple(
        RestrictedRoot(coeffs, signs, reality, vec_gcd(coeffs), witness)
        for coeffs, (signs, reality, witness) in sorted(entries.items())
    )
    return RestrictedRootSet(dtype, elements, window)


@lru_cache(maxsize=None)
def finite_restricted_values(dtype: DynkinType) -> frozenset:
    """Coefficient tuples of the finite restricted-root set (cached)."""
    if dtype.affine:
        raise DiagramError("finite_restricted_values requires a finite type")
    return restricted_roots(dtype).values()


@lru_cache(maxsize=None)
def finite_companion_data(dtype: DynkinType) -> tuple[tuple[int, ...], frozenset]:
    """Kept finite nodes and the finite restricted-root values of an affine
    type's companion.  Both are empty when every finite node is contracted,
    a degenerate but legal affine type whose companion has no kept nodes."""
    if not dtype.affine:
        raise DiagramError("finite_companion_data requires an affine type")
    fin_diagram = dtype.diagram.finite_part()
    fin_kept = tuple(n for n in fin_diagram.nodes if n not in dtype.contracted)
    if not fin_kept:
        return (), frozenset()
    fin = dtype.finite_type()
    return fin.kept, finite_restricted_values(fin)


def embed_finite(kept: tuple[int, ...], fin_kept: tuple[int, ...], rbar_fin: Vec) -> Vec:
    """Place finite kept-node coordinates into the affine type's kept
    coordinates, with 0 at every node outside fin_kept."""
    vals = dict(zip(fin_kept, rbar_fin))
    return tuple(vals.get(n, 0) for n in kept)


def classify_value(dtype: DynkinType, v: Vec):
    """Exact membership of a vector in the affine restricted-root set.

    Returns None if v is not a restricted root, ("imaginary", k) when
    v = k * pi(r_im), and ("real", (rbar, k)) when v = rbar + k * pi(r_im)
    with rbar a finite restricted root and v off the imaginary line.
    No window is involved: real membership reduces to the finite set plus
    integer translation along the imaginary direction.
    """
    if not dtype.affine:
        raise DiagramError("classify_value requires an affine type")
    if all(c == 0 for c in v):
        return None
    rim_bar = imaginary_restriction(dtype)
    k = integer_multiple_of(v, rim_bar)
    if k is not None:
        return ("imaginary", k) if k != 0 else None
    kept = dtype.kept
    fin_kept, fin_values = finite_companion_data(dtype)
    if 0 in kept:
        # pi(r_im) has coefficient 1 at node 0 and finite values have 0,
        # so the translation level is read off directly
        zero_idx = kept.index(0)
        k = v[zero_idx]
        shifted = vec_sub(v, tuple(k * c for c in rim_bar))
        cand = tuple(shifted[kept.index(n)] for n in fin_kept)
        if cand in fin_values:
            return ("real", (cand, k))
        return None
    for rbar in fin_values:
        diff = vec_sub(v, rbar)
        if all(c == 0 for c in diff):
            return ("real", (rbar, 0))
        k = integer_multiple_of(diff, rim_bar)
        if k is not None:
            return ("real", (rbar, k))
    return None


def is_restricted_root(dtype: DynkinType, v: Vec) -> bool:
    """Windowless membership test, finite or affine."""
    if dtype.affine:
        return classify_value(dtype, v) is not None
    return v in finite_restricted_values(dtype)


@dataclass(frozen=True)
class GcdViolation:
    coeffs: Vec
    mult: int
    missing_numerator: int


@dataclass(frozen=True)
class GcdReport:
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


def check_gcd_closure(dtype: DynkinType, k_max: Optional[int] = None) -> GcdReport:
    """For each restricted root of multiplicity d, check that the proper
    fractions (m/d) * rbar, m = 1..d-1, are again restricted roots.

    Finite types are checked against the full finite set; affine types scan
    a window of elements but decide membership exactly.
    """
    rr = restricted_roots(dtype, k_max if dtype.affine else None)
    violations = []
    nontrivial = 0
    for e in rr.elements:
        d = e.mult
        if d <= 1:
            continue
        nontrivial += 1
        for m in range(1, d):
            frac = tuple(m * c // d for c in e.coeffs)
            if not is_restricted_root(dtype, frac):
                violations.append(GcdViolation(e.coeffs, d, m))
    return GcdReport(dtype, len(rr.elements), nontrivial, tuple(violations))


@dataclass(frozen=True)
class TwoWayReport:
    set_direct: frozenset
    set_translated: frozenset
    equal: bool
    excluded_highest: bool


def real_restricted_two_ways(dtype: DynkinType, k_max: int = DEFAULT_WINDOW) -> TwoWayReport:
    """Real restricted roots built two ways over the same level window.

    set_direct restricts real affine roots directly and removes imaginary-
    line values.  set_translated translates the finite restricted roots by
    multiples of pi(r_im), dropping the two vectors +-pi(r_max) exactly when
    node 0 is contracted.  The two must coincide.
    """
    if not dtype.affine:
        raise DiagramError("real_restricted_two_ways requires an affine type")
    rim_bar = imaginary_restriction(dtype)
    direct = {rbar for rbar, (_, reality, _) in _real_window_entries(dtype, k_max).items()
              if reality == "real"}

    kept = dtype.kept
    fin_kept, fin_values = finite_companion_data(dtype)
    zero_contracted = 0 in dtype.contracted
    excluded = set()
    if zero_contracted and fin_kept:
        fin_diagram = dtype.diagram.finite_part()
        high = enumerate_roots(fin_diagram).highest_root
        hbar = tuple(high[fin_diagram.index[n]] for n in fin_kept)
        excluded = {hbar, vec_neg(hbar)}

    translated = set()
    for rbar_fin in fin_values:
        if rbar_fin in excluded:
            continue
        base = embed_finite(kept, fin_kept, rbar_fin)
        for k in range(-k_max, k_max + 1):
            v = tuple(b + k * c for b, c in zip(base, rim_bar))
            if integer_multiple_of(v, rim_bar) is None:
                translated.add(v)

    return TwoWayReport(
        frozenset(direct), frozenset(translated), direct == translated, zero_contracted
    )


def proper_subsets(diagram: Diagram) -> Iterable[frozenset]:
    """All proper contraction subsets, in a deterministic order."""
    nodes = list(diagram.nodes)
    n = len(nodes)
    for mask in range(2 ** n - 1):
        yield frozenset(nodes[i] for i in range(n) if mask >> i & 1)
