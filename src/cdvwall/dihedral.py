"""The even dihedral family as an executable regression suite.

The source data is D_{2n} with every second interior node contracted; its
kept lattice is identified with the rank n+1 D-shaped root lattice by
relabelling kept nodes in order.  Under that identification the restricted
roots split into genuine roots plus a small set of "compound" vectors,
each a sum of two roots swapped by the diagram involution that exchanges
the two fork pairs.  The checks below verify the split, the vanishing
consequences on a window, and the parity characterisation of the
compounds.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .bps import vanishing_verdict
from .dynkin import Diagram, build_diagram, enumerate_roots
from .linalg import Vec, vec_gcd, vec_neg
from .restriction import DynkinType, restricted_roots

COEFF_MAX = 2   # the proposition window: dimension vectors with coordinates <= this
K_WINDOW = 3    # the parity check's levels |k| <= this


def target_diagram(n: int) -> Diagram:
    """The rank n+1 D-shaped diagram (built directly for rank 3, where the
    family table starts at rank 4)."""
    if n + 1 >= 4:
        return build_diagram("D", n + 1)
    return Diagram("D", 3, False, (1, 2, 3), ((1, 2), (1, 3)))


def source_type(n: int) -> DynkinType:
    if n < 2:
        raise ValueError("the dihedral family needs n >= 2")
    return DynkinType(build_diagram("D", 2 * n), frozenset(range(2, 2 * n - 1, 2)))


def compound_vectors(n: int) -> tuple[Vec, ...]:
    """The positive compounds: for 2 <= i <= n the sum of the two roots
    running from node i into either fork tip."""
    out = []
    for i in range(2, n + 1):
        coeffs = [0] * (n + 1)
        for j in range(i, n):
            coeffs[j - 1] = 2
        coeffs[n - 1] = 1
        coeffs[n] = 1
        out.append(tuple(coeffs))
    return tuple(out)


def _signed_compounds(n: int) -> frozenset:
    """The compounds and their negatives."""
    return frozenset(c for base in compound_vectors(n) for c in (base, vec_neg(base)))


class SplitReport(NamedTuple):
    n: int
    image: frozenset
    root_part: frozenset
    compound_part: frozenset
    extra: frozenset          # image values in neither part (expected empty)
    missing_roots: frozenset   # roots not in the image (expected empty)
    missing_compounds: frozenset

    @property
    def ok(self) -> bool:
        return not (self.extra or self.missing_roots or self.missing_compounds)


def classify_restricted(n: int) -> SplitReport:
    """Split the image of the restricted roots into roots and compounds.

    The kept coordinates map to target coordinates index by index, so the
    identification is the identity on tuples.
    """
    image = restricted_roots(source_type(n)).values()
    roots = frozenset(enumerate_roots(target_diagram(n)).all_roots)
    compounds = _signed_compounds(n)
    return SplitReport(
        n,
        image,
        image & roots,
        image & compounds,
        image - roots - compounds,
        roots - image,
        compounds - image,
    )


def _extended_imaginary(n: int) -> Vec:
    """alpha_0 + highest root, in target coordinates prefixed by node 0."""
    high = enumerate_roots(target_diagram(n)).highest_root
    return (1,) + tuple(high)


class PropositionReport(NamedTuple):
    n: int
    window: int
    checked: int
    mismatches: tuple


def _displayed_form(n: int, delta: Vec, roots: frozenset, compounds: frozenset) -> bool:
    """Whether delta = d * (r + k * r_im) with r zero, a root, or a compound."""
    rim = _extended_imaginary(n)
    g = vec_gcd(delta)
    for d in range(1, g + 1):
        if g % d != 0:
            continue
        scaled = tuple(c // d for c in delta)
        k = scaled[0]
        r = tuple(s - k * c for s, c in zip(scaled, rim))
        if r[0] != 0:
            continue
        fin = r[1:]
        if all(c == 0 for c in fin) and k != 0:
            return True
        if fin in roots or fin in compounds:
            return True
    return False


def proposition_check(n: int) -> PropositionReport:
    """Exhaustively compare the vanishing verdict with the displayed form
    over the window of dimension vectors with coordinates <= COEFF_MAX."""
    affine = DynkinType(build_diagram("D", 2 * n, affine=True), source_type(n).contracted)
    roots = frozenset(enumerate_roots(target_diagram(n)).all_roots)
    compounds = _signed_compounds(n)
    mismatches = []
    checked = 0
    for delta in itertools.product(range(COEFF_MAX + 1), repeat=n + 2):
        if all(c == 0 for c in delta):
            continue
        checked += 1
        verdict = vanishing_verdict(affine, delta)
        displayed = _displayed_form(n, delta, roots, compounds)
        if verdict.forced_zero == displayed:
            mismatches.append(delta)
    return PropositionReport(n, COEFF_MAX, checked, tuple(mismatches))


class ParityReport(NamedTuple):
    n: int
    window: int
    parity_roots: int
    parity_roots_producing: int
    nonparity_producing: int
    compounds_covered: bool

    @property
    def ok(self) -> bool:
        return (self.parity_roots == self.parity_roots_producing
                and self.nonparity_producing == 0
                and self.compounds_covered)


def mozgovoy_reineke_check(n: int) -> ParityReport:
    """Check the parity/involution characterisation of the compounds.

    For every real root u of the extended target system at levels
    |k| <= K_WINDOW, the sum u + swap(u) (the involution exchanges the two
    fork pairs) lands on a signed compound after translating by a multiple
    of the imaginary root exactly when the four fork coordinates of u sum
    to an odd number; and every compound is hit this way.
    """
    rim = _extended_imaginary(n)
    roots = enumerate_roots(target_diagram(n)).all_roots
    compounds = {(0,) + c for c in _signed_compounds(n)}

    def swap(u: Vec) -> Vec:
        v = list(u)
        v[0], v[1] = v[1], v[0]
        v[n], v[n + 1] = v[n + 1], v[n]
        return tuple(v)

    parity_roots = parity_producing = nonparity_producing = 0
    covered = set()
    for r in roots:
        for k in range(-K_WINDOW, K_WINDOW + 1):
            u = tuple(k * rim[i] + ((0,) + r)[i] for i in range(n + 2))
            parity = (u[0] + u[1] + u[n] + u[n + 1]) % 2
            s = tuple(a + b for a, b in zip(u, swap(u)))
            v = tuple(a - s[0] * b for a, b in zip(s, rim))
            produced = v in compounds
            if produced:
                covered.add(v)
                covered.add(vec_neg(v))
            if parity:
                parity_roots += 1
                parity_producing += produced
            else:
                nonparity_producing += produced
    return ParityReport(n, K_WINDOW, parity_roots, parity_producing,
                        nonparity_producing, covered == compounds)


class DihedralReport(NamedTuple):
    n: int
    split: SplitReport
    proposition: PropositionReport
    parity: ParityReport

    @property
    def ok(self) -> bool:
        return self.split.ok and not self.proposition.mismatches and self.parity.ok

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "split": {
                "roots": len(self.split.root_part),
                "compounds": len(self.split.compound_part),
                "extra": sorted(map(list, self.split.extra)),
                "missing_roots": sorted(map(list, self.split.missing_roots)),
                "missing_compounds": sorted(map(list, self.split.missing_compounds)),
            },
            "proposition": {
                "window": self.proposition.window,
                "checked": self.proposition.checked,
                "mismatches": sorted(map(list, self.proposition.mismatches)),
            },
            "parity": {
                "window": self.parity.window,
                "parity_roots": self.parity.parity_roots,
                "parity_roots_producing": self.parity.parity_roots_producing,
                "nonparity_producing": self.parity.nonparity_producing,
                "compounds_covered": self.parity.compounds_covered,
            },
            "ok": self.ok,
        }


def run_case(n: int) -> DihedralReport:
    return DihedralReport(n, classify_restricted(n), proposition_check(n),
                          mozgovoy_reineke_check(n))
