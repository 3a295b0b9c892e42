"""Exact Weyl group arithmetic on the root lattice.

Elements are integer matrices in the simple-root basis.  Lengths and
reduced words come from descent stripping, which needs no window even in
the affine case.  Longest elements of finite parabolics are found by
greedy ascent.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .dynkin import Diagram, DiagramError
from .linalg import Vec, identity_matrix, invert_unimodular, mat_mul, mat_vec

_ASCENT_CAP = 256  # safely above the 120 positive roots of the largest type


class WeylElement:
    """An element of the Weyl group, identified by its lattice matrix."""

    __slots__ = ("diagram", "matrix", "_word", "__weakref__")

    def __init__(self, diagram: Diagram, matrix):
        self.diagram = diagram
        self.matrix = matrix
        self._word = None

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and self.diagram == other.diagram
            and self.matrix == other.matrix
        )

    def __hash__(self):
        return hash((self.diagram, self.matrix))

    def __repr__(self):
        return f"WeylElement(word={list(self.word)})"

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        if self.diagram != other.diagram:
            raise ValueError("cannot compose elements over different diagrams")
        return WeylElement(self.diagram, mat_mul(self.matrix, other.matrix))

    def inverse(self) -> "WeylElement":
        return WeylElement(self.diagram, invert_unimodular(self.matrix))

    def apply(self, v: Vec) -> Vec:
        if len(v) != len(self.matrix):
            raise ValueError("vector length does not match the diagram")
        return mat_vec(self.matrix, v)

    def image_of_simple(self, node: int) -> Vec:
        j = self.diagram.index[node]
        return tuple(row[j] for row in self.matrix)

    def sends_simple_negative(self, node: int) -> bool:
        col = self.image_of_simple(node)
        return any(c < 0 for c in col)

    def is_identity(self) -> bool:
        return self.matrix == identity_matrix(len(self.matrix))

    @property
    def word(self) -> tuple[int, ...]:
        """A reduced word, computed once by descent stripping."""
        if self._word is None:
            w = WeylElement(self.diagram, self.matrix)
            rev = []
            while not w.is_identity():
                node = next(n for n in self.diagram.nodes if w.sends_simple_negative(n))
                rev.append(node)
                w = w * simple_reflection(self.diagram, node)
            self._word = tuple(reversed(rev))
        return self._word

    @property
    def length(self) -> int:
        return len(self.word)

    def to_json(self) -> dict:
        return {"word": list(self.word)}


def identity(diagram: Diagram) -> WeylElement:
    return WeylElement(diagram, identity_matrix(len(diagram.nodes)))


@lru_cache(maxsize=None)
def simple_reflection(diagram: Diagram, node: int) -> WeylElement:
    """The reflection sigma_node, acting by alpha_j -> alpha_j - A_ij alpha_i."""
    if node not in diagram.nodes:
        raise DiagramError(f"unknown node {node}")
    i = diagram.index[node]
    a = diagram.cartan
    n = len(diagram.nodes)
    m = tuple(
        tuple((1 if r == j else 0) - (a[i][j] if r == i else 0) for j in range(n))
        for r in range(n)
    )
    w = WeylElement(diagram, m)
    w._word = (node,)
    return w


def from_word(diagram: Diagram, word: Iterable[int]) -> WeylElement:
    w = identity(diagram)
    for node in word:
        w = w * simple_reflection(diagram, node)
    return w


@lru_cache(maxsize=None)
def longest_element(diagram: Diagram, subset: frozenset) -> WeylElement:
    """Longest element of the parabolic generated by `subset`.

    Found by greedy ascent from the identity; the result sends every
    positive root supported on the subset to a negative root.  Rejects the
    full node set of an affine diagram, whose parabolic is infinite.
    """
    subset = frozenset(subset)
    if not subset <= set(diagram.nodes):
        raise DiagramError("subset contains unknown nodes")
    if diagram.affine and subset == set(diagram.nodes):
        raise DiagramError("the full affine node set does not generate a finite group")
    w = identity(diagram)
    nodes = sorted(subset)
    for _ in range(_ASCENT_CAP):
        ascent = next((n for n in nodes if not w.sends_simple_negative(n)), None)
        if ascent is None:
            return w
        w = w * simple_reflection(diagram, ascent)
    raise DiagramError("subset does not generate a finite parabolic")


@lru_cache(maxsize=None)
def iota_permutation(diagram: Diagram, subset: frozenset) -> tuple[tuple[int, int], ...]:
    """The permutation i -> iota(i) of `subset` with w0 . alpha_i = -alpha_iota(i)."""
    w0 = longest_element(diagram, frozenset(subset))
    pairs = []
    for n in sorted(subset):
        img = tuple(-c for c in w0.image_of_simple(n))
        target = None
        for m in subset:
            if img == diagram.simple_root(m):
                target = m
                break
        if target is None:
            raise DiagramError("longest element does not permute the simple roots")
        pairs.append((n, target))
    return tuple(pairs)


def coset_minimal(w: WeylElement, subset: Iterable[int]) -> WeylElement:
    """Minimal length representative of the coset w * W_subset."""
    nodes = sorted(set(subset))
    while True:
        descent = next((n for n in nodes if w.sends_simple_negative(n)), None)
        if descent is None:
            return w
        w = w * simple_reflection(w.diagram, descent)


def group_elements(diagram: Diagram, subset: Iterable[int] | None = None) -> list[WeylElement]:
    """Breadth-first enumeration of a finite (parabolic) Weyl group."""
    nodes = sorted(set(subset)) if subset is not None else list(diagram.nodes)
    if diagram.affine and set(nodes) == set(diagram.nodes):
        raise DiagramError("affine Weyl groups are infinite")
    start = identity(diagram)
    seen = {start.matrix: start}
    frontier = [start]
    while frontier:
        nxt = []
        for w in frontier:
            for n in nodes:
                u = w * simple_reflection(diagram, n)
                if u.matrix not in seen:
                    seen[u.matrix] = u
                    nxt.append(u)
        frontier = nxt
    return list(seen.values())
