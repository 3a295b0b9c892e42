"""Exact Weyl group arithmetic on the root lattice.

An element is an integer matrix in the simple-root basis together with the
matrix of its inverse.  Right multiplication by a simple reflection s_i is
a rank-one update of both: w . s_i rewrites only the rows of w with a
nonzero entry in column i, and (w . s_i)^-1 = s_i . w^-1 only row i of the
inverse.  `times_word` and the longest elements of finite parabolics (by
greedy ascent) are walks by this step, and a product multiplies the
inverses in reverse order, so no element is ever inverted by elimination.
Reduced words strip descents by the numbers game on w^-1 rho, which needs
no window even in the affine case and steps one vector instead of the
matrices.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .dynkin import Diagram, DiagramError
from .linalg import Mat, Vec, identity_matrix, mat_mul

_ASCENT_CAP = 256  # safely above the 120 positive roots of the largest type


@lru_cache(maxsize=None)
def _cartan_rows(diagram: Diagram) -> dict:
    """node -> (i, ((j, A_ij) for every nonzero entry of Cartan row i))."""
    return {
        node: (i, tuple((j, a) for j, a in enumerate(diagram.cartan[i]) if a != 0))
        for node, i in diagram.index.items()
    }


def _step(matrix: Mat, inverse: Mat, i: int, row_i: tuple) -> tuple[Mat, Mat]:
    """(w . s_i, s_i . w^-1) for w = matrix and w^-1 = inverse.

    s_i sends alpha_j to alpha_j - A_ij alpha_i, so column j of w . s_i is
    column j of w minus A_ij times column i: only rows with a nonzero entry
    in column i change.  s_i . w^-1 differs from w^-1 in row i alone, which
    becomes w^-1[i] - sum_j A_ij w^-1[j].
    """
    rows = []
    for row in matrix:
        c = row[i]
        if c:
            row = list(row)
            for j, a in row_i:
                row[j] -= a * c
            row = tuple(row)
        rows.append(row)
    reflected = inverse[i]
    for j, a in row_i:
        reflected = [x - a * y for x, y in zip(reflected, inverse[j])]
    inv = list(inverse)
    inv[i] = tuple(reflected)
    return tuple(rows), tuple(inv)


class WeylElement:
    """An element of the Weyl group, identified by its lattice matrix and
    carrying the lattice matrix of its inverse."""

    __slots__ = ("diagram", "matrix", "inverse_matrix", "_word", "__weakref__")

    def __init__(self, diagram: Diagram, matrix: Mat, inverse_matrix: Mat):
        self.diagram = diagram
        self.matrix = matrix
        self.inverse_matrix = inverse_matrix
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
        return WeylElement(self.diagram, mat_mul(self.matrix, other.matrix),
                           mat_mul(other.inverse_matrix, self.inverse_matrix))

    def times_word(self, word: Iterable[int]) -> "WeylElement":
        """w . s_{i_1} ... s_{i_m}, one rank-one step per letter."""
        rows = _cartan_rows(self.diagram)
        matrix, inverse = self.matrix, self.inverse_matrix
        for node in word:
            if node not in rows:
                raise DiagramError(f"unknown node {node}")
            matrix, inverse = _step(matrix, inverse, *rows[node])
        return WeylElement(self.diagram, matrix, inverse)

    def image_of_simple(self, node: int) -> Vec:
        j = self.diagram.index[node]
        return tuple(row[j] for row in self.matrix)

    def sends_simple_negative(self, node: int) -> bool:
        j = self.diagram.index[node]
        return any(row[j] < 0 for row in self.matrix)

    @property
    def word(self) -> tuple[int, ...]:
        """A reduced word, computed once by descent stripping: strip the
        first right descent in node order until none is left.

        The descents are read off mu = w^-1 rho in fundamental-weight
        coordinates (the numbers game).  mu_j is the height of w . alpha_j,
        the sum of column j of w, so node j is a right descent exactly when
        mu_j < 0, and stripping it (w -> w . s_j) moves mu_i to
        mu_i - A_ji mu_j."""
        if self._word is None:
            nodes, rows = self.diagram.nodes, _cartan_rows(self.diagram)
            mu = [sum(column) for column in zip(*self.matrix)]
            rev = []
            while True:
                j = next((j for j, m in enumerate(mu) if m < 0), None)
                if j is None:
                    break
                rev.append(nodes[j])
                m = mu[j]
                for i, a in rows[nodes[j]][1]:
                    mu[i] -= a * m
            self._word = tuple(reversed(rev))
        return self._word


def identity(diagram: Diagram) -> WeylElement:
    e = identity_matrix(len(diagram.nodes))
    return WeylElement(diagram, e, e)


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
        w = w.times_word((ascent,))
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

