"""Simply laced Dynkin diagrams (finite and untwisted affine) and their
root systems, enumerated exactly over the integers.

Node conventions: finite nodes are labelled 1..rank along the chain with
fork tips last; the extended vertex of an affine diagram is always 0.
Coefficient vectors are plain integer tuples in ascending node-label order.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property, lru_cache
from typing import NamedTuple

from .linalg import Vec

FAMILIES = ("A", "D", "E")


class DiagramError(ValueError):
    pass


class Frozen:
    """Base of the records that validate or cache at construction: __init__
    sets the fields once, and they cannot be assigned or deleted after.
    Records compare equal, and hash, as the tuple _key() of their compared
    fields, and only to records of their own class."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The hash of the fields, computed once: diagrams and types key
        the per-diagram and per-type caches and are hashed on each lookup."""
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}{self._key()!r}"


class Diagram(Frozen):
    """A simply laced diagram: nodes, edges, and a family tag.

    The doubled edge of the rank-1 affine diagram is stored as a repeated
    pair, so the Cartan matrix below is correct in that case too.
    """

    def __init__(self, family: str, rank: int, affine: bool, nodes: tuple[int, ...],
                 edges: tuple[tuple[int, int], ...]):
        self.__dict__.update(family=family, rank=rank, affine=affine, nodes=nodes, edges=edges)
        if tuple(sorted(set(self.nodes))) != self.nodes:
            raise DiagramError("nodes must be sorted and unique")
        for a, b in self.edges:
            if a not in self.nodes or b not in self.nodes or a == b:
                raise DiagramError(f"bad edge ({a},{b})")
        # connectivity
        if len(self.nodes) > 1:
            seen = {self.nodes[0]}
            frontier = [self.nodes[0]]
            while frontier:
                x = frontier.pop()
                for a, b in self.edges:
                    y = b if a == x else a if b == x else None
                    if y is not None and y not in seen:
                        seen.add(y)
                        frontier.append(y)
            if seen != set(self.nodes):
                raise DiagramError("diagram is not connected")
        if not self.affine:
            if len(self.edges) != len(self.nodes) - 1:
                raise DiagramError("finite diagram must be a tree")
            deg = self.degrees()
            if any(d > 3 for d in deg.values()):
                raise DiagramError("node of degree > 3 in a finite diagram")
            if sum(1 for d in deg.values() if d == 3) > 1:
                raise DiagramError("more than one trivalent node in a finite diagram")

    def _key(self) -> tuple:
        return (self.family, self.rank, self.affine, self.nodes, self.edges)

    def degrees(self) -> dict[int, int]:
        deg = {n: 0 for n in self.nodes}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    @cached_property
    def index(self) -> dict[int, int]:
        return {n: i for i, n in enumerate(self.nodes)}

    @cached_property
    def cartan(self) -> tuple[tuple[int, ...], ...]:
        n = len(self.nodes)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = 2
        for x, y in self.edges:
            i, j = self.index[x], self.index[y]
            a[i][j] -= 1
            a[j][i] -= 1
        return tuple(tuple(row) for row in a)

    def finite_part(self) -> "Diagram":
        if not self.affine:
            raise DiagramError("finite_part is only defined for affine diagrams")
        return self._finite_part

    @cached_property
    def _finite_part(self) -> "Diagram":
        nodes = tuple(n for n in self.nodes if n != 0)
        edges = tuple(e for e in self.edges if 0 not in e)
        return Diagram(self.family, self.rank, False, nodes, edges)

    def simple_root(self, node: int) -> Vec:
        return tuple(1 if n == node else 0 for n in self.nodes)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "rank": self.rank,
            "affine": self.affine,
            "nodes": list(self.nodes),
            "edges": [list(e) for e in self.edges],
        }


class RootSystem(NamedTuple):
    positive_roots: tuple[Vec, ...]
    highest_root: Vec

    @property
    def all_roots(self) -> tuple[Vec, ...]:
        return self.positive_roots + tuple(tuple(-c for c in r) for r in self.positive_roots)


def _chain_edges(lo: int, hi: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(lo, hi)]


@lru_cache(maxsize=None)
def build_diagram(family: str, rank: int, affine: bool = False) -> Diagram:
    """Construct the unique diagram of the given type.

    Supported: A_n (n >= 1), D_n (n >= 4), E_6, E_7, E_8, plus their
    untwisted affine extensions with the extended vertex labelled 0.
    """
    if family == "A":
        if rank < 1:
            raise DiagramError(f"unsupported type A_{rank}: rank must be >= 1")
        edges = _chain_edges(1, rank)
        if affine:
            if rank == 1:
                edges = [(0, 1), (0, 1)]
            else:
                edges = edges + [(0, 1), (0, rank)]
    elif family == "D":
        if rank < 4:
            raise DiagramError(f"unsupported type D_{rank}: rank must be >= 4")
        edges = _chain_edges(1, rank - 2) + [(rank - 2, rank - 1), (rank - 2, rank)]
        if affine:
            edges = edges + [(0, 2)]
    elif family == "E":
        if rank not in (6, 7, 8):
            raise DiagramError(f"unsupported type E_{rank}: rank must be 6, 7 or 8")
        branch = {6: 3, 7: 3, 8: 5}[rank]
        edges = _chain_edges(1, rank - 1) + [(branch, rank)]
        if affine:
            extended_to = {6: rank, 7: 1, 8: 1}[rank]
            edges = edges + [(0, extended_to)]
    else:
        raise DiagramError(f"unsupported family {family!r}: expected one of A, D, E")
    nodes = tuple(range(0 if affine else 1, rank + 1))
    edges = tuple(sorted(tuple(sorted(e)) for e in edges))
    return Diagram(family, rank, affine, nodes, edges)


def reflect(diagram: Diagram, v: Vec, node: int) -> Vec:
    """Apply the simple reflection at `node` to a coefficient vector."""
    i = diagram.index[node]
    a = diagram.cartan
    s = sum(a[i][j] * v[j] for j in range(len(v)))
    return tuple(c - s if j == i else c for j, c in enumerate(v))


@lru_cache(maxsize=None)
def enumerate_roots(diagram: Diagram) -> RootSystem:
    """All roots of a finite diagram by reflection closure of the simples.

    Positive roots come out in graded lexicographic order (by coefficient
    sum, then lexicographically); the highest root is the maximum.
    """
    if diagram.affine:
        raise DiagramError("root enumeration requires a finite diagram")
    seen: set[Vec] = set()
    queue: deque[Vec] = deque()
    for n in diagram.nodes:
        r = diagram.simple_root(n)
        seen.add(r)
        queue.append(r)
    while queue:
        v = queue.popleft()
        for n in diagram.nodes:
            w = reflect(diagram, v, n)
            if w not in seen:
                seen.add(w)
                queue.append(w)
    positives = sorted((r for r in seen if all(c >= 0 for c in r)),
                       key=lambda r: (sum(r), r))
    if 2 * len(positives) != len(seen):
        raise DiagramError("root system is not symmetric; enumeration bug")
    return RootSystem(tuple(positives), positives[-1])


@lru_cache(maxsize=None)
def imaginary_root(diagram: Diagram) -> Vec:
    """alpha_0 plus the highest root of the finite part."""
    if not diagram.affine:
        raise DiagramError("the imaginary root requires an affine diagram")
    fin = diagram.finite_part()
    high = enumerate_roots(fin).highest_root
    return tuple(1 if n == 0 else high[fin.index[n]] for n in diagram.nodes)


def expanded_window(diagram: Diagram, k_max: int) -> tuple[Vec, ...]:
    """The real affine roots r + k*r_im with |k| <= k_max, each listed once
    in full node coordinates: level by level from -k_max, and within a level
    in the order of the finite part's all_roots."""
    if not diagram.affine:
        raise DiagramError("expanded_window requires an affine diagram")
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    rim = imaginary_root(diagram)
    finite_roots = enumerate_roots(diagram.finite_part()).all_roots
    return tuple(tuple(a + k * c for a, c in zip((0, *r), rim))
                 for k in range(-k_max, k_max + 1) for r in finite_roots)


def root_count_formula(family: str, rank: int) -> int:
    """Closed-form count of positive roots, used as an independent check."""
    if family == "A":
        return rank * (rank + 1) // 2
    if family == "D":
        return rank * (rank - 1)
    if family == "E":
        return {6: 36, 7: 63, 8: 120}[rank]
    raise DiagramError(f"unsupported family {family!r}")
