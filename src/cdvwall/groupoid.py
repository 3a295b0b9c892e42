"""The wall-crossing groupoid: mutation of chamber labels, path
composition, and the induced maps between restricted-root lattices.

Objects are contraction subsets with at least two kept nodes.  A mutation
at a kept node i replaces the label (w, S) by (w * omega, S + i - iota(i)),
where omega is built from longest elements of the parabolics on S and S+i,
and iota is the permutation induced by the longest element of S+i.  This
module is label algebra only: the arrangement module checks the labels
against the chamber geometry (`cross_wall`, `path_to_gallery`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .dynkin import Diagram
from .linalg import Mat, Vec, invert_unimodular, mat_vec
from .restriction import DynkinType, restrict
from .weyl import WeylElement, identity, iota_permutation, longest_element


class GroupoidError(ValueError):
    pass


@dataclass(frozen=True)
class Label:
    """A chamber label (w, subset) relative to a base Dynkin type."""

    base: DynkinType
    weyl: WeylElement
    subset: frozenset

    def __post_init__(self):
        object.__setattr__(self, "subset", frozenset(self.subset))
        if len(self.subset) != len(self.base.contracted):
            raise GroupoidError("label subset must have the size of the base subset")

    @property
    def kept(self) -> tuple[int, ...]:
        return tuple(n for n in self.base.diagram.nodes if n not in self.subset)

    def key(self):
        return (tuple(sorted(self.subset)), self.weyl.matrix)


def fundamental_label(dtype: DynkinType) -> Label:
    return Label(dtype, identity(dtype.diagram), dtype.contracted)


@lru_cache(maxsize=None)
def mutation_data(diagram: Diagram, subset: frozenset, node: int):
    """(omega, iota(node), new_subset) for the mutation of `subset` at `node`.

    omega = w0(subset) * w0(subset + node) as a lattice map, so that the
    chamber w*omega*C_{new} sits across the node-th facet of w*C_{subset}.
    """
    subset = frozenset(subset)
    if node in subset:
        raise GroupoidError(f"node {node} is contracted, mutation needs a kept node")
    enlarged = subset | {node}
    if enlarged == set(diagram.nodes):
        raise GroupoidError("mutation needs at least two kept nodes")
    omega = longest_element(diagram, subset) * longest_element(diagram, enlarged)
    omega.word  # the reduced word `mutate` steps along, computed once here
    iota = dict(iota_permutation(diagram, enlarged))
    new_subset = frozenset(enlarged - {iota[node]})
    return omega, iota[node], new_subset


def mutate(label: Label, node: int) -> Label:
    """One mutation step (w, S) -> (w * omega_{S,i}, S + i - iota(i)).  The
    product is taken letter by letter along omega's reduced word, and it is
    already minimal in its coset of W_{S'}, so it is not reduced."""
    diagram = label.base.diagram
    if len(label.kept) < 2:
        raise GroupoidError("labels with fewer than two kept nodes are not groupoid objects")
    omega, _, new_subset = mutation_data(diagram, label.subset, node)
    return Label(label.base, label.weyl.times_word(omega.word), new_subset)


@dataclass(frozen=True)
class GroupoidArrow:
    source: DynkinType
    target_subset: frozenset
    weyl: WeylElement
    word: tuple[tuple[frozenset, int], ...]  # (subset, node) mutation steps

    def to_json(self) -> dict:
        return {
            "source": sorted(self.source.contracted),
            "target": sorted(self.target_subset),
            "word": [[sorted(s), i] for s, i in self.word],
        }


def compose(dtype: DynkinType, nodes: tuple[int, ...]) -> GroupoidArrow:
    """Compose the mutation path that starts at the base subset and mutates
    at the given kept nodes in order."""
    label = fundamental_label(dtype)
    word = []
    for node in nodes:
        if node in label.subset:
            raise GroupoidError(f"step at node {node} is not composable: node is contracted")
        word.append((label.subset, node))
        label = mutate(label, node)
    return GroupoidArrow(dtype, label.subset, label.weyl, tuple(word))


@dataclass(frozen=True)
class InducedRootMap:
    """The lattice map Z(target kept) -> Z(source kept) of an arrow, with
    columns pi_source(w . alpha_j) over the target's kept nodes."""

    arrow: GroupoidArrow
    matrix: Mat

    def apply(self, v: Vec) -> Vec:
        return mat_vec(self.matrix, v)

    def inverse_apply(self, v: Vec) -> Vec:
        return mat_vec(invert_unimodular(self.matrix), v)


def induced_root_map(arrow: GroupoidArrow) -> InducedRootMap:
    dtype = arrow.source
    diagram = dtype.diagram
    target_kept = tuple(n for n in diagram.nodes if n not in arrow.target_subset)
    cols = []
    for j in target_kept:
        img = arrow.weyl.apply(diagram.simple_root(j))
        cols.append(restrict(dtype, img))
    matrix = tuple(tuple(col[i] for col in cols) for i in range(len(dtype.kept)))
    invert_unimodular(matrix)  # raises unless the map is a lattice isomorphism
    return InducedRootMap(arrow, matrix)


def step_relabelling(arrow: GroupoidArrow) -> Optional[dict]:
    """For a single mutation step, the node bijection target_kept -> source_kept
    sending iota(i) back to i and fixing everything else; None otherwise."""
    if len(arrow.word) != 1:
        return None
    (subset, node), = arrow.word
    _, iota_node, _ = mutation_data(arrow.source.diagram, subset, node)
    target_kept = (n for n in arrow.source.diagram.nodes if n not in arrow.target_subset)
    return {n: (node if n == iota_node else n) for n in target_kept}


def self_mutation_identification(arrow: GroupoidArrow) -> Mat:
    """The integer automorphism of the source lattice carried by an arrow
    whose target subset is identified with the source by the step
    relabelling i -> iota(i).

    This is the composite of the inverse induced root map with the
    relabelling permutation; dimension vectors transform through it under
    the mutation symmetry.
    """
    dtype = arrow.source
    if len(arrow.word) == 0:
        n = len(dtype.kept)
        return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    relabel = step_relabelling(arrow)
    if relabel is None:
        raise GroupoidError("identification is only defined for single mutation steps")
    if frozenset(relabel.values()) != frozenset(dtype.kept):
        raise GroupoidError("target subset is not identified with the source by the relabelling")
    source_kept = dtype.kept
    target_kept = tuple(n for n in dtype.diagram.nodes if n not in arrow.target_subset)
    minv = invert_unimodular(induced_root_map(arrow).matrix)
    # rows of the automorphism live on source coordinates; row for node
    # relabel[t] is the t-row of the inverse map
    perm_rows = {relabel[t]: minv[target_kept.index(t)] for t in target_kept}
    return tuple(perm_rows[n] for n in source_kept)
