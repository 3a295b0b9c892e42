"""The wall-crossing groupoid: mutation of chamber labels, path
composition, and the induced maps between restricted-root lattices.

A chamber label is a pair (w, S) of a Weyl element and a contraction
subset.  A mutation at a kept node i replaces (w, S) by
(w * omega, S + i - iota(i)), where omega is built from longest elements of
the parabolics on S and S+i, and iota is the permutation induced by the
longest element of S+i.  On an affine diagram S+i must be a proper subset,
so objects there have at least two kept nodes; a finite diagram has a
longest element on every subset, and a single kept node mutates too.  An
arrow's induced map and its inverse are blocks of w's matrix and of the
inverse matrix w carries, so nothing is inverted by elimination.  This
module is label algebra only: the arrangement module checks the labels
against the chamber geometry (`cross_wall`, `path_to_gallery`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .dynkin import Diagram
from .linalg import Mat, identity_matrix, mat_mul
from .restriction import DynkinType, finite_restricted_values
from .weyl import WeylElement, identity, iota_permutation, longest_element


class GroupoidError(ValueError):
    pass


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
    if diagram.affine and enlarged == set(diagram.nodes):
        raise GroupoidError("mutation needs at least two kept nodes")
    omega = longest_element(diagram, subset) * longest_element(diagram, enlarged)
    omega.word  # the reduced word `mutate` steps along, computed once here
    iota = dict(iota_permutation(diagram, enlarged))
    new_subset = frozenset(enlarged - {iota[node]})
    return omega, iota[node], new_subset


def mutate(weyl: WeylElement, subset: frozenset, node: int) -> tuple[WeylElement, frozenset]:
    """One mutation step (w, S) -> (w * omega_{S,i}, S + i - iota(i)).  The
    product is taken letter by letter along omega's reduced word, and it is
    already minimal in its coset of W_{S'}, so it is not reduced."""
    omega, _, new_subset = mutation_data(weyl.diagram, subset, node)
    return weyl.times_word(omega.word), new_subset


class GroupoidArrow(NamedTuple):
    source: DynkinType
    target_subset: frozenset
    weyl: WeylElement
    word: tuple[tuple[frozenset, int], ...]  # (subset, node) mutation steps


def compose(dtype: DynkinType, nodes: tuple[int, ...]) -> GroupoidArrow:
    """Compose the mutation path that starts at the base subset and mutates
    at the given kept nodes in order."""
    weyl, subset = identity(dtype.diagram), dtype.contracted
    word = []
    for node in nodes:
        word.append((subset, node))
        weyl, subset = mutate(weyl, subset, node)
    return GroupoidArrow(dtype, subset, weyl, tuple(word))


class InducedRootMap(NamedTuple):
    """The lattice map Z(target kept) -> Z(source kept) of an arrow and its
    inverse.  w carries span{alpha_j : j in T} onto span{alpha_j : j in S},
    so it induces an isomorphism between the quotients by these spans:
    `matrix` is the block of w on source-kept rows and target-kept columns
    (columns pi_source(w . alpha_j)), and `inverse` the block of w^-1 on
    target-kept rows and source-kept columns."""

    matrix: Mat
    inverse: Mat


def induced_root_map(arrow: GroupoidArrow) -> InducedRootMap:
    """Read both lattice maps off the arrow's element; raises unless they
    are mutually inverse, as they are whenever the element carries the
    target's contracted span onto the source's."""
    diagram = arrow.source.diagram
    source = arrow.source.kept_index
    target = tuple(diagram.index[n] for n in diagram.nodes if n not in arrow.target_subset)
    w, w_inv = arrow.weyl.matrix, arrow.weyl.inverse_matrix
    matrix = tuple(tuple(w[s][t] for t in target) for s in source)
    inverse = tuple(tuple(w_inv[t][s] for s in source) for t in target)
    if mat_mul(matrix, inverse) != identity_matrix(len(source)):
        raise GroupoidError("the arrow's element does not induce a lattice isomorphism")
    return InducedRootMap(matrix, inverse)


def self_mutation_identification(arrow: GroupoidArrow) -> Mat:
    """The integer automorphism of the source lattice carried by a single
    mutation step at i, whose target S' = S + i - iota(i) is identified with
    the source S by relabelling iota(i) as i and fixing every other kept
    node: the inverse induced root map with its rows relabelled.
    Dimension vectors transform through it under the mutation symmetry.

    The relabelling is admitted only where it is an isomorphism: it must
    carry the finite restricted roots of S' onto those of S.  Elsewhere S'
    is another contraction, and this raises GroupoidError.
    """
    dtype = arrow.source
    if not arrow.word:
        return identity_matrix(len(dtype.kept))
    if len(arrow.word) != 1:
        raise GroupoidError("identification is only defined for single mutation steps")
    (subset, node), = arrow.word
    _, iota_node, _ = mutation_data(dtype.diagram, subset, node)
    target = DynkinType(dtype.diagram, arrow.target_subset)
    # the target's kept positions in source order, iota(i) where i sits
    order = [target.kept.index(iota_node if n == node else n) for n in dtype.kept]
    relabelled = frozenset(tuple(v[k] for k in order) for v in finite_restricted_values(target))
    if relabelled != finite_restricted_values(dtype):
        raise GroupoidError(
            f"the mutation at node {node} is not a symmetry: relabelling node {iota_node} "
            f"as {node} does not carry the restricted roots of the mutated subset "
            f"{sorted(target.contracted)} onto those of {sorted(dtype.contracted)}")
    inverse = induced_root_map(arrow).inverse
    return tuple(inverse[k] for k in order)
