from itertools import permutations
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdvwall.dynkin import build_diagram
from cdvwall.linalg import (
    eliminate,
    identity_matrix,
    integer_multiple_of,
    is_colinear,
    mat_mul,
    mat_vec,
    primitive,
    vec_gcd,
)
from reference import from_word

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def int_matrices(draw, max_n=5):
    """Square integer matrices up to max_n; about half are made singular
    by replacing the last row with a combination of earlier ones."""
    n = draw(st.integers(1, max_n))
    rows = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    if n > 1 and draw(st.booleans()):
        c = draw(st.integers(-2, 2))
        rows[-1] = [x + c * y for x, y in zip(rows[0], rows[min(1, n - 2)])]
    return tuple(tuple(row) for row in rows)


def leibniz_det(m):
    total = 0
    for perm in permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i in range(len(perm))
                         for j in range(i + 1, len(perm)))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(len(m)))
    return total


def invert_unimodular(m):
    """Inverse of an integer matrix with determinant +-1, as an integer
    matrix, from the adjugate that one elimination of [m | I] gives.  The
    engine never inverts: Weyl elements carry their inverses and induced
    root maps read theirs off them.  This is the elimination reference that
    the Weyl, linear-algebra and groupoid tests compare them against."""
    d, adj = eliminate(m, identity_matrix(len(m)))
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    return adj if d == 1 else tuple(tuple(-x for x in row) for row in adj)


def test_det_and_unimodular_inverse():
    for m in (((1, 2, 0), (0, 1, 0), (3, 5, 1)), ((2, 1), (1, 1))):
        assert eliminate(m)[0] == 1
        assert mat_mul(m, invert_unimodular(m)) == identity_matrix(len(m))
    assert invert_unimodular(((2, 1), (1, 1))) == ((1, -1), (-1, 2))


def test_invert_unimodular_rejects_non_unimodular():
    for m in (((2, 0), (0, 1)), ((1, 2), (2, 4))):  # det 2, then singular
        with pytest.raises(ValueError):
            invert_unimodular(m)


@PROPERTY
@given(int_matrices())
def test_det_matches_leibniz_expansion(m):
    assert eliminate(m)[0] == leibniz_det(m)


@PROPERTY
@given(int_matrices(), st.data())
def test_eliminate_gives_det_times_the_solution(m, data):
    # m . (adj(m) . v) == det(m) . v, and det(m) is 0 exactly when m is singular
    v = tuple(data.draw(st.lists(st.integers(-500, 500), min_size=len(m), max_size=len(m))))
    d, adj = eliminate(m, tuple((x,) for x in v))
    assert (d == 0) == (leibniz_det(m) == 0)
    if d == 0:
        assert adj is None
    else:
        assert mat_vec(m, tuple(row[0] for row in adj)) == tuple(d * x for x in v)


@pytest.mark.parametrize("family, rank", [("E", 8), ("D", 6)])
def test_unimodular_inverse_reverses_reduced_words(family, rank):
    diagram = build_diagram(family, rank, affine=True)

    @PROPERTY
    @given(st.lists(st.sampled_from(diagram.nodes), max_size=12))
    def check(word):
        w = from_word(diagram, word)
        reduced = w.word
        assert invert_unimodular(w.matrix) == from_word(diagram, reversed(reduced)).matrix

    check()


def test_primitive_sign_normalises():
    assert primitive((0, -2, -4)) == (0, 1, 2)
    assert primitive((3,)) == (1,)
    with pytest.raises(ValueError):
        primitive((0, 0))


def test_integer_multiple_detection():
    assert integer_multiple_of((2, 4), (1, 2)) == 2
    assert integer_multiple_of((-3, -6), (1, 2)) == -3
    assert integer_multiple_of((1, 3), (1, 2)) is None
    assert integer_multiple_of((0, 0), (1, 2)) == 0


def test_colinearity_over_the_rationals():
    assert is_colinear((2, 3), (4, 6))
    assert not is_colinear((2, 3), (3, 2))
    assert is_colinear((0, 0), (1, 1))


@PROPERTY
@given(st.data())
def test_colinearity_is_the_vanishing_of_every_minor(data):
    n = data.draw(st.integers(1, 6))
    vec = st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple)
    u = data.draw(vec.filter(any))
    k = data.draw(st.integers(-3, 3))
    v = data.draw(st.sampled_from([tuple(k * a for a in u), data.draw(vec)]))
    minors = all(v[i] * u[j] == v[j] * u[i] for i in range(n) for j in range(i + 1, n))
    assert is_colinear(v, u) == minors


def test_vec_gcd():
    assert vec_gcd((4, -6, 0)) == 2
    assert vec_gcd((0, 0)) == 0
    assert vec_gcd((-9,)) == 9
    assert vec_gcd(()) == 0
