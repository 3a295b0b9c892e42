import random
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdvwall.dynkin import build_diagram, enumerate_roots, expanded_window, imaginary_root
from cdvwall.linalg import identity_matrix, mat_mul, mat_vec
from cdvwall.weyl import identity, iota_permutation, longest_element
from reference import from_word, simple_reflection
from test_linalg import invert_unimodular


def group_elements(diagram, subset=None, radius=-1):
    """Breadth-first enumeration of a finite (parabolic) Weyl group, or of
    its elements of length at most radius when radius >= 0."""
    nodes = sorted(set(subset)) if subset is not None else list(diagram.nodes)
    start = identity(diagram)
    seen = {start.matrix: start}
    frontier = [start]
    while frontier and radius != 0:
        radius -= 1
        nxt = []
        for w in frontier:
            for n in nodes:
                u = w.times_word((n,))
                if u.matrix not in seen:
                    seen[u.matrix] = u
                    nxt.append(u)
        frontier = nxt
    return list(seen.values())


def coset_minimal(w, subset):
    """The representative of w * W_subset with no right descent in the
    subset, by stripping descents."""
    nodes = sorted(set(subset))
    while True:
        descent = next((n for n in nodes if w.sends_simple_negative(n)), None)
        if descent is None:
            return w
        w = w.times_word((descent,))


class TimeLimit(BaseException):
    """Raised when a guarded test runs too long.  Not an Exception, so
    hypothesis stops at once instead of replaying the hanging example."""


@pytest.fixture
def time_limit():
    """Fail the test after 60 s instead of hanging: a wrong descent update
    makes `WeylElement.word` loop forever."""
    def expire(signum, frame):
        raise TimeLimit("test ran past 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def stripped_word(w):
    """The reference for WeylElement.word, by matrix stripping: while w
    has a right descent (a column with a negative entry), strip the first
    in node order by a rank-one step of both matrices."""
    rev = []
    while True:
        node = next((n for n in w.diagram.nodes if w.sends_simple_negative(n)), None)
        if node is None:
            return tuple(reversed(rev))
        rev.append(node)
        w = w.times_word((node,))


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("family, rank, affine, radius", [
    ("A", 4, False, -1), ("D", 4, False, -1), ("A", 1, True, 9),
    ("D", 5, True, 4), ("E", 6, True, 4), ("E", 8, True, 3)])
def test_word_is_the_stripped_word_on_balls(family, rank, affine, radius):
    for w in group_elements(build_diagram(family, rank, affine), radius=radius):
        assert w.word == stripped_word(w)


def test_simple_reflection_is_an_involution():
    d = build_diagram("D", 4)
    for n in d.nodes:
        s = simple_reflection(d, n)
        assert s * s == identity(d)
        assert mat_vec(s.matrix, d.simple_root(n)) == tuple(-c for c in d.simple_root(n))


def test_cartan_relations():
    d = build_diagram("A", 3)
    s1, s2, s3 = (simple_reflection(d, i) for i in (1, 2, 3))
    prod = s1 * s2  # adjacent: order 3
    assert prod * prod != identity(d) and prod * prod * prod == identity(d)
    prod = s1 * s3  # non-adjacent: order 2
    assert prod * prod == identity(d)


def test_identity_acts_trivially():
    d = build_diagram("A", 2)
    e = identity(d)
    assert mat_vec(e.matrix, (1, -2)) == (1, -2)
    assert e.word == ()


def test_affine_elements_fix_the_imaginary_root():
    da = build_diagram("E", 6, affine=True)
    rim = imaginary_root(da)
    rng = random.Random(3)
    for _ in range(10):
        w = from_word(da, [rng.choice(da.nodes) for _ in range(8)])
        assert mat_vec(w.matrix, rim) == rim


def test_length_is_finite_inversion_count():
    d = build_diagram("D", 4)
    rts = enumerate_roots(d)
    rng = random.Random(5)
    for _ in range(15):
        w = from_word(d, [rng.choice(d.nodes) for _ in range(7)])
        inversions = sum(
            1 for r in rts.positive_roots if any(c < 0 for c in mat_vec(w.matrix, r))
        )
        assert len(w.word) == inversions


def test_affine_length_is_windowed_inversion_count():
    da = build_diagram("A", 2, affine=True)
    rng = random.Random(9)
    for _ in range(10):
        w = from_word(da, [rng.choice(da.nodes) for _ in range(5)])
        inversions = 0
        for full in expanded_window(da, len(w.word) + 1):
            if all(c >= 0 for c in full) and any(c != 0 for c in full):
                if any(c < 0 for c in mat_vec(w.matrix, full)):
                    inversions += 1
        assert len(w.word) == inversions


def test_length_steps_by_one_with_the_positivity_criterion():
    d = build_diagram("D", 4)
    rng = random.Random(31)
    for _ in range(20):
        w = from_word(d, [rng.choice(d.nodes) for _ in range(6)])
        for n in d.nodes:
            stepped = w * simple_reflection(d, n)
            if w.sends_simple_negative(n):
                assert len(stepped.word) == len(w.word) - 1
            else:
                assert len(stepped.word) == len(w.word) + 1


def test_reduced_words_multiply_back():
    d = build_diagram("E", 6)
    rng = random.Random(1)
    for _ in range(10):
        w = from_word(d, [rng.choice(d.nodes) for _ in range(9)])
        assert from_word(d, w.word) == w
        assert len(w.word) <= 9


@pytest.mark.parametrize("rank,order", [(2, 6), (3, 24), (4, 120)])
def test_type_a_group_orders(rank, order):
    assert len(group_elements(build_diagram("A", rank))) == order


def test_d4_group_order():
    assert len(group_elements(build_diagram("D", 4))) == 192


def test_longest_element_single_node():
    d = build_diagram("A", 3)
    w0 = longest_element(d, frozenset({2}))
    assert w0 == simple_reflection(d, 2) and len(w0.word) == 1


def test_longest_element_a2_parabolic():
    d = build_diagram("A", 3)
    w0 = longest_element(d, frozenset({1, 2}))
    assert len(w0.word) == 3
    assert w0 * w0 == identity(d)


def test_longest_element_d4():
    d = build_diagram("D", 4)
    w0 = longest_element(d, frozenset(d.nodes))
    assert len(w0.word) == 12
    assert w0 * w0 == identity(d)
    # -w0 permutes the fork-adjacent simple roots (here trivially)
    iota = dict(iota_permutation(d, frozenset(d.nodes)))
    assert set(iota) == set(d.nodes)
    assert {iota[n] for n in (1, 3, 4)} == {1, 3, 4}


def test_longest_element_sends_parabolic_positives_negative():
    d = build_diagram("D", 5)
    subset = frozenset({2, 3, 4})
    w0 = longest_element(d, subset)
    for r in enumerate_roots(d).positive_roots:
        support = {d.nodes[i] for i, c in enumerate(r) if c != 0}
        if support <= subset:
            assert all(c <= 0 for c in mat_vec(w0.matrix, r))


def test_longest_element_rejects_full_affine_set():
    da = build_diagram("A", 2, affine=True)
    from cdvwall.dynkin import DiagramError

    with pytest.raises(DiagramError):
        longest_element(da, frozenset(da.nodes))


def test_coset_minimal_inside_parabolic_is_identity():
    d = build_diagram("A", 3)
    s = frozenset({1, 2})
    assert coset_minimal(longest_element(d, s), s) == identity(d)
    assert coset_minimal(from_word(d, [1, 2, 1]), s) == identity(d)


def test_coset_minimal_matches_brute_force():
    d = build_diagram("A", 3)
    subset = frozenset({1})
    parabolic = group_elements(d, subset)
    rng = random.Random(23)
    elements = group_elements(d)
    for w in rng.sample(elements, 10):
        rep = coset_minimal(w, subset)
        coset = {w * p for p in parabolic}
        assert rep in coset
        assert len(rep.word) == min(len(u.word) for u in coset)
        assert not rep.sends_simple_negative(1)


PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
PROPERTY_DIAGRAMS = [build_diagram("A", 3), build_diagram("D", 4, affine=True),
                     build_diagram("E", 6, affine=True), build_diagram("E", 8, affine=True)]
PROPERTY_IDS = ["A3", "D4~", "E6~", "E8~"]


def _words(diagram):
    return st.lists(st.sampled_from(diagram.nodes), max_size=16)


@pytest.mark.parametrize("diagram", PROPERTY_DIAGRAMS, ids=PROPERTY_IDS)
def test_carried_inverse_is_the_inverse(diagram):
    @PROPERTY
    @given(_words(diagram))
    def check(word):
        w = from_word(diagram, word)
        assert mat_mul(w.matrix, w.inverse_matrix) == identity_matrix(len(diagram.nodes))

    check()


@pytest.mark.parametrize("diagram", PROPERTY_DIAGRAMS, ids=PROPERTY_IDS)
def test_inverse_swaps_to_the_eliminated_inverse(diagram):
    @PROPERTY
    @given(_words(diagram))
    def check(word):
        w = from_word(diagram, word)
        assert w.inverse_matrix == invert_unimodular(w.matrix)

    check()


@pytest.mark.parametrize("diagram", PROPERTY_DIAGRAMS, ids=PROPERTY_IDS)
def test_reduced_word_round_trip(diagram):
    @PROPERTY
    @given(_words(diagram))
    def check(word):
        w = from_word(diagram, word)
        assert from_word(diagram, w.word) == w
        assert len(w.word) <= len(word) and len(w.word) % 2 == len(word) % 2

    check()


@pytest.mark.usefixtures("time_limit")
@pytest.mark.parametrize("diagram", PROPERTY_DIAGRAMS, ids=PROPERTY_IDS)
def test_word_is_the_stripped_word(diagram):
    @PROPERTY
    @given(_words(diagram))
    def check(word):
        w = from_word(diagram, word)
        assert w.word == stripped_word(w)

    check()


@pytest.mark.parametrize("diagram", PROPERTY_DIAGRAMS, ids=PROPERTY_IDS)
def test_simple_step_is_the_matrix_product(diagram):
    @PROPERTY
    @given(_words(diagram), st.sampled_from(diagram.nodes))
    def check(word, node):
        w = from_word(diagram, word)
        s = simple_reflection(diagram, node)
        stepped = w.times_word((node,))
        assert stepped.matrix == mat_mul(w.matrix, s.matrix)
        assert stepped.inverse_matrix == mat_mul(s.matrix, w.inverse_matrix)

    check()
