import itertools
import subprocess
import sys

import pytest

from cdvwall import bps
from cdvwall.bps import (
    ClassError,
    ClassGenerator,
    ClassWindow,
    CurveClass,
    SymmetryConfig,
    affine_companion,
    class_to_vector,
    geometric_verdict,
    gv_transport,
    mutation_vector_map,
    orbit_partition,
    symmetry_generators,
    vanishing_verdict,
    vector_to_class,
    window_classes,
)
from cdvwall.dynkin import build_diagram, imaginary_root
from cdvwall.groupoid import mutation_data
from cdvwall.linalg import is_colinear
from cdvwall.restriction import (
    DynkinType,
    classify_value,
    finite_restricted_values,
    imaginary_restriction,
    proper_subsets,
)
from reference import minimal_duality_shift, verdict_constant_on_orbits

D4 = DynkinType(build_diagram("D", 4), frozenset())
D4_AFF = affine_companion(D4)
A3J2 = DynkinType(build_diagram("A", 3), frozenset({2}))


def test_imaginary_vector_is_a_candidate():
    rim = imaginary_restriction(D4_AFF)
    verdict = vanishing_verdict(D4_AFF, rim)
    assert not verdict.forced_zero and verdict.kind == "imaginary"
    verdict = vanishing_verdict(D4_AFF, tuple(3 * c for c in rim))
    assert not verdict.forced_zero and verdict.mult == 3


def test_nonroot_vector_is_forced_zero():
    verdict = vanishing_verdict(D4_AFF, (0, 5, 0, 0, 1))
    assert verdict.forced_zero
    assert verdict.rule.startswith("vanishing:")


def test_weighted_homogeneous_flag_extends_scope():
    verdict = vanishing_verdict(D4_AFF, (0, 5, 0, 0, 1), weighted_homogeneous=True)
    assert verdict.forced_zero and verdict.global_scope


def test_vanishing_rejects_bad_vectors():
    with pytest.raises(ClassError):
        vanishing_verdict(D4_AFF, (0, 0, 0, 0, 0))
    with pytest.raises(ClassError):
        vanishing_verdict(D4_AFF, (1, -1, 0, 0, 0))


def test_point_class_is_a_candidate():
    verdict = geometric_verdict(D4, CurveClass(1, (0, 0, 0, 0)))
    assert not verdict.forced_zero and verdict.kind == "imaginary"


def test_geometric_nonroot_forced_zero():
    verdict = geometric_verdict(D4, CurveClass(3, (1, 0, 0, 1)))
    assert verdict.forced_zero


def test_geometric_rejects_negative_vectors():
    with pytest.raises(ClassError):
        geometric_verdict(D4, CurveClass(0, (-1, 0, 0, 0)))


def test_geometric_weighted_flag_extends_scope():
    verdict = geometric_verdict(D4, CurveClass(3, (1, 0, 0, 1)),
                                weighted_homogeneous=True)
    assert verdict.forced_zero and verdict.global_scope


def test_class_vector_round_trip():
    for chi in range(3):
        for beta in itertools.product(range(-1, 2), repeat=4):
            cc = CurveClass(chi, beta)
            assert vector_to_class(D4_AFF, class_to_vector(D4_AFF, cc)) == cc


def test_geometric_and_affine_verdicts_agree():
    # the finite per-type verdict against the NC verdict of the class's
    # dimension vector on the affine companion, on every proper subset: the
    # same forced_zero, mult and kind, and the same base, read back in
    # curve-class coordinates on a real candidate
    cfg = SymmetryConfig(chi_max=3, beta_max=2)
    for family, rank in [("A", 3), ("A", 4), ("D", 4), ("D", 5)]:
        diagram = build_diagram(family, rank)
        for subset in proper_subsets(diagram):
            dt = DynkinType(diagram, subset)
            aff = affine_companion(dt)
            for cc in window_classes(dt, cfg):
                g = geometric_verdict(dt, cc)
                a = vanishing_verdict(aff, class_to_vector(aff, cc))
                base = vector_to_class(aff, a.base).beta if a.kind == "real" else a.base
                assert ((g.forced_zero, g.mult, g.kind, g.base)
                        == (a.forced_zero, a.mult, a.kind, base)), (family, rank, subset, cc)


@pytest.mark.parametrize("family, rank, contracted", [
    ("A", 3, {2}), ("D", 4, set()), ("D", 5, {1, 3}), ("E", 6, set())],
    ids=["A3-2", "D4", "D5-1,3", "E6"])
@pytest.mark.parametrize("chi_max", [0, 1, 4])
@pytest.mark.parametrize("beta_max", [0, 1, 2])
def test_window_is_the_cone_part_of_the_box(family, rank, contracted, chi_max, beta_max):
    dtype = DynkinType(build_diagram(family, rank), frozenset(contracted))
    # the dimension vector of (chi, beta) is chi at node 0 and
    # beta_i + chi * delta_i at each kept finite node i, delta the imaginary root
    affine = build_diagram(family, rank, affine=True)
    delta = [imaginary_root(affine)[affine.index[n]] for n in dtype.kept]
    box = [range(-beta_max, beta_max + 1)] * len(dtype.kept)
    want = [CurveClass(chi, beta)
            for chi in range(chi_max + 1) for beta in itertools.product(*box)
            if (chi, *beta) != (0,) * (len(beta) + 1)
            and all(b + chi * d >= 0 for b, d in zip(beta, delta))]
    got = list(window_classes(dtype, SymmetryConfig(chi_max=chi_max, beta_max=beta_max)))
    assert got == want
    aff = affine_companion(dtype)
    assert all(min(class_to_vector(aff, cc)) >= 0 for cc in got)


@pytest.mark.parametrize("family, rank, contracted", [
    ("A", 3, {2}), ("D", 4, set()), ("D", 5, {1, 3}), ("E", 6, set())],
    ids=["A3-2", "D4", "D5-1,3", "E6"])
@pytest.mark.parametrize("chi_max, beta_max", [(0, 0), (0, 2), (3, 0), (1, 2), (4, 1)])
def test_window_index_is_the_position_in_window_classes(family, rank, contracted,
                                                         chi_max, beta_max):
    dtype = DynkinType(build_diagram(family, rank), frozenset(contracted))
    cfg = SymmetryConfig(chi_max=chi_max, beta_max=beta_max)
    classes = list(window_classes(dtype, cfg))
    window = ClassWindow(dtype, cfg)
    assert window.size == len(classes)
    position = {cc: i for i, cc in enumerate(classes)}
    assert [window.index(cc) for cc in classes] == list(range(len(classes)))
    # every +-1 neighbour of a class or of the zero class, in chi or in one
    # beta coordinate: a window class at its position, anything off the
    # box or the cone (or the zero class itself) at None
    zero = CurveClass(0, (0,) * len(dtype.kept))
    assert window.index(zero) is None
    outside = 0
    for cc in [zero, *classes]:
        coords = (cc.chi, *cc.beta)
        for axis, step in itertools.product(range(len(coords)), (-1, 1)):
            moved = list(coords)
            moved[axis] += step
            near = CurveClass(moved[0], tuple(moved[1:]))
            assert window.index(near) == position.get(near), (cc, near)
            outside += near not in position
    assert outside


@pytest.mark.parametrize("family, rank, contracted", [
    ("A", 3, {2}), ("D", 4, set()), ("D", 5, {1, 3}), ("E", 6, set())],
    ids=["A3-2", "D4", "D5-1,3", "E6"])
@pytest.mark.parametrize("chi_max, beta_max", [(0, 0), (0, 2), (3, 0), (1, 2), (4, 1)])
def test_window_at_inverts_the_index(family, rank, contracted, chi_max, beta_max):
    dtype = DynkinType(build_diagram(family, rank), frozenset(contracted))
    cfg = SymmetryConfig(chi_max=chi_max, beta_max=beta_max)
    classes = list(window_classes(dtype, cfg))
    window = ClassWindow(dtype, cfg)
    at = [window.at(i) for i in range(window.size)]
    assert at == classes
    assert all(type(cc) is CurveClass for cc in at + classes)
    assert [window.index(cc) for cc in at] == list(range(window.size))
    for i in (-1, window.size):
        with pytest.raises(IndexError):
            window.at(i)


def test_orbit_partition_classifies_each_class_once(monkeypatch):
    seen = []

    def counted(aff, v):
        seen.append(v)
        return classify_value(aff, v)

    monkeypatch.setattr(bps, "classify_value", counted)
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset({1, 2, 3, 4}),
                         chi_max=2, beta_max=1)
    list(orbit_partition(D4, cfg).certificates())
    assert seen and len(seen) == len(set(seen))


def test_motivic_twist_shape():
    cfg = SymmetryConfig(rigidified=True)
    gens = {g.name: g for g in symmetry_generators(D4, cfg)}
    twist = gens["motivic-twist"]
    cc = CurveClass(1, (2, 2, 0, 0))
    assert twist.act(cc) is not None
    out, params = twist.act(cc)
    assert out == CurveClass(3, (2, 2, 0, 0))
    assert dict(params)["d"] == 2


def test_duality_minimal_shift_and_involution():
    cfg = SymmetryConfig(rigidified=True)
    gens = {g.name: g for g in symmetry_generators(D4, cfg)}
    dual = gens["motivic-duality"]
    cc = CurveClass(1, (1, 1, 0, 0))
    n = minimal_duality_shift(D4, cc)
    out, params = dual.act(cc)
    assert dict(params)["n"] == n
    assert out.beta == (-1, -1, 0, 0)
    aff = affine_companion(D4)
    assert all(c >= 0 for c in class_to_vector(aff, out))
    # applying duality twice lands back up to twist steps
    out2, _ = dual.act(out)
    assert out2.beta == cc.beta
    assert (out2.chi - cc.chi) % cc.d_beta == 0


def test_generators_preserve_the_pair_gcd():
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset({1}))
    gens = symmetry_generators(D4, cfg)
    sample = [CurveClass(1, (1, 1, 0, 0)), CurveClass(2, (0, 2, 2, 0)),
              CurveClass(3, (1, 2, 1, 1))]
    for gen in gens:
        for cc in sample:
            hit = gen.act(cc)
            if hit is None:
                continue
            out, _ = hit
            assert out.d_pair == cc.d_pair, (gen.name, cc)


def test_numeric_twist_requires_coprime_effective():
    cfg = SymmetryConfig()
    gens = [g for g in symmetry_generators(D4, cfg) if g.level == "numeric"]
    assert gens, "numeric twists are always configured"
    gen = next(g for g in gens if g.name == "numeric-twist-1")
    assert gen.act(CurveClass(1, (1, 1, 0, 0))) is not None
    assert gen.act(CurveClass(2, (2, 2, 0, 0))) is None   # not coprime
    assert gen.act(CurveClass(1, (-1, 1, 0, 0))) is None  # not effective


def test_mutation_generator_domain():
    cfg = SymmetryConfig(non_flop_nodes=frozenset({1}))
    gen = next(g for g in symmetry_generators(D4, cfg) if g.name == "mutation-1")
    assert gen.level == "numeric"
    # colinear to the node class: excluded
    assert gen.act(CurveClass(0, (1, 0, 0, 0))) is None
    # colinear to the imaginary direction: excluded
    assert gen.act(CurveClass(2, (0, 0, 0, 0))) is None
    cc = CurveClass(1, (0, 1, 0, 0))
    assert gen.act(cc) is not None
    out, params = gen.act(cc)
    assert dict(params)["node"] == 1
    assert out.chi == cc.chi


def test_twist_orbits_are_arithmetic_progressions():
    cfg = SymmetryConfig(rigidified=True, chi_max=6, beta_max=1)
    gens = {g.name: g for g in symmetry_generators(D4, cfg)}
    twist = gens["motivic-twist"]
    cc = CurveClass(0, (1, 1, 0, 0))
    chis = [cc.chi]
    for _ in range(5):
        cc, _ = twist.act(cc)
        chis.append(cc.chi)
    assert chis == [0, 1, 2, 3, 4, 5]


def test_numeric_twists_alone_join_their_ends_and_leave_singletons():
    # neither rigidified nor any non-flop node: the numeric twists are the
    # only generators
    cfg = SymmetryConfig(chi_max=1, beta_max=1)
    part = orbit_partition(A3J2, cfg)
    certs = list(part.certificates())
    assert certs
    for _, _, cert in certs:
        assert cert.rule == "symmetry:numeric-line-bundle-twist"
        assert len(cert.params) == 1 and cert.params[0][0] == "node"
        assert cert.params[0][1] in A3J2.kept
    orbit_of = {cc: o for o in part.orbits() for cc in o}
    for a, b, _ in certs:
        assert orbit_of[a] is orbit_of[b]
    assert any(len(o) == 1 for o in part.orbits())


def test_orbit_verdict_constancy_small():
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset({1, 2}),
                         chi_max=3, beta_max=2)
    part = orbit_partition(D4, cfg)
    ok, offenders = verdict_constant_on_orbits(D4, part)
    assert ok, offenders


@pytest.mark.parametrize("family, rank, contracted", [
    ("A", 3, {2}), ("D", 4, set()), ("D", 5, {1, 3})], ids=["A3-2", "D4", "D5-1,3"])
def test_orbits_are_the_components_of_distinct_edges(family, rank, contracted):
    dtype = DynkinType(build_diagram(family, rank), frozenset(contracted))
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset(dtype.kept),
                         chi_max=2, beta_max=1)
    part = orbit_partition(dtype, cfg)
    certs = list(part.certificates())
    tags = [(a, b, cert.rule, cert.params) for a, b, cert in certs]
    assert tags and len(tags) == len(set(tags))
    adjacent = {cc: [] for cc in window_classes(dtype, cfg)}
    for a, b, _ in certs:
        adjacent[a].append(b)
        adjacent[b].append(a)
    components, seen = [], set()
    for start in adjacent:
        if start in seen:
            continue
        seen.add(start)
        queue, members = [start], []
        while queue:
            cc = queue.pop(0)
            members.append(cc)
            for nxt in adjacent[cc]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        components.append(tuple(sorted(members)))
    assert tuple(part.orbits()) == tuple(sorted(components))
    assert any(len(o) > 1 for o in part.orbits())


def test_orbit_certificates_stream_from_the_closure(monkeypatch):
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset(D4.kept),
                         chi_max=2, beta_max=1)
    calls = []
    generators = bps.symmetry_generators

    def counted(dtype, config, **size):
        def wrap(gen):
            def act(cc, i=None):
                calls.append(cc)
                return gen.act(cc, i)
            return ClassGenerator(gen.name, gen.rule, gen.level, act)
        return tuple(map(wrap, generators(dtype, config, **size)))

    monkeypatch.setattr(bps, "symmetry_generators", counted)
    n_gens = len(generators(D4, cfg))
    n_classes = sum(1 for _ in window_classes(D4, cfg))
    part = orbit_partition(D4, cfg)
    assert not calls
    certs = part.certificates()
    next(certs)
    assert 0 < len(calls) < n_gens * n_classes
    rest = list(certs)
    assert len(calls) == n_gens * n_classes
    assert rest

    first = orbit_partition(D4, cfg)
    assert tuple(first.orbits()) == tuple(part.orbits())
    with pytest.raises(RuntimeError):
        next(first.certificates())
    with pytest.raises(RuntimeError):
        next(part.certificates())


def test_orbit_certificates_are_read_once_and_before_the_orbits():
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset({1}),
                         chi_max=2, beta_max=1)
    part = orbit_partition(D4, cfg)
    certs = part.certificates()
    next(certs)
    with pytest.raises(RuntimeError):
        next(part.certificates())
    assert tuple(part.orbits())
    with pytest.raises(RuntimeError):
        next(certs)


# the traced peak, above its start, of writing the D4 rigidified orbits
# document, every node non-flop, at window chi=argv[1], beta=argv[2], to a
# writer that discards it; a small window is written first, so the module
# caches are full
_ORBITS_WRITE_PEAK = """
import sys, tracemalloc
from cdvwall.bps import SymmetryConfig, orbit_partition
from cdvwall.cli import write_json
from cdvwall.dynkin import build_diagram
from cdvwall.restriction import DynkinType
d4 = DynkinType(build_diagram("D", 4), frozenset())
cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset({1, 2, 3, 4}),
                     chi_max=int(sys.argv[1]), beta_max=int(sys.argv[2]))
write_json(orbit_partition(d4, cfg._replace(chi_max=1, beta_max=1)).to_json(), lambda text: None)
tracemalloc.start()
start = tracemalloc.get_traced_memory()[0]
write_json(orbit_partition(d4, cfg).to_json(), lambda text: None)
print(tracemalloc.get_traced_memory()[1] - start)
"""


def _orbits_write_peak(chi_max: int, beta_max: int) -> int:
    """_ORBITS_WRITE_PEAK in a fresh interpreter.  In this one the reading
    would depend on the tests run before it: an object reused from a free
    list they filled is not a traced allocation."""
    proc = subprocess.run([sys.executable, "-c", _ORBITS_WRITE_PEAK, str(chi_max), str(beta_max)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


def test_writing_the_orbits_holds_no_certificate_list():
    # the closure streams its steps into the writer; held as a list, the
    # steps of this window would lift the traced peak to about 3 MB.  The
    # peak reads 0.23-0.24 MB on Python 3.10-3.13, so the bound leaves
    # 0.11 MB; writing in blocks of 16,384 parts it read 1.03 MB, and with
    # the window's class tuple kept 0.53 MB
    assert (peak := _orbits_write_peak(4, 2)) < 350_000, peak


def test_the_orbit_pass_holds_no_class_and_an_index_apiece():
    # at the benchmark's window (12,121 classes) the pass holds an index
    # array and two bytearrays of memos, and builds the classes again for
    # each sweep.  The peak reads 0.34-0.35 MB on Python 3.10-3.13, so the
    # bound leaves 0.15 MB.  Keeping the class tuple reads 2.06 MB, writing
    # in blocks of 16,384 parts 1.27 MB, a {class: index} dict beside the
    # class tuple 2.86-3.10 MB, and the pass that kept both and grouped the
    # orbits in a dict of lists 5.9-6.3 MB
    assert (peak := _orbits_write_peak(6, 3)) < 500_000, peak


def test_certificates_name_their_rule():
    cfg = SymmetryConfig(rigidified=True, non_flop_nodes=frozenset({1}),
                         chi_max=2, beta_max=1)
    part = orbit_partition(D4, cfg)
    certs = list(part.certificates())
    assert certs
    for _, _, cert in certs:
        assert cert.rule.startswith("symmetry:")
        if cert.rule == "symmetry:motivic-duality":
            assert "n" in dict(cert.params)


def test_transport_fixes_orthogonal_classes():
    # node 4 is not adjacent to node 1 in D4, and e_4 pairs to zero with e_1
    out = gv_transport(D4, (0, 0, 0, 1), 1, flop=False)
    assert out.image_beta == (0, 0, 0, 1)


def test_transport_reflects_adjacent_classes():
    out = gv_transport(D4, (0, 1, 0, 0), 1, flop=False)
    assert out.image_beta == (1, 1, 0, 0)
    assert out.target == "same space"


def test_transport_rejects_colinear():
    with pytest.raises(ClassError):
        gv_transport(D4, (2, 0, 0, 0), 1, flop=True)


def test_transport_rejects_vacuous_nonroot():
    with pytest.raises(ClassError):
        gv_transport(D4, (1, 0, 0, 1), 1, flop=False)


def test_transport_image_is_a_restricted_root_of_the_target():
    dt = DynkinType(build_diagram("D", 4), frozenset({3}))
    values = finite_restricted_values(dt)
    positives = sorted(v for v in values if all(c >= 0 for c in v))
    for node in dt.kept:
        unit = tuple(1 if n == node else 0 for n in dt.kept)
        for beta in positives:
            if is_colinear(beta, unit):
                continue
            out = gv_transport(dt, beta, node, flop=True)
            target = DynkinType(dt.diagram, frozenset(out.target_contracted) - {0})
            assert out.image_beta in finite_restricted_values(target)


def test_transport_flop_tags_the_target_type():
    dt = DynkinType(build_diagram("A", 3), frozenset({2}))
    out = gv_transport(dt, (0, 1), 1, flop=True)
    assert out.target == "flopped space"


@pytest.mark.parametrize("family, rank", [("A", 3), ("D", 4), ("D", 5), ("E", 6)])
def test_transport_agrees_with_the_mutation_generator_where_delta_is_fixed(family, rank):
    # two engine paths to the image of (1, beta) under one mutation: the
    # transport's step relabelling and the mutation generator's dimension
    # vector map.  They agree exactly when iota(node) and node carry the
    # same coefficient of the imaginary root; elsewhere they differ (for
    # D4 {1}, node 2, beta (1, 0, 1): (0, 0, 1) against (-1, 0, 1)).
    diagram = build_diagram(family, rank)
    for size in range(len(diagram.nodes) - 1):
        for subset in itertools.combinations(diagram.nodes, size):
            dt = DynkinType(diagram, frozenset(subset))
            aff = affine_companion(dt)
            delta = dict(zip(aff.diagram.nodes, imaginary_root(aff.diagram)))
            positives = sorted(v for v in finite_restricted_values(dt)
                               if all(c >= 0 for c in v))
            for node in dt.kept:
                _, iota_node, _ = mutation_data(aff.diagram, aff.contracted, node)
                if delta[iota_node] != delta[node]:
                    continue
                unit = tuple(1 if n == node else 0 for n in dt.kept)
                apply_map = mutation_vector_map(dt, node)
                for beta in positives:
                    if is_colinear(beta, unit):
                        continue
                    image = vector_to_class(
                        aff, apply_map(class_to_vector(aff, CurveClass(1, beta))))
                    assert image == CurveClass(1, gv_transport(dt, beta, node, False).image_beta)


@pytest.mark.parametrize("rigidified", [False, True], ids=["numeric", "motivic"])
@pytest.mark.parametrize("family, rank, chi_max, beta_max", [
    ("A", 3, 2, 2), ("D", 4, 2, 2), ("D", 5, 2, 1), ("E", 6, 1, 1)])
def test_every_generator_step_keeps_the_forced_zero_verdict(family, rank, chi_max, beta_max,
                                                            rigidified):
    # criterion 7 checks whole orbits; this checks each generator on its
    # own, with mutations at the kept nodes that iota fixes.  A mutation at
    # a node with iota(node) != node can move a candidate class to a
    # forced-zero one (D5 {1,3}, node 4: (0, (1,0,1)) to (0, (1,2,1))).
    diagram = build_diagram(family, rank)
    for size in range(len(diagram.nodes) - 1):
        for subset in itertools.combinations(diagram.nodes, size):
            dt = DynkinType(diagram, frozenset(subset))
            aff = affine_companion(dt)
            fixed = frozenset(n for n in dt.kept
                              if mutation_data(aff.diagram, aff.contracted, n)[1] == n)
            config = SymmetryConfig(rigidified=rigidified, non_flop_nodes=fixed,
                                    chi_max=chi_max, beta_max=beta_max)
            classes = tuple(window_classes(dt, config))
            for gen in symmetry_generators(dt, config):
                for cc in classes:
                    hit = gen.act(cc)
                    if hit is None:
                        continue
                    img = hit[0]
                    assert (geometric_verdict(dt, cc).forced_zero
                            == geometric_verdict(dt, img).forced_zero), (subset, gen.name, cc, img)
