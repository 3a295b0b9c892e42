"""Output checks for the benchmark, written apart from ``src/cdvwall``.

Nothing here imports the program.  Roots are the norm-2 vectors of the
Cartan form, grown height by height from the simple roots; the imaginary
root is alpha_0 plus the highest root and is confirmed to lie in the kernel
of the affine Cartan matrix; determinants use exact fraction elimination.
Every checker takes the bytes a command printed and returns a list of
problems, empty when the output is correct.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import deque
from fractions import Fraction
from functools import lru_cache, wraps
from math import gcd

# ---------------------------------------------------------------- Dynkin data
# Node labels follow the program's documented convention: finite nodes
# 1..rank along the chain with fork tips last, extended vertex 0.


def edges(family: str, rank: int, affine: bool) -> tuple:
    chain = [(i, i + 1) for i in range(1, rank)]
    if family == "A":
        out = chain
        extra = [(0, 1), (0, 1)] if rank == 1 else [(0, 1), (0, rank)]
    elif family == "D":
        out = [(i, i + 1) for i in range(1, rank - 2)] + [(rank - 2, rank - 1), (rank - 2, rank)]
        extra = [(0, 2)]
    elif family == "E":
        branch = 5 if rank == 8 else 3
        out = [(i, i + 1) for i in range(1, rank - 1)] + [(branch, rank)]
        extra = [(0, 6 if rank == 6 else 1)]
    else:
        raise ValueError(f"unknown family {family}")
    return tuple(out + extra) if affine else tuple(out)


def nodes(rank: int, affine: bool) -> tuple:
    return tuple(range(0 if affine else 1, rank + 1))


@lru_cache(maxsize=None)
def cartan(family: str, rank: int, affine: bool) -> tuple:
    ns = nodes(rank, affine)
    at = {n: i for i, n in enumerate(ns)}
    a = [[2 if i == j else 0 for j in range(len(ns))] for i in range(len(ns))]
    for x, y in edges(family, rank, affine):
        a[at[x]][at[y]] -= 1
        a[at[y]][at[x]] -= 1
    return tuple(tuple(r) for r in a)


def form(a, v) -> int:
    return sum(v[i] * a[i][j] * v[j] for i in range(len(v)) for j in range(len(v)))


@lru_cache(maxsize=None)
def positive_roots(family: str, rank: int) -> frozenset:
    """Positive roots of the finite type: non-negative norm-2 vectors."""
    a = cartan(family, rank, False)
    simples = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    found, layer = set(simples), set(simples)
    while layer:
        layer = {w for v in layer for s in simples
                 for w in [tuple(x + y for x, y in zip(v, s))]
                 if w not in found and form(a, w) == 2}
        found |= layer
    return frozenset(found)


@lru_cache(maxsize=None)
def roots(family: str, rank: int) -> frozenset:
    pos = positive_roots(family, rank)
    return pos | {tuple(-c for c in r) for r in pos}


@lru_cache(maxsize=None)
def imaginary_root(family: str, rank: int) -> tuple:
    """delta in affine coordinates (node 0 first), checked to be null."""
    high = max(positive_roots(family, rank), key=sum)
    delta = (1,) + high
    a = cartan(family, rank, True)
    if any(sum(row[j] * delta[j] for j in range(len(delta))) for row in a):
        raise AssertionError("alpha_0 + highest root is not in the Cartan kernel")
    return delta


def root_count(family: str, rank: int) -> int:
    if family == "A":
        return rank * (rank + 1) // 2
    if family == "D":
        return rank * (rank - 1)
    return {6: 36, 7: 63, 8: 120}[rank]


DEGREES = {
    ("E", 6): (2, 5, 6, 8, 9, 12),
    ("E", 7): (2, 6, 8, 10, 12, 14, 18),
    ("E", 8): (2, 8, 12, 14, 18, 20, 24, 30),
}


def degrees(family: str, rank: int) -> tuple:
    if family == "A":
        return tuple(range(2, rank + 2))
    if family == "D":
        return tuple(range(2, 2 * rank - 1, 2)) + (rank,)
    return DEGREES[family, rank]


def affine_elements_up_to(family: str, rank: int, max_len: int) -> int:
    """Affine Weyl elements of length <= max_len, from Bott's formula
    W(q) = prod [d_i]_q / (1 - q^(d_i - 1)), truncated at q^max_len."""
    series = [1] + [0] * max_len
    for d in degrees(family, rank):
        for factor in ([1] * d, [int(k % (d - 1) == 0) for k in range(max_len + 1)]):
            series = [sum(series[i] * factor[k - i] for i in range(k + 1) if k - i < len(factor))
                      for k in range(max_len + 1)]
    return sum(series)


# ---------------------------------------------------------- small helpers


def vec_gcd(v) -> int:
    g = 0
    for c in v:
        g = gcd(g, abs(c))
    return g


def normalised(v) -> tuple:
    """Primitive, first nonzero entry positive."""
    g = vec_gcd(v)
    w = tuple(c // g for c in v)
    lead = next(c for c in w if c != 0)
    return w if lead > 0 else tuple(-c for c in w)


def colinear(u, v) -> bool:
    return all(u[i] * v[j] == u[j] * v[i] for i in range(len(u)) for j in range(len(u)))


def determinant(rows) -> Fraction:
    m = [[Fraction(c) for c in r] for r in rows]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def load(out: bytes, command: str):
    data = json.loads(out)
    if data.get("command") != command:
        raise ValueError(f"payload is not a {command} result")
    return data["results"]


def guarded(fn):
    """Turn a malformed payload into a reported problem; report at most
    five problems per output."""
    @wraps(fn)
    def run(out: bytes, *args, **kwargs) -> list:
        try:
            return fn(out, *args, **kwargs)[:5]
        except (ValueError, KeyError, TypeError, IndexError, StopIteration,
                AttributeError, ZeroDivisionError) as err:
            return [f"unreadable output: {type(err).__name__}: {err}"]
    return run


def kept_nodes(rank: int, affine: bool, contracted) -> tuple:
    return tuple(n for n in nodes(rank, affine) if n not in set(contracted))


def projector(rank: int, affine: bool, contracted):
    keep = [i for i, n in enumerate(nodes(rank, affine)) if n not in set(contracted)]
    return lambda v: tuple(v[i] for i in keep)


def affine_restricted(family: str, rank: int, contracted, k_max: int) -> set:
    """Projections of {r + k delta : |k| <= k_max} and {k delta : 0 < |k| <= k_max}."""
    delta = imaginary_root(family, rank)
    proj = projector(rank, True, contracted)
    out = set()
    for k in range(-k_max, k_max + 1):
        for r in roots(family, rank):
            out.add(proj(tuple(a + k * d for a, d in zip((0,) + r, delta))))
        if k:
            out.add(proj(tuple(k * d for d in delta)))
    out.discard(tuple(0 for _ in proj(delta)))
    return out


@lru_cache(maxsize=None)
def finite_restricted(family: str, rank: int, contracted) -> frozenset:
    proj = projector(rank, False, contracted)
    zero = proj((0,) * rank)
    return frozenset(p for r in roots(family, rank) for p in [proj(r)] if p != zero)


# ------------------------------------------------------------------ checkers


@guarded
def check_gcd(out: bytes, rank: int, affine: bool) -> list:
    """gcd-closure: no violation on any of the 2^n - 1 proper subsets."""
    res = load(out, "check-gcd")
    n = len(nodes(rank, affine))
    problems = []
    if res["subsets"] != 2 ** n - 1:
        problems.append(f"{res['subsets']} subsets, expected {2 ** n - 1}")
    if res["violations"] != 0 or res["summary"] != "0 violations" or res["failing"]:
        problems.append(f"gcd closure reported {res['summary']!r}")
    return problems


@guarded
def check_restricted_roots(out: bytes, family: str, rank: int, contracted, k_max: int) -> list:
    """The element set equals the projected window, with gcd multiplicities."""
    res = load(out, "restricted-roots")
    got = [tuple(e["coeffs"]) for e in res["elements"]]
    want = affine_restricted(family, rank, contracted, k_max)
    problems = []
    if len(set(got)) != len(got):
        problems.append("duplicate restricted roots")
    if set(got) != want:
        problems.append(f"{len(set(got) - want)} unexpected and {len(want - set(got))} "
                        f"missing restricted roots")
    bad = [e["coeffs"] for e in res["elements"] if e["mult"] != vec_gcd(e["coeffs"])]
    if bad:
        problems.append(f"wrong multiplicity on {bad[0]}")
    if res["window"] != k_max:
        problems.append(f"window {res['window']}, expected {k_max}")
    return problems


def _bfs_depths(count: int, pairs) -> dict:
    adj = {i: set() for i in range(count)}
    for a, b in pairs:
        adj[a].add(b)
        adj[b].add(a)
    depth, queue = {0: 0}, deque([0])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in depth:
                depth[y] = depth[x] + 1
                queue.append(y)
    return depth


@guarded
def check_chambers(out: bytes, family: str, rank: int, contracted, max_len: int) -> list:
    """Simplicial chambers with independent rays, genuine adjacencies, all
    within max_len crossings; with nothing contracted the count is Bott's."""
    res = load(out, "chambers")
    chambers, adjacency = res["chambers"], res["adjacency"]
    m = len(kept_nodes(rank, True, contracted))
    problems = []
    if res["count"] != len(chambers):
        problems.append(f"count {res['count']} but {len(chambers)} chambers listed")
    if not contracted:
        want = affine_elements_up_to(family, rank, max_len)
        if len(chambers) != want:
            problems.append(f"{len(chambers)} chambers, Bott's formula gives {want}")
    base = chambers[0]
    if base["word"] or base["subset"] != sorted(contracted) or \
            base["rays"] != [[int(i == j) for j in range(m)] for i in range(m)]:
        problems.append("first chamber is not the fundamental chamber")
    interior = []
    for i, c in enumerate(chambers):
        rays = [tuple(r) for r in c["rays"]]
        if c["sign"] != 1 or len(rays) != m or any(len(r) != m for r in rays):
            problems.append(f"chamber {i} is not a positive {m}-ray cone")
            return problems
        if determinant(rays) == 0:
            problems.append(f"chamber {i} has dependent rays")
        interior.append((rays, tuple(c["sign"] * sum(col) for col in zip(*rays))))
    if len({frozenset(r) for r, _ in interior}) != len(interior):
        problems.append("two chambers share their ray set")
    pairs = []
    for e in adjacency:
        a, b, normal = e["a"], e["b"], tuple(e["wall"]["normal"])
        if not 0 <= a < b < len(chambers) or e["wall"]["offset"] != 0 \
                or normal != normalised(normal):
            problems.append(f"malformed adjacency {a}-{b}")
            continue
        (rays_a, pa), (rays_b, pb) = interior[a], interior[b]
        if dot(pa, normal) * dot(pb, normal) >= 0:
            problems.append(f"adjacency {a}-{b}: interiors not strictly across the wall")
        for rays in (rays_a, rays_b):
            if sum(dot(r, normal) == 0 for r in rays) != m - 1:
                problems.append(f"adjacency {a}-{b}: wall is not a common facet")
                break
        pairs.append((a, b))
    depth = _bfs_depths(len(chambers), pairs)
    if len(depth) != len(chambers) or max(depth.values()) > max_len:
        problems.append(f"chambers unreachable within {max_len} crossings")
    return problems


NODE_LINE = re.compile(r'  c(\d+) \[label="([+-])\[([0-9,]+|e)\|([0-9,]+|-)\]"\];')
EDGE_LINE = re.compile(r'  c(\d+) -- c(\d+) \[label="\(([-0-9,]+)\)"\];')


@guarded
def check_chamber_dot(out: bytes, contracted, max_len: int) -> list:
    """DOT chamber graph: fundamental chamber first, labels distinct, walls
    primitive, every chamber within max_len crossings of the first."""
    lines = out.decode().splitlines()
    problems = []
    if lines[:2] != ["graph chambers {", "  node [shape=box];"] or lines[-1] != "}":
        return ["not a chamber graph"]
    labels, pairs, seen = [], [], set()
    for line in lines[2:-1]:
        if (mn := NODE_LINE.fullmatch(line)):
            if int(mn.group(1)) != len(labels) or pairs:
                return [f"chamber line out of order: {line}"]
            subset = [] if mn.group(4) == "-" else mn.group(4).split(",")
            if mn.group(2) != "+" or len(subset) != len(contracted):
                problems.append(f"label of the wrong sign or subset size: {line}")
            labels.append(line.split('"')[1])
        elif (me := EDGE_LINE.fullmatch(line)):
            a, b = int(me.group(1)), int(me.group(2))
            normal = tuple(int(c) for c in me.group(3).split(","))
            if not a < b < len(labels) or normal != normalised(normal) or (a, b, normal) in seen:
                problems.append(f"malformed edge: {line}")
            seen.add((a, b, normal))
            pairs.append((a, b))
        else:
            return [f"unreadable line: {line}"]
    want_base = "+[e|" + (",".join(map(str, sorted(contracted))) or "-") + "]"
    if not labels or labels[0] != want_base:
        problems.append("first chamber is not the fundamental chamber")
    if len(set(labels)) != len(labels):
        problems.append("duplicate chamber labels")
    depth = _bfs_depths(len(labels), pairs)
    if len(depth) != len(labels) or max(depth.values()) > max_len:
        problems.append(f"chambers unreachable within {max_len} crossings")
    return problems


def _in_cone(target, u, v) -> bool:
    """target = a u + b v with rational a, b >= 0 (u, v independent)."""
    for i, j in itertools.combinations(range(len(u)), 2):
        d = u[i] * v[j] - u[j] * v[i]
        if d:
            a = Fraction(target[i] * v[j] - target[j] * v[i], d)
            b = Fraction(u[i] * target[j] - u[j] * target[i], d)
            exact = all(a * x + b * y == t for x, y, t in zip(u, v, target))
            return exact and a >= 0 and b >= 0
    return False


@guarded
def check_gallery(out: bytes, family: str, rank: int, contracted) -> list:
    """One row per (kept node, positive level-1 restricted root off the
    simple and imaginary lines).  A gallery has distinct walls, starts at
    the restricted simple root and ends at rbar; a row is skipped exactly
    when the imaginary direction lies in the cone of rbar and the simple."""
    rows = load(out, "gallery")
    kept = kept_nodes(rank, True, contracted)
    proj = projector(rank, True, contracted)
    rim = proj(imaginary_root(family, rank))
    positives = sorted(v for v in affine_restricted(family, rank, contracted, 1)
                       if all(c >= 0 for c in v))
    want = []
    for node in kept:
        alpha = tuple(int(n == node) for n in kept)
        want += [(node, r, alpha) for r in positives if not colinear(r, alpha) and not colinear(r, rim)]
    if [(r["node"], tuple(r["rbar"])) for r in rows] != [(n, r) for n, r, _ in want]:
        return ["gallery rows do not cover the expected (node, rbar) pairs"]
    problems = []
    for row, (node, rbar, alpha) in zip(rows, want):
        blocked = _in_cone(rim, rbar, alpha)
        if "skipped" in row:
            if not blocked:
                problems.append(f"node {node} rbar {list(rbar)} skipped: {row['skipped']}")
            continue
        if blocked:
            problems.append(f"node {node} rbar {list(rbar)}: gallery where none exists")
        walls = [(tuple(w["normal"]), w["offset"]) for w in row["walls"]]
        if len(set(walls)) != len(walls) or row["length"] != len(walls) \
                or len(row["labels"]) != len(walls) + 1:
            problems.append(f"node {node} rbar {list(rbar)}: malformed gallery")
        elif walls[0] != (normalised(alpha), 0) or walls[-1] != (normalised(rbar), 0):
            problems.append(f"node {node} rbar {list(rbar)}: wrong first or last wall")
    return problems


@guarded
def check_mutate(out: bytes, rank: int, contracted) -> list:
    """One mutation per kept node; every induced root map is unimodular."""
    rows = load(out, "mutate")
    kept = kept_nodes(rank, True, contracted)
    problems = []
    if [r["node"] for r in rows] != list(kept):
        problems.append("mutation rows do not follow the kept nodes")
    for r in rows:
        enlarged = set(contracted) | {r["node"]}
        if r["iota"] not in enlarged or set(r["target"]) != enlarged - {r["iota"]}:
            problems.append(f"node {r['node']}: target subset inconsistent with iota")
        matrix = r["induced_matrix"]
        if len(matrix) != len(kept) or abs(determinant(matrix)) != 1:
            problems.append(f"node {r['node']}: induced matrix is not unimodular")
    return problems


def window_classes(family: str, rank: int, contracted, chi_max: int, beta_max: int) -> list:
    """Classes (chi, beta) != 0, 0 <= chi <= chi_max, |beta_i| <= beta_max,
    whose dimension vector beta + chi * pi(delta) is non-negative.  Node 0
    is kept and carries chi, so only the finite coordinates can go negative."""
    rim = projector(rank, True, contracted)(imaginary_root(family, rank))[1:]
    out = []
    for chi in range(chi_max + 1):
        for beta in itertools.product(range(-beta_max, beta_max + 1), repeat=len(rim)):
            if (chi or any(beta)) and all(b + chi * r >= 0 for b, r in zip(beta, rim)):
                out.append((chi, beta))
    return out


def verdict(family: str, rank: int, contracted, chi: int, beta) -> dict:
    """Forced zero iff beta / gcd(chi, beta) is not a restricted root."""
    if not any(beta):
        rim = projector(rank, True, contracted)(imaginary_root(family, rank))
        return {"verdict": "candidate", "mult": chi, "kind": "imaginary", "base": list(rim)}
    d = gcd(chi, vec_gcd(beta))
    base = tuple(b // d for b in beta)
    if base in finite_restricted(family, rank, contracted):
        return {"verdict": "candidate", "mult": d, "kind": "real", "base": list(base)}
    return {"verdict": "forced-zero", "mult": d, "kind": None, "base": None}


@guarded
def check_vanishing_table(out: bytes, family: str, rank: int, contracted,
                          chi_max: int, beta_max: int) -> list:
    """Every window class once, in order, with a recomputed verdict."""
    rows = load(out, "vanishing-table")
    classes = window_classes(family, rank, contracted, chi_max, beta_max)
    if len(rows) != len(classes):
        return [f"{len(rows)} rows, expected {len(classes)} window classes"]
    problems = []
    for row, (chi, beta) in zip(rows, classes):
        want = verdict(family, rank, contracted, chi, beta)
        got = {k: row[k] for k in want}
        if row["class"] != {"chi": chi, "beta": list(beta)} or got != want \
                or row["paper_ref"] != "vanishing:nonroot-curve-class" or row["global"]:
            problems.append(f"class ({chi}, {list(beta)}): got {got}, expected {want}")
    return problems


@guarded
def check_orbits(out: bytes, family: str, rank: int, contracted,
                 chi_max: int, beta_max: int) -> list:
    """The orbits partition the window, forced-zero verdicts are constant on
    each orbit, and every certificate joins two members of one orbit."""
    res = load(out, "orbits")
    owner, problems = {}, []
    for i, orbit in enumerate(res["orbits"]):
        members = [(m["chi"], tuple(m["beta"])) for m in orbit["members"]]
        rep = orbit["representative"]
        if members != sorted(members) or (rep["chi"], tuple(rep["beta"])) != members[0]:
            problems.append(f"orbit {i} is not sorted with its representative first")
        flags = {verdict(family, rank, contracted, chi, beta)["verdict"] for chi, beta in members}
        if len(flags) != 1:
            problems.append(f"orbit {i} mixes forced-zero and candidate classes")
        for key in members:
            if key in owner:
                problems.append(f"class {key} lies in orbits {owner[key]} and {i}")
            owner[key] = i
    if set(owner) != set(window_classes(family, rank, contracted, chi_max, beta_max)):
        problems.append("orbit members are not the window classes")
    for cert in res["certificates"]:
        a = (cert["from"]["chi"], tuple(cert["from"]["beta"]))
        b = (cert["to"]["chi"], tuple(cert["to"]["beta"]))
        if a not in owner or owner.get(a) != owner.get(b):
            problems.append(f"certificate {a} -> {b} crosses orbits")
            break
    return problems


@guarded
def check_gv_map(out: bytes, family: str, rank: int, beta_max: int) -> list:
    """Each effective beta off the node's line is transported exactly when it
    is a positive root, and every image is a positive root."""
    rows = load(out, "gv-map")
    pos = positive_roots(family, rank)
    want = []
    for node in range(1, rank + 1):
        unit = tuple(int(n == node) for n in range(1, rank + 1))
        want += [(node, beta) for beta in itertools.product(range(beta_max + 1), repeat=rank)
                 if any(beta) and not colinear(beta, unit)]
    if [(r["node"], tuple(r["beta"])) for r in rows] != want:
        return ["gv-map rows do not cover the expected (node, beta) pairs"]
    problems = []
    for r in rows:
        beta = tuple(r["beta"])
        if ("skipped" in r) == (beta in pos):
            problems.append(f"node {r['node']} beta {list(beta)}: transported iff a root fails")
        elif "image_beta" in r and tuple(r["image_beta"]) not in pos:
            problems.append(f"node {r['node']} beta {list(beta)}: image {r['image_beta']} "
                            f"is not a positive root")
    return problems


SELFTEST_ROOTS = [("A", n) for n in range(1, 9)] + [("D", n) for n in range(4, 9)] + \
    [("E", n) for n in (6, 7, 8)]
SELFTEST_SWEEPS = ("E6 all subsets", "D5 all subsets", "A7 50 subsets")
PROBE = re.compile(r"\[ok\] chamber probe A2 affine: (\d+) located, (\d+) skipped, 0 mismatches")


@guarded
def check_selftest(out: bytes, samples: int = 10_000) -> list:
    """Root counts match the closed forms, every oracle sweep is clean and
    the chamber probe accounts for all its samples."""
    lines = out.decode().splitlines()
    want = [f"[ok] root count {f}{n}: {root_count(f, n)}" for f, n in SELFTEST_ROOTS]
    want += [f"[ok] oracle {s}: 0 set mismatches, 0 gcd failures" for s in SELFTEST_SWEEPS]
    problems = []
    if lines[:len(want)] != want:
        problems.append("root-count or oracle lines differ from the expected ones")
    probe = PROBE.fullmatch(lines[len(want)]) if len(lines) == len(want) + 2 else None
    if probe is None or int(probe.group(1)) + int(probe.group(2)) != samples:
        problems.append(f"chamber probe does not account for {samples} samples")
    if lines[-1] != "selftest PASS: 0 failures":
        problems.append(f"last line reads {lines[-1]!r}")
    return problems


@guarded
def check_dihedral(out: bytes, n: int) -> list:
    text = out.decode()
    return [] if text == f"PASS dihedral n={n}\n" else [f"dihedral n={n} reads {text!r}"]


@guarded
def check_version(out: bytes) -> list:
    return [] if re.fullmatch(r"cdvwall \S+\n", out.decode()) else [f"version reads {out!r}"]
