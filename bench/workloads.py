"""The benchmark's workloads: the CLI commands each one runs, in order, and
the check each output must pass.  A seed picks the contraction subsets
where a workload has one to pick; everything else is fixed."""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Command:
    args: tuple
    check: Callable[[bytes], list]

    @property
    def text(self) -> str:
        return " ".join(self.args)


def _csv(nodes) -> str:
    return ",".join(map(str, nodes))


def affine_gcd(rng: random.Random) -> list:
    """gcd-closure sweeps: nearly all time is root expansion and restriction
    window scans, over subsets that share one diagram."""
    mask = rng.randrange(1, 2 ** 8 - 1)
    subset = tuple(n for n in range(8) if mask >> n & 1)
    e7 = ("--family", "E", "--rank", "7", "--affine")
    return [
        Command(("check-gcd", *e7), partial(checks.check_gcd, rank=7, affine=True)),
        Command(("check-gcd", "--family", "E", "--rank", "6", "--affine"),
                partial(checks.check_gcd, rank=6, affine=True)),
        Command(("check-gcd", "--family", "E", "--rank", "8"),
                partial(checks.check_gcd, rank=8, affine=False)),
        Command(("restricted-roots", *e7, "--kmax", "3", "--contracted", _csv(subset)),
                partial(checks.check_restricted_roots, family="E", rank=7,
                        contracted=subset, k_max=3)),
    ]


def chamber_bfs(rng: random.Random) -> list:
    """Wall-crossing: Weyl and linear algebra, facet verification and
    mutation, with no affine window sweep."""
    pair = rng.choice(list(itertools.combinations(range(8), 2)))
    return [
        Command(("chambers", "--family", "E", "--rank", "7", "--affine",
                 "--contracted", _csv(pair), "--maxlen", "4"),
                partial(checks.check_chambers, family="E", rank=7, contracted=pair, max_len=4)),
        Command(("chambers", "--family", "E", "--rank", "6", "--affine", "--maxlen", "4"),
                partial(checks.check_chambers, family="E", rank=6, contracted=(), max_len=4)),
        Command(("chambers", "--family", "D", "--rank", "6", "--affine", "--contracted", "2,4",
                 "--maxlen", "4", "--format", "dot"),
                partial(checks.check_chamber_dot, contracted=(2, 4), max_len=4)),
        Command(("gallery", "--family", "D", "--rank", "4", "--affine", "--contracted", "3,4"),
                partial(checks.check_gallery, family="D", rank=4, contracted=(3, 4))),
        Command(("mutate", "--family", "E", "--rank", "8", "--affine", "--contracted", "2,5,7"),
                partial(checks.check_mutate, rank=8, contracted=(2, 5, 7))),
    ]


def verdict_tables(rng: random.Random) -> list:
    """Large verdict tables: bps decisions and JSON encoding of 32 MB."""
    return [
        Command(("vanishing-table", "--family", "E", "--rank", "6", "--window", "chi=4,beta=2"),
                partial(checks.check_vanishing_table, family="E", rank=6, contracted=(),
                        chi_max=4, beta_max=2)),
        Command(("orbits", "--family", "D", "--rank", "4", "--rigidified",
                 "--non-flop", "1,2,3,4", "--window", "chi=6,beta=3"),
                partial(checks.check_orbits, family="D", rank=4, contracted=(),
                        chi_max=6, beta_max=3)),
        Command(("gv-map", "--family", "D", "--rank", "4", "--non-flop", "1"),
                partial(checks.check_gv_map, family="D", rank=4, beta_max=2)),
    ]


def selftest(rng: random.Random) -> list:
    """The oracle suite and the point-location walk of the chamber probe."""
    return [Command(("selftest",), checks.check_selftest)] + [
        Command(("dihedral-check", "--n", str(n), "--format", "text"),
                partial(checks.check_dihedral, n=n))
        for n in range(2, 6)
    ]


WORKLOADS = {
    "affine-gcd": affine_gcd,
    "chamber-bfs": chamber_bfs,
    "verdict-tables": verdict_tables,
    "selftest": selftest,
}


def commands(workload: str, seed: int) -> list:
    return WORKLOADS[workload](random.Random(seed))
