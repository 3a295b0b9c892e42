"""The benchmark's checkers accept real outputs and count a run as failed
when one value in such an output is altered."""

from __future__ import annotations

import json
import subprocess
import sys
from functools import partial

import pytest

import checks
import run
from workloads import Command


def real_output(*args: str) -> bytes:
    proc = subprocess.run([sys.executable, "-m", "cdvwall", *args], capture_output=True,
                          env=run.pinned_env(), cwd=run.ROOT, check=True, timeout=120)
    return proc.stdout


def edit_json(out: bytes, change) -> bytes:
    data = json.loads(out)
    change(data["results"])
    return json.dumps(data).encode()


def flip_first_candidate(rows):
    row = next(r for r in rows if r["verdict"] == "candidate" and r["kind"] == "real")
    row.update(verdict="forced-zero", kind=None, base=None)


def change_one_ray(res):
    res["chambers"][1]["rays"][0][0] += 1


def subsets_off_by_one(res):
    res["subsets"] -= 1


def reverse_last_wall(rows):
    row = next(r for r in rows if "walls" in r)
    row["walls"][-1]["normal"] = [-c for c in row["walls"][-1]["normal"]]


CASES = {
    "verdict flipped": (
        ("vanishing-table", "--family", "D", "--rank", "4", "--window", "chi=2,beta=1"),
        partial(checks.check_vanishing_table, family="D", rank=4, contracted=(),
                chi_max=2, beta_max=1),
        flip_first_candidate),
    "ray changed": (
        ("chambers", "--family", "A", "--rank", "3", "--affine", "--maxlen", "3"),
        partial(checks.check_chambers, family="A", rank=3, contracted=(), max_len=3),
        change_one_ray),
    "count off by one": (
        ("check-gcd", "--family", "E", "--rank", "6"),
        partial(checks.check_gcd, rank=6, affine=False),
        subsets_off_by_one),
    "wall reversed": (
        ("gallery", "--family", "A", "--rank", "2", "--affine", "--contracted", "1"),
        partial(checks.check_gallery, family="A", rank=2, contracted=(1,)),
        reverse_last_wall),
}


def failed_ops(check, out: bytes, tmp_path, exit_code: int = 0) -> int:
    path = tmp_path / "output"
    path.write_bytes(out)
    key = (0, "digest")
    _, failed, _ = run.judge([Command(("x",), check)], [[{"exit": exit_code, "key": key}]],
                             {key: path})
    return failed


@pytest.mark.parametrize("case", sorted(CASES))
def test_altered_output_counts_as_failed(case, tmp_path):
    args, check, alter = CASES[case]
    out = real_output(*args)
    assert check(out) == []
    assert failed_ops(check, out, tmp_path) == 0
    assert failed_ops(check, edit_json(out, alter), tmp_path) == 1


def test_nonzero_exit_counts_as_failed(tmp_path):
    args, check, _ = CASES["count off by one"]
    assert failed_ops(check, real_output(*args), tmp_path, exit_code=1) == 1


def test_selftest_probe_count_off_by_one():
    lines = [f"[ok] root count {f}{n}: {checks.root_count(f, n)}"
             for f, n in checks.SELFTEST_ROOTS]
    lines += [f"[ok] oracle {s}: 0 set mismatches, 0 gcd failures" for s in checks.SELFTEST_SWEEPS]
    good = lines + ["[ok] chamber probe A2 affine: 9713 located, 287 skipped, 0 mismatches",
                    "selftest PASS: 0 failures"]
    assert checks.check_selftest(("\n".join(good) + "\n").encode()) == []
    good[-2] = good[-2].replace("287", "286")
    assert checks.check_selftest(("\n".join(good) + "\n").encode()) != []


def test_unreadable_output_is_a_problem():
    assert checks.check_mutate(b"Traceback (most recent call last):", rank=8,
                               contracted=(2, 5, 7)) != []
