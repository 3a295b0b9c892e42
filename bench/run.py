#!/usr/bin/env python3
"""End-to-end benchmark of the cdvwall command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the program is the checkout's own
``src/``.  Each command of the workload runs in a fresh interpreter, one at
a time, timed from spawn to exit, with CPU time and peak RSS read from
``os.wait4``.  A round runs every command once; a run repeats whole rounds
until S seconds have passed, then checks every distinct output with the
independent checks in ``checks.py``.  With ``--trace 1`` the run makes one
untraced round and one round through ``shim.py`` and reports per-layer
figures instead.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 11
RUN_BUDGET_S = 150.0   # stop starting rounds well before the 180 s limit
# the layers shim.py traces, listed again so an untraced run never imports it
LAYERS = ("linalg", "dynkin", "weyl", "restriction", "arrangement", "groupoid",
          "bps", "oracle", "dihedral", "exports", "cli")
# per-layer metric -> traced function whose call count it reports
CALL_COUNTS = {
    "dynkin.finite_part.calls": "dynkin:Diagram.finite_part",
    "dynkin.expand.calls": "dynkin:AffineRealRoot.expand",
    "dynkin.build_diagram.calls": "dynkin:build_diagram",
    "restriction.restricted_roots.calls": "restriction:restricted_roots",
    "restriction.classify_value.calls": "restriction:classify_value",
    "bps.affine_companion.calls": "bps:affine_companion",
    "bps.geometric_verdict.calls": "bps:geometric_verdict",
    "linalg.invert_unimodular.calls": "linalg:invert_unimodular",
    "linalg.det.calls": "linalg:det",
    "linalg.solve.calls": "linalg:solve",
    "weyl.mul.calls": "weyl:WeylElement.__mul__",
    "weyl.inverse.calls": "weyl:WeylElement.inverse",
    "weyl.coset_minimal.calls": "weyl:coset_minimal",
    "arrangement.cross_wall.calls": "arrangement:cross_wall",
    "arrangement.shares_facet.calls": "arrangement:shares_facet",
    "arrangement.chamber_from_label.calls": "arrangement:chamber_from_label",
    "arrangement.locate_by_walk.calls": "arrangement:locate_by_walk",
    "groupoid.mutate.calls": "groupoid:mutate",
    "oracle.sign_vector.calls": "oracle:sign_vector",
}


def pinned_env() -> dict:
    """The caller's environment without Python settings or the thread knob,
    running the checkout's sources with a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "CDVWALL_THREADS"}
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    return env


def environment() -> dict:
    lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.glob("cdvwall/*.py")))
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "src_lines": lines, "pythonhashseed": "0", "cdvwall_threads": None}


class Runner:
    """Runs commands one at a time through ``launch.py`` and keeps one copy
    of each distinct output."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.outputs: dict = {}   # (command index, digest) -> output path
        self.launcher = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "launch.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=pinned_env(), cwd=ROOT)

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list, index: int) -> dict:
        tmp = self.workdir / f"{index}.tmp"
        job = {"argv": argv, "stdout": str(tmp), "stderr": str(self.workdir / f"{index}.err"),
               "timeout": self.deadline - time.monotonic()}
        self.launcher.stdin.write(json.dumps(job) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process ended early")
        record = json.loads(reply)
        digest = hashlib.sha256()
        with open(tmp, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                digest.update(block)
        key = (index, digest.hexdigest())
        if key in self.outputs:
            tmp.unlink()
        else:
            self.outputs[key] = tmp.rename(self.workdir / f"{index}-{key[1][:16]}.out")
        return {"wall_s": record["wall_s"], "cpu_s": record["cpu_s"],
                "rss_mb": record["maxrss_kib"] / 1024, "exit": record["exit"],
                "key": key, "bytes": self.outputs[key].stat().st_size}

    def round(self, commands: list, traced_dir: Path | None = None) -> list:
        out = []
        for i, command in enumerate(commands):
            if traced_dir is None:
                argv = [sys.executable, "-m", "cdvwall", *command.args]
            else:
                argv = [sys.executable, str(HERE / "shim.py"), str(traced_dir / f"{i}.json"),
                        *command.args]
            out.append(self.spawn(argv, i))
        return out


def setup_seconds(runner: Runner) -> float:
    """Median start-up of `cdvwall --version`; a first untimed call writes
    the bytecode caches."""
    argv = [sys.executable, "-m", "cdvwall", "--version"]
    samples = []
    for _ in range(SETUP_SAMPLES + 1):
        record = runner.spawn(argv, -1)
        problems = checks.check_version(runner.outputs[record["key"]].read_bytes())
        if record["exit"] != 0 or problems:
            raise SystemExit(f"cdvwall --version failed: exit {record['exit']} {problems}")
        samples.append(record["wall_s"])
    return statistics.median(samples[1:])


def judge(commands: list, rounds: list, outputs: dict, traced: list = ()) -> tuple:
    """Attempted and failed operations: an operation fails when its process
    exits nonzero or its output fails the command's check; a traced output
    must also equal the untraced one byte for byte."""
    problems = {key: commands[key[0]].check(path.read_bytes())
                for key, path in outputs.items() if key[0] >= 0}
    for plain, rec in zip(rounds[0], traced):
        if rec["key"] != plain["key"]:
            problems[rec["key"]] = problems[rec["key"]] + ["traced output differs from untraced"]
    failed = sum(1 for rnd in rounds for rec in rnd if rec["exit"] != 0 or problems[rec["key"]])
    return sum(len(rnd) for rnd in rounds), failed, problems


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def round_totals(rnd: list) -> dict:
    return {"wall_s": sum(r["wall_s"] for r in rnd), "cpu_s": sum(r["cpu_s"] for r in rnd),
            "peak_rss_mb": max(r["rss_mb"] for r in rnd)}


def end_to_end(rounds: list, setup_s: float) -> dict:
    totals = [round_totals(rnd) for rnd in rounds]
    out = {name: metric(statistics.median(t[name] for t in totals), unit)
           for name, unit in (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))}
    out["setup_s"] = metric(setup_s, "s")
    return out


def per_layer(traces: list, traced: list, untraced: list) -> dict:
    funcs: dict = {}
    for trace in traces:
        for name, (calls, self_s, incl_s) in trace["functions"].items():
            agg = funcs.setdefault(name, [0, 0.0, 0.0])
            agg[0] += calls
            agg[1] += self_s
            agg[2] += incl_s

    def stat(name: str, field: int):
        return funcs.get(name, [0, 0.0, 0.0])[field]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {}
    for layer in LAYERS:
        mine = [v for k, v in funcs.items() if k.startswith(layer + ":")]
        out[f"{layer}.self_s"] = metric(sum(v[1] for v in mine), "s")
        out[f"{layer}.calls"] = metric(sum(v[0] for v in mine), "count")
    for name, func in CALL_COUNTS.items():
        out[name] = metric(stat(func, 0), "count")
    # invert_unimodular delegates only to linalg, so its inclusive time is
    # the linalg time it costs
    out["linalg.invert_unimodular.self_s"] = metric(stat("linalg:invert_unimodular", 2), "s")
    out["restriction.kept_per_scanned"] = metric(
        ratio(sum(t["restricted_roots_kept"] for t in traces),
              stat("dynkin:AffineRealRoot.expand", 0)), "ratio")
    out["arrangement.new_chambers_per_cross"] = metric(
        ratio(sum(t["cross_wall_new_chambers"] for t in traces),
              stat("arrangement:cross_wall", 0)), "ratio")
    out["oracle.probe_s"] = metric(stat("oracle:oracle_chamber_probe", 2), "s")
    out["cli.json_encode_s"] = metric(stat("json:dumps", 2), "s")
    out["cli.output_bytes"] = metric(sum(r["bytes"] for r in traced), "bytes")
    out["python.gc_s"] = metric(sum(t["gc_s"] for t in traces), "s")
    out["python.gc_collections"] = metric(sum(t["gc_collections"] for t in traces), "count")
    traced_wall = sum(r["wall_s"] for r in traced)
    untraced_wall = sum(r["wall_s"] for r in untraced)
    out["trace.traced_wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "cdvwall" / "__init__.py").is_file():
        print(f"error: no cdvwall sources under {SRC}", file=sys.stderr)
        return 2

    started = time.monotonic()
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    commands = workloads.commands(args.workload, args.seed)
    env = environment()
    print(f"# {args.workload} seed {args.seed}: python {env['python']}, {env['cpus']} cpus, "
          f"src {env['src_lines']} lines, PYTHONHASHSEED=0, CDVWALL_THREADS unset")

    with Runner(workdir, started + RUN_BUDGET_S + 20) as runner:
        setup_s = setup_seconds(runner)
        if args.trace:
            untraced = runner.round(commands)
            (workdir / "trace").mkdir()
            traced = runner.round(commands, workdir / "trace")
            rounds = [untraced, traced]
        else:
            measure_start = time.monotonic()
            rounds = []
            while True:
                round_start = time.monotonic()
                rounds.append(runner.round(commands))
                now = time.monotonic()
                if now - measure_start >= args.seconds or \
                        now + (now - round_start) - started > RUN_BUDGET_S:
                    break
    if args.trace:
        attempted, failed, problems = judge(commands, rounds, runner.outputs, traced)
        paths = [workdir / "trace" / f"{i}.json" for i in range(len(commands))]
        complete = all(p.is_file() for p in paths)
        traces = [json.loads(p.read_text()) for p in paths if p.is_file()]
        metrics = per_layer(traces, traced, untraced) if complete else {}
    else:
        attempted, failed, problems = judge(commands, rounds, runner.outputs)
        metrics = end_to_end(rounds, setup_s)

    for i, command in enumerate(commands):
        walls = " ".join(f"{rnd[i]['wall_s']:.3f}" for rnd in rounds)
        print(f"# {walls} s  {max(rnd[i]['rss_mb'] for rnd in rounds):.1f} MB"
              f"  exits {sorted({rnd[i]['exit'] for rnd in rounds})}  {command.text}")
    for key, found in sorted(problems.items()):
        for problem in found:
            print(f"# FAIL {commands[key[0]].text}: {problem}")
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": env, "setup_s": setup_s,
              "commands": [c.text for c in commands], "rounds": [
                  [{k: v for k, v in rec.items() if k != "key"} for rec in rnd] for rnd in rounds],
              "metrics": metrics}
    (workdir / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    correct = bool(metrics) and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
