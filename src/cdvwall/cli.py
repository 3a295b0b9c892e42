"""Command-line surface: every subcommand reads a flag-based config (with
an optional JSON config file supplying defaults), produces byte-identical
output for identical configs, and exits nonzero on any violation or
oracle mismatch."""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, NamedTuple, Optional

from . import __version__
from .arrangement import (
    ChamberGraph,
    GeometryError,
    gallery_through_wall,
    path_to_gallery,
)
from .bps import (
    ClassError,
    SymmetryConfig,
    finite_verdicts,
    gv_transport,
    orbit_partition,
    window_classes,
)
from .dihedral import run_case
from .dynkin import (
    FAMILIES,
    DiagramError,
    build_diagram,
    enumerate_roots,
    expanded_window,
    imaginary_root,
    root_count_formula,
)
from .exports import chamber_graph_dot, groupoid_dot, level_slice_svg
from .groupoid import compose, induced_root_map, mutation_data
from .linalg import is_colinear
from .oracle import oracle_chamber_probe, oracle_gcd_check, oracle_restricted_roots
from .restriction import (
    DynkinType,
    check_gcd_closure,
    gcd_report,
    imaginary_restriction,
    proper_subsets,
    restrict,
    restricted_root_sweep,
    restricted_roots,
)

FORMATS = ("json", "csv", "dot", "svg", "text")
# where a JobConfig field sits in the JSON schema when not under its own name
JSON_PATHS = {"fmt": ("format",), "chi_max": ("window", "chi"), "beta_max": ("window", "beta")}


class UsageError(ValueError):
    pass


class JobConfig(NamedTuple):
    family: str = "A"
    rank: int = 2
    affine: bool = False
    contracted: tuple[int, ...] = ()
    kmax: int = 3
    maxlen: int = 6
    rigidified: bool = False
    weighted_homogeneous: bool = False
    non_flop: tuple[int, ...] = ()
    chi_max: int = 4
    beta_max: int = 2
    fmt: str = "json"
    out: Optional[str] = None
    n: int = 2

    def validated(self) -> "JobConfig":
        """This config, once every field has passed its check; the first
        field that fails raises UsageError.  Every config a command runs
        with, from the defaults, --config and the flags, comes through here."""
        for name, label in (("family", "family"), ("fmt", "format")):
            if not isinstance(getattr(self, name), str):
                raise UsageError(f"{label} must be a string, got {getattr(self, name)!r}")
        if self.fmt not in FORMATS:
            raise UsageError(f"format must be one of {', '.join(FORMATS)}, got {self.fmt!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise UsageError(f"out must be a path string, got {self.out!r}")
        for name in ("affine", "rigidified", "weighted_homogeneous"):
            if not isinstance(getattr(self, name), bool):
                raise UsageError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if not _is_int(self.rank):
            raise UsageError(f"rank must be an integer, got {self.rank!r}")
        for name, label in (("contracted", "contracted"), ("non_flop", "non-flop")):
            nodes = getattr(self, name)
            if not (isinstance(nodes, tuple) and all(_is_int(n) for n in nodes)):
                raise UsageError(f"{label} must be a list of integer nodes, got {nodes!r}")
            if len(set(nodes)) != len(nodes):
                raise UsageError(f"{label} lists a node more than once: {list(nodes)}")
        for name, label, low in (("kmax", "kmax", 0), ("maxlen", "maxlen", 0),
                                 ("chi_max", "window chi", 0), ("beta_max", "window beta", 0),
                                 ("n", "n", 2)):
            value = getattr(self, name)
            if not _is_int(value) or value < low:
                raise UsageError(f"{label} must be an integer >= {low}, got {value!r}")
        return self

    def to_json(self) -> dict:
        data = {}
        for name, value in zip(self._fields, self):
            *outer, key = JSON_PATHS.get(name, (name,))
            node = data.setdefault(outer[0], {}) if outer else data
            node[key] = list(value) if isinstance(value, tuple) else value
        return data

    @staticmethod
    def from_json(data: dict) -> "JobConfig":
        if not isinstance(data, dict):
            raise UsageError(f"a config must be a JSON object, got {type(data).__name__}")
        window = data.get("window", {})
        if not isinstance(window, dict):
            raise UsageError(f"window must be an object with chi and beta, got {window!r}")
        schema = JobConfig().to_json()
        for keys, known, where in ((data, schema, "config"),
                                   (window, schema["window"], "config window")):
            unknown = sorted(set(keys) - set(known))
            if unknown:
                raise UsageError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")
        values = {}
        for name, default in JobConfig._field_defaults.items():
            *outer, key = JSON_PATHS.get(name, (name,))
            source = window if outer else data
            if key in source:
                value = source[key]
                # node lists arrive as JSON arrays
                is_nodes = isinstance(default, tuple) and isinstance(value, list)
                values[name] = tuple(value) if is_nodes else value
        return JobConfig(**values).validated()


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_int_list(text: str, flag: str) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--{flag} expects a comma-separated integer list, got {text!r}")


def _parse_window(text: str) -> tuple[int, int]:
    chi, beta = None, None
    for part in text.split(","):
        key, _, value = part.partition("=")
        try:
            if key == "chi":
                chi = int(value)
            elif key == "beta":
                beta = int(value)
            else:
                raise ValueError
        except ValueError:
            raise UsageError(f"--window expects chi=C,beta=B, got {text!r}") from None
    if chi is None or beta is None:
        raise UsageError(f"--window expects chi=C,beta=B, got {text!r}")
    return chi, beta


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are UsageErrors: exit 2 with one
    line, like every other bad input, instead of a usage block."""

    def error(self, message: str):
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cdvwall",
        description="Exact ADE wall-crossing combinatorics and vanishing verdicts",
    )
    parser.add_argument("--version", action="version", version=f"cdvwall {__version__}")
    parser.add_argument("command", choices=tuple(COMMANDS))
    parser.add_argument("--config", help="JSON file with config defaults")
    parser.add_argument("--family", choices=FAMILIES)
    parser.add_argument("--rank", type=int)
    parser.add_argument("--affine", action="store_true", default=None)
    parser.add_argument("--contracted", help="comma-separated contracted nodes")
    parser.add_argument("--kmax", type=int, help="level window bound")
    parser.add_argument("--maxlen", type=int, help="word-length bound for enumeration")
    parser.add_argument("--rigidified", action="store_true", default=None)
    parser.add_argument("--weighted-homogeneous", action="store_true", default=None,
                        dest="weighted_homogeneous")
    parser.add_argument("--non-flop", dest="non_flop",
                        help="comma-separated nodes whose contraction does not flop")
    parser.add_argument("--window", help="class window as chi=C,beta=B")
    parser.add_argument("--format", dest="fmt", choices=FORMATS)
    parser.add_argument("--out", help="output path (default stdout)")
    parser.add_argument("--n", type=int, help="dihedral family parameter")
    return parser


def config_from_args(args: argparse.Namespace) -> JobConfig:
    cfg = JobConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read --config: {err}") from None
        except ValueError as err:
            raise UsageError(f"--config is not valid JSON: {err}") from None
        cfg = JobConfig.from_json(data)
    updates = {}
    for name, default in JobConfig._field_defaults.items():
        value = getattr(args, name, None)
        if value is not None:
            if isinstance(default, tuple):   # node lists arrive as i,j,... text
                value = _parse_int_list(value, name.replace("_", "-"))
            updates[name] = value
    if args.window is not None:
        updates["chi_max"], updates["beta_max"] = _parse_window(args.window)
    cfg = cfg._replace(**updates).validated()
    command = COMMANDS[args.command]
    if cfg.fmt not in command.formats:
        writes = " or ".join(command.formats)
        raise UsageError(f"{args.command} writes --format {writes}, got {cfg.fmt!r}")
    if command.affine and not cfg.affine:
        raise UsageError(f"{args.command} takes an affine type; add --affine")
    if command.affine is False:
        if cfg.affine:
            raise UsageError(f"{args.command} takes a finite type; drop --affine")
        if not set(cfg.non_flop) <= set(_dtype(cfg).kept):
            raise UsageError("--non-flop nodes must be kept finite nodes")
    return cfg


def _dtype(cfg: JobConfig) -> DynkinType:
    diagram = build_diagram(cfg.family, cfg.rank, cfg.affine)
    return DynkinType(diagram, frozenset(cfg.contracted))


def _symmetry(cfg: JobConfig) -> SymmetryConfig:
    return SymmetryConfig(cfg.rigidified, cfg.weighted_homogeneous,
                          frozenset(cfg.non_flop), cfg.chi_max, cfg.beta_max)


# parts of output text (or CSV lines) joined into one write: about 12 KB
# of JSON, so no write holds a document-sized block; the writer's CPU
# time does not change between 1 << 8 and 1 << 14
BLOCK_PARTS = 1 << 8


@contextmanager
def _output(cfg: JobConfig):
    """Yield a write function for --out or stdout.  A failed write, the
    final flush or close included, raises UsageError: exit 2, one line.
    stdout is written as the output is produced.  A regular --out file is
    written beside itself under a temporary name and renamed over --out
    once complete, so a failed or interrupted run leaves --out as it was;
    a device or a pipe is written in place."""
    where = "--out" if cfg.out else "output"

    def guarded(action: Callable, *args, **kwargs):
        try:
            return action(*args, **kwargs)
        except OSError as err:
            raise UsageError(f"cannot write {where}: {err}") from None

    if not cfg.out:
        yield lambda text: guarded(sys.stdout.write, text)
        guarded(sys.stdout.flush)
        return
    target, part = cfg.out, None
    if os.path.isfile(target) or not os.path.exists(target):
        target = os.path.realpath(target)   # a symlink keeps pointing at the file
        part = f"{target}.{os.getpid()}.part"
    stream = guarded(open, part or target, "x" if part else "w", encoding="utf-8", newline="\n")
    try:
        yield lambda text: guarded(stream.write, text)
        guarded(stream.close)
        if part:
            if os.path.exists(target):
                guarded(shutil.copymode, target, part)
            guarded(os.replace, part, target)
            part = None
    finally:
        with suppress(OSError):   # the error already raised is the one reported
            stream.close()
        if part:
            os.unlink(part)


def _emit(cfg: JobConfig, text: str) -> None:
    with _output(cfg) as write:
        write(text)


def write_json(obj, write: Callable[[str], None]) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2), byte for byte, in
    blocks of BLOCK_PARTS joined parts.  Any iterator is written as a JSON
    array, so a long list can be produced while it is written.  Values are
    str, int, bool, None, str-keyed dicts, and arrays: exact lists and
    tuples, so a record that is a tuple subclass is not one.  The program
    writes no floats, and anything else raises TypeError.  The sorted keys
    and encoded key text of a dict are laid out once per key tuple and
    depth, so rows of one shape share them."""
    parts: list[str] = []
    append = parts.append
    encode = encode_basestring_ascii
    breaks = ["\n"]   # breaks[d]: a newline and the indent of depth d
    layouts: dict = {}   # (keys in insertion order, depth) -> layout()

    def newline(depth: int) -> str:
        while len(breaks) <= depth:
            breaks.append(breaks[-1] + "  ")
        return breaks[depth]

    def layout(shape: tuple) -> tuple:
        """The sorted keys of one dict shape, each with the text that goes
        before its value, and the dict's closing text."""
        keys, depth = shape
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        inner = newline(depth + 1)
        heads, sep = [], "{" + inner
        for key in sorted(keys):
            heads.append((key, sep + encode(key) + ": "))
            sep = "," + inner
        layouts[shape] = found = (tuple(heads), newline(depth) + "}")
        return found

    def value(o, depth: int) -> None:
        if isinstance(o, str):
            append(encode(o))
        elif o is None:
            append("null")
        elif o is True:
            append("true")
        elif o is False:
            append("false")
        elif isinstance(o, int):
            append(int.__repr__(o))
        elif isinstance(o, dict):
            if not o:
                append("{}")
                return
            shape = (tuple(o), depth)
            heads, close = layouts.get(shape) or layout(shape)
            for key, head in heads:
                append(head)
                value(o[key], depth + 1)
            append(close)
        elif type(o) in (list, tuple) and {*map(type, o)} == {int}:
            inner = newline(depth + 1)
            append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + newline(depth) + "]")
        elif type(o) in (list, tuple) or isinstance(o, Iterator):
            inner = newline(depth + 1)
            sep, comma = "[" + inner, "," + inner
            for item in o:
                append(sep)
                sep = comma
                value(item, depth + 1)
                if len(parts) >= BLOCK_PARTS:
                    write("".join(parts))
                    parts.clear()
            append(newline(depth) + "]" if sep is comma else "[]")
        else:
            raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")

    value(obj, 0)
    write("".join(parts))


def _emit_json(cfg: JobConfig, command: str, results) -> None:
    """The command's JSON document; results may hold iterators for lists."""
    payload = {"command": command, "config": cfg.to_json(), "results": results}
    with _output(cfg) as write:
        write_json(payload, write)
        write("\n")


def _emit_csv(cfg: JobConfig, header: list[str], rows: Iterable[list]) -> None:
    with _output(cfg) as write:
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join(map(str, row)))
            if len(lines) >= BLOCK_PARTS:
                write("\n".join(lines) + "\n")
                lines.clear()
        if lines:
            write("\n".join(lines) + "\n")


def cmd_roots(cfg: JobConfig) -> int:
    diagram = build_diagram(cfg.family, cfg.rank, cfg.affine)
    if not cfg.affine:
        rts = enumerate_roots(diagram)
        results = {
            "diagram": diagram.to_json(),
            "positive_roots": [list(r) for r in rts.positive_roots],
            "highest_root": list(rts.highest_root),
            "count": len(rts.positive_roots),
        }
    else:
        rim = imaginary_root(diagram)
        window = expanded_window(diagram, cfg.kmax)
        results = {
            "diagram": diagram.to_json(),
            "imaginary_root": list(rim),
            # the level is the coordinate at node 0, where r_im is 1 and a
            # lifted finite root is 0
            "real_roots": [
                {"finite": [c - full[0] * h for c, h in zip(full[1:], rim[1:])],
                 "level": full[0], "coeffs": list(full)}
                for full in window
            ],
            "count": len(window),
        }
    _emit_json(cfg, "roots", results)
    return 0


def cmd_restricted_roots(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    rr = restricted_roots(dtype, cfg.kmax if cfg.affine else None)
    _emit_json(cfg, "restricted-roots", rr.to_json())
    return 0


def cmd_check_gcd(cfg: JobConfig) -> int:
    diagram = build_diagram(cfg.family, cfg.rank, cfg.affine)
    k_max = cfg.kmax if cfg.affine else None
    if cfg.contracted:
        reports = [check_gcd_closure(DynkinType(diagram, frozenset(cfg.contracted)), k_max)]
    else:
        reports = [gcd_report(rr) for rr in restricted_root_sweep(diagram, k_max)]
    total = sum(len(r.violations) for r in reports)
    if cfg.fmt == "json":
        results = {
            "subsets": len(reports),
            "violations": total,
            "summary": f"{total} violations",
            "failing": [r.to_json() for r in reports if r.violations],
        }
        _emit_json(cfg, "check-gcd", results)
    else:
        _emit(cfg, f"{total} violations\n")
    return 0 if total == 0 else 1


def cmd_chambers(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    chambers, edges = ChamberGraph(dtype).bfs(cfg.maxlen)
    if cfg.fmt == "dot":
        _emit(cfg, chamber_graph_dot(chambers, edges))
        return 0
    edges.sort(key=lambda e: (e[0], e[1]))
    results = {
        "count": len(chambers),
        "chambers": (c.to_json() for c in chambers),
        "adjacency": ({"a": i, "b": j, "wall": w.to_json()} for i, j, w in edges),
    }
    _emit_json(cfg, "chambers", results)
    return 0


def cmd_gallery(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    positives = sorted(
        c for c in restricted_roots(dtype, min(cfg.kmax, 1)).entries if min(c) >= 0
    )
    rim = imaginary_restriction(dtype)
    graph = ChamberGraph(dtype)

    def rows():
        for node in dtype.kept:
            alpha = restrict(dtype, dtype.diagram.simple_root(node))
            for rbar in positives:
                if is_colinear(rbar, alpha) or is_colinear(rbar, rim):
                    continue
                try:
                    gallery = gallery_through_wall(graph, node, rbar)
                except GeometryError as err:
                    yield {"node": node, "rbar": list(rbar), "skipped": str(err)}
                    continue
                yield {
                    "node": node,
                    "rbar": list(rbar),
                    "length": gallery.length,
                    "walls": [w.to_json() for w in gallery.walls],
                    "labels": [c.label_str() for c in gallery.chambers],
                }

    _emit_json(cfg, "gallery", rows())
    return 0


def cmd_mutate(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    if cfg.fmt == "dot":
        _emit(cfg, groupoid_dot(dtype, cfg.maxlen))
        return 0
    if dtype.affine and len(dtype.kept) < 2:
        raise UsageError("mutation of an affine type needs at least two kept nodes")
    rows = []
    for node in dtype.kept:
        omega, iota_node, target = mutation_data(
            dtype.diagram, dtype.contracted, node)
        arrow = compose(dtype, (node,))
        if dtype.affine:
            path_to_gallery(arrow)  # raises unless the label's chamber shares the facet
        rmap = induced_root_map(arrow)
        rows.append({
            "node": node,
            "iota": iota_node,
            "target": sorted(target),
            "omega_word": list(omega.word),
            "induced_matrix": [list(r) for r in rmap.matrix],
        })
    _emit_json(cfg, "mutate", rows)
    return 0


def cmd_vanishing_table(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    verdict = finite_verdicts(dtype, cfg.weighted_homogeneous)
    rows = ((cc, verdict(cc)) for cc in window_classes(dtype, _symmetry(cfg)))
    if cfg.fmt == "csv":
        header = ["chi", "beta", "verdict", "paper_ref", "mult"]
        csv_rows = (
            [cc.chi, ";".join(map(str, cc.beta)),
             "forced-zero" if v.forced_zero else "candidate", v.rule, v.mult]
            for cc, v in rows
        )
        _emit_csv(cfg, header, csv_rows)
        return 0
    results = ({"class": cc.to_json(), **v.to_json()} for cc, v in rows)
    _emit_json(cfg, "vanishing-table", results)
    return 0


def cmd_orbits(cfg: JobConfig) -> int:
    partition = orbit_partition(_dtype(cfg), _symmetry(cfg))
    if cfg.fmt == "csv":
        def rows():
            for orbit in partition.orbits():
                rep = orbit[0]
                rep_beta = ";".join(map(str, rep.beta))
                for chi, beta in orbit:
                    yield [chi, ";".join(map(str, beta)), rep.chi, rep_beta]

        _emit_csv(cfg, ["chi", "beta", "rep_chi", "rep_beta"], rows())
        return 0
    _emit_json(cfg, "orbits", partition.to_json())
    return 0


def cmd_gv_map(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    rows = []
    ranges = [range(0, cfg.beta_max + 1)] * len(dtype.kept)
    for node in dtype.kept:
        flop = node not in cfg.non_flop
        unit = tuple(1 if m == node else 0 for m in dtype.kept)
        for beta in itertools.product(*ranges):
            if all(b == 0 for b in beta):
                continue
            if is_colinear(beta, unit):
                continue
            try:
                rows.append(gv_transport(dtype, beta, node, flop).to_json())
            except ClassError as err:
                rows.append({"node": node, "beta": list(beta), "skipped": str(err)})
    _emit_json(cfg, "gv-map", rows)
    return 0


def cmd_dihedral_check(cfg: JobConfig) -> int:
    report = run_case(cfg.n)
    if cfg.fmt == "text":
        _emit(cfg, ("PASS" if report.ok else "FAIL") + f" dihedral n={cfg.n}\n")
    else:
        _emit_json(cfg, "dihedral-check", report.to_json())
    return 0 if report.ok else 1


def cmd_selftest(cfg: JobConfig) -> int:
    lines = []
    failures = 0

    for family, ranks in (("A", range(1, 9)), ("D", range(4, 9)), ("E", (6, 7, 8))):
        for rank in ranks:
            diagram = build_diagram(family, rank)
            got = len(enumerate_roots(diagram).positive_roots)
            want = root_count_formula(family, rank)
            ok = got == want
            failures += not ok
            lines.append(f"[{'ok' if ok else 'FAIL'}] root count {family}{rank}: {got}")

    a7 = build_diagram("A", 7)
    a7_subsets = list(proper_subsets(a7))
    picked = (a7_subsets[(17 * i + 5) % len(a7_subsets)] for i in range(50))
    for label, sets in (
        ("E6 all subsets", restricted_root_sweep(build_diagram("E", 6))),
        ("D5 all subsets", restricted_root_sweep(build_diagram("D", 5))),
        ("A7 50 subsets", (restricted_roots(DynkinType(a7, J)) for J in picked)),
    ):
        bad_rr = bad_gcd = 0
        for rr in sets:
            oracle = oracle_restricted_roots(rr.dynkin_type)
            bad_rr += oracle != rr.values()
            bad_gcd += not oracle_gcd_check(oracle)
        failures += bad_rr + bad_gcd
        lines.append(f"[{'ok' if not (bad_rr or bad_gcd) else 'FAIL'}] oracle {label}: "
                     f"{bad_rr} set mismatches, {bad_gcd} gcd failures")

    a2a = build_diagram("A", 2, affine=True)
    probe = oracle_chamber_probe(DynkinType(a2a, frozenset()), 10_000, box=1)
    failures += len(probe.mismatches)
    lines.append(f"[{'ok' if probe.ok else 'FAIL'}] chamber probe A2 affine: "
                 f"{probe.located} located, {probe.skipped_degenerate} skipped, "
                 f"{len(probe.mismatches)} mismatches")

    status = "PASS" if failures == 0 else "FAIL"
    lines.append(f"selftest {status}: {failures} failures")
    _emit(cfg, "\n".join(lines) + "\n")
    return 0 if failures == 0 else 1


def cmd_export(cfg: JobConfig) -> int:
    dtype = _dtype(cfg)
    if 0 not in dtype.kept or len(dtype.kept) != 3:
        raise UsageError("svg export needs an affine type with node 0 kept "
                         "and exactly two kept finite nodes")
    _emit(cfg, level_slice_svg(dtype, cfg.kmax))
    return 0


class Command(NamedTuple):
    """A subcommand: its handler, the --format values it writes (selftest
    prints text for both), and whether it needs an affine type (True),
    refuses one (False) or takes either (None)."""
    handler: Callable[[JobConfig], int]
    formats: tuple[str, ...]
    affine: Optional[bool] = None


COMMANDS = {
    "roots": Command(cmd_roots, ("json",)),
    "restricted-roots": Command(cmd_restricted_roots, ("json",)),
    "check-gcd": Command(cmd_check_gcd, ("json", "text")),
    "chambers": Command(cmd_chambers, ("json", "dot")),
    "gallery": Command(cmd_gallery, ("json",), affine=True),
    "mutate": Command(cmd_mutate, ("json", "dot")),
    "vanishing-table": Command(cmd_vanishing_table, ("json", "csv"), affine=False),
    "orbits": Command(cmd_orbits, ("json", "csv"), affine=False),
    "gv-map": Command(cmd_gv_map, ("json",), affine=False),
    "dihedral-check": Command(cmd_dihedral_check, ("json", "text")),
    "selftest": Command(cmd_selftest, ("json", "text")),
    "export": Command(cmd_export, ("svg",)),
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = config_from_args(args)
        return COMMANDS[args.command].handler(cfg)
    except (UsageError, DiagramError, ClassError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except GeometryError as err:
        print(f"geometry violation: {err}", file=sys.stderr)
        return 1


def script() -> int:
    """main() in a process of its own, as ``python -m cdvwall`` and the
    ``cdvwall`` script run it.  After a failed write to stdout the
    interpreter would flush the text still buffered once more at exit,
    print a second error and exit 120; fd 1 belongs to this process, so
    it is pointed at the null device instead."""
    status = main()
    try:
        sys.stdout.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    raise SystemExit(script())
