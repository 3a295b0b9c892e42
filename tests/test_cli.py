import io
import json
import os
import subprocess
import sys
import textwrap
import time
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdvwall import bps, cli
from cdvwall.bps import ClassError, Verdict
from cdvwall.cli import FORMATS, JobConfig, build_parser, config_from_args, main, write_json
from cdvwall.dynkin import build_diagram
from cdvwall.exports import groupoid_dot
from cdvwall.restriction import (
    DynkinType,
    RestrictedRoot,
    check_gcd_closure,
    gcd_report,
    proper_subsets,
    restricted_root_sweep,
)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VANISHING_D4 = ["vanishing-table", "--family", "D", "--rank", "4"]


def test_config_schema():
    assert JobConfig().to_json() == {
        "family": "A", "rank": 2, "affine": False, "contracted": [], "kmax": 3,
        "maxlen": 6, "rigidified": False, "weighted_homogeneous": False,
        "non_flop": [], "window": {"chi": 4, "beta": 2}, "format": "json",
        "out": None, "n": 2,
    }


NODES = st.lists(st.integers(0, 9), unique=True, max_size=4).map(tuple)
CONFIGS = st.builds(
    JobConfig, family=st.sampled_from("ADE"), rank=st.integers(1, 9),
    affine=st.booleans(), contracted=NODES, kmax=st.integers(0, 5),
    maxlen=st.integers(0, 8), rigidified=st.booleans(),
    weighted_homogeneous=st.booleans(), non_flop=NODES, chi_max=st.integers(0, 9),
    beta_max=st.integers(0, 9), fmt=st.sampled_from(FORMATS),
    out=st.none() | st.text(min_size=1, max_size=8), n=st.integers(2, 9))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(CONFIGS)
def test_config_round_trip(cfg):
    data = cfg.to_json()
    assert JobConfig.from_json(data) == cfg
    assert JobConfig.from_json(json.loads(json.dumps(data))) == cfg


# one case per JobConfig field: (command, flags, the same setting as --config JSON)
FIELD_CASES = {
    "family": ("roots", ["--family", "E"], {"family": "E"}),
    "rank": ("roots", ["--rank", "5"], {"rank": 5}),
    "affine": ("roots", ["--affine"], {"affine": True}),
    "contracted": ("roots", ["--contracted", "1,2"], {"contracted": [1, 2]}),
    "kmax": ("roots", ["--kmax", "1"], {"kmax": 1}),
    "maxlen": ("chambers", ["--maxlen", "2"], {"maxlen": 2}),
    "rigidified": ("orbits", ["--rigidified"], {"rigidified": True}),
    "weighted_homogeneous": ("vanishing-table", ["--weighted-homogeneous"],
                             {"weighted_homogeneous": True}),
    "non_flop": ("gv-map", ["--non-flop", "2"], {"non_flop": [2]}),
    "chi_max": ("vanishing-table", ["--window", "chi=5,beta=2"], {"window": {"chi": 5}}),
    "beta_max": ("orbits", ["--window", "chi=4,beta=3"], {"window": {"beta": 3}}),
    "fmt": ("vanishing-table", ["--format", "csv"], {"format": "csv"}),
    "out": ("roots", ["--out", "roots.json"], {"out": "roots.json"}),
    "n": ("dihedral-check", ["--n", "3"], {"n": 3}),
}


def test_field_cases_cover_every_field():
    assert set(FIELD_CASES) == set(JobConfig._fields)


@pytest.mark.parametrize("field", sorted(FIELD_CASES))
def test_flag_and_config_file_set_a_field_alike(field, tmp_path):
    command, flags, data = FIELD_CASES[field]
    path = tmp_path / "job.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    parser = build_parser()
    by_flag = config_from_args(parser.parse_args([command, *flags]))
    by_file = config_from_args(parser.parse_args([command, "--config", str(path)]))
    assert by_flag == by_file
    default = getattr(JobConfig(), field)
    assert getattr(by_flag, field) != default
    assert by_flag._replace(**{field: default}) == JobConfig()


class Lazy(list):
    """A list the writer is given as a generator."""


def plain(obj):
    if isinstance(obj, dict):
        return {k: plain(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [plain(x) for x in obj]
    return obj


def streamed(obj):
    if isinstance(obj, dict):
        return {k: streamed(v) for k, v in obj.items()}
    if isinstance(obj, Lazy):
        return (streamed(x) for x in obj)
    if isinstance(obj, list):
        return [streamed(x) for x in obj]
    return obj


TEXT = st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(
    ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600"]))
SCALARS = (st.none() | st.booleans() | st.integers()
           | st.integers(-2 ** 200, 2 ** 200) | TEXT)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(Lazy)
                   | st.lists(st.integers(), max_size=5)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(PAYLOADS, st.sampled_from([1, 2, 7, cli.BLOCK_PARTS]))
def test_write_json_matches_json_dumps(obj, block):
    parts = []
    with mock.patch.object(cli, "BLOCK_PARTS", block):
        write_json(streamed(obj), parts.append)
    assert "".join(parts) == json.dumps(plain(obj), sort_keys=True, indent=2)


def test_write_json_writes_rows_while_they_are_produced():
    produced, written_at = [], []

    def rows():
        for i in range(100):
            produced.append(i)
            yield {"row": i}

    def write(text):
        written_at.append(len(produced))

    with mock.patch.object(cli, "BLOCK_PARTS", 10):
        write_json({"results": rows()}, write)
    assert len(written_at) > 10 and written_at[0] < 10


def test_finite_chambers_hold_one_edge_list_and_stream_the_document():
    # every chamber of E6 {2,5}: the search keeps one edge per wall and no
    # crossing memo, and the chamber and adjacency arrays are written as
    # they are produced.  Measured in a fresh interpreter, since objects
    # reused from free lists that earlier tests filled are not traced
    # allocations.  With directed edges, a memo and built lists the traced
    # peak was about 4.7 MB, and with blocks of 16,384 parts 3.05 MB; it
    # reads 1.57-1.80 MB on Python 3.10-3.13, so the bound leaves 0.30 MB
    code = textwrap.dedent("""\
        import os, tracemalloc
        from contextlib import redirect_stdout
        from cdvwall.cli import main
        args = ["chambers", "--family", "E", "--rank", "6", "--contracted", "2,5"]
        with open(os.devnull, "w") as null, redirect_stdout(null):
            assert main([*args, "--maxlen", "1"]) == 0   # module caches
            tracemalloc.start()
            start = tracemalloc.get_traced_memory()[0]
            assert main([*args, "--maxlen", "100"]) == 0
            peak = tracemalloc.get_traced_memory()[1] - start
        print(peak)
        """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert (peak := int(proc.stdout)) < 2_100_000, peak


class _WriteSizes:
    """A stdout that keeps the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))

    def flush(self):
        pass


def test_no_write_holds_a_document_sized_block():
    # blocks of BLOCK_PARTS parts or lines: 20,000 rows of about 300 bytes
    # of JSON, or 40 of CSV, go out in writes of at most about 12 KB
    rows = [{"class": {"chi": i % 7, "beta": [i % 3, 1, -1, 2]}, "verdict": "candidate",
             "paper_ref": "vanishing:nonroot-curve-class", "mult": 1, "kind": "real",
             "base": [1, 0, 0, 1], "global": False} for i in range(20_000)]
    for emit in (lambda: cli._emit_json(JobConfig(), "rows", iter(rows)),
                 lambda: cli._emit_csv(JobConfig(), ["chi", "beta", "verdict", "paper_ref", "mult"],
                                       ([i % 7, "0;1;-1;2", "candidate",
                                         "vanishing:nonroot-curve-class", 1]
                                        for i in range(20_000)))):
        out = _WriteSizes()
        with redirect_stdout(out):
            emit()
        assert sum(out.sizes) > 20_000 * 40
        assert max(out.sizes) < 64 * 1024, max(out.sizes)


def test_orbits_csv_is_written_while_the_orbits_are_grouped(monkeypatch):
    grouped, written_at = [], []
    orbits = bps.OrbitPartition.orbits

    def counted(self):
        for orbit in orbits(self):
            grouped.append(orbit)
            yield orbit

    class Out(_WriteSizes):
        def write(self, text):
            written_at.append(len(grouped))

    monkeypatch.setattr(bps.OrbitPartition, "orbits", counted)
    monkeypatch.setattr(cli, "BLOCK_PARTS", 16)
    with redirect_stdout(Out()):
        assert main(["orbits", "--family", "D", "--rank", "4", "--rigidified",
                     "--non-flop", "1,2", "--window", "chi=2,beta=1", "--format", "csv"]) == 0
    assert len(grouped) > 10 and written_at[0] < len(grouped) // 2, (written_at, len(grouped))


def test_write_json_lays_out_each_shape_by_its_own_keys():
    row = {"kind": None, "class": {"chi": 1, "beta": [0, 1]}, "mult": 2, "base": [1, 0]}
    rows = [dict(row, mult=i) for i in range(1000)]
    rows[500] = {}
    cases = [
        # one key set in two insertion orders
        [{"b": 1, "a": [2], "c": "x"}, {"c": "y", "a": [], "b": {"a": 3, "b": 4}}],
        # the key tuple ("b", "a") at depths 1 to 4
        {"a": {"b": 1, "a": 2}, "b": [{"b": 3, "a": {"b": {"b": 5, "a": 6}, "a": 7}}]},
        # a thousand rows of one shape with an empty dict among them
        {"results": rows},
    ]
    for obj in cases:
        parts = []
        write_json(obj, parts.append)
        assert "".join(parts) == json.dumps(obj, sort_keys=True, indent=2)
    with pytest.raises(TypeError):
        write_json([{"a": 1, "b": 2}, {"a": 1, 2: 2}], lambda text: None)


@pytest.mark.parametrize("bad", [
    {1: "int key"}, [1.5], {"x": object()}, Verdict(False, "rule", 1),
    {"x": [RestrictedRoot((1,), None, 1, (1,))]}])
def test_write_json_takes_only_integer_json(bad):
    with pytest.raises(TypeError):
        write_json(bad, lambda text: None)


def test_check_gcd_e6_reports_zero_violations(capsys):
    code, out, _ = run_cli(["check-gcd", "--family", "E", "--rank", "6", "--format", "text"], capsys)
    assert code == 0
    assert out.strip() == "0 violations"


def test_check_gcd_json_header_carries_the_config(capsys):
    code, out, _ = run_cli(["check-gcd", "--family", "A", "--rank", "3"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "check-gcd"
    assert payload["config"]["family"] == "A"
    assert payload["results"]["violations"] == 0


def test_check_gcd_sweep_matches_a_per_subset_loop(capsys):
    code, out, _ = run_cli(["check-gcd", "--family", "E", "--rank", "6", "--affine"], capsys)
    diagram = build_diagram("E", 6, True)
    reports = [check_gcd_closure(DynkinType(diagram, J), 3) for J in proper_subsets(diagram)]
    total = sum(len(r.violations) for r in reports)
    assert code == 0
    assert json.loads(out)["results"] == {
        "subsets": len(reports), "violations": total, "summary": f"{total} violations",
        "failing": [r.to_json() for r in reports if r.violations],
    }
    # with no violations the document shows only the count, so compare the
    # reports themselves too: element and nontrivial-multiplicity counts
    assert [gcd_report(rr) for rr in restricted_root_sweep(diagram, 3)] == reports


def test_selftest_a7_line_checks_fifty_distinct_subsets(monkeypatch, capsys):
    # A7 has 127 proper subsets and 17 is prime to 127, so (17 i + 5) % 127
    # picks 50 distinct subsets for i < 50
    checked = []
    oracle = cli.oracle_restricted_roots
    monkeypatch.setattr(cli, "oracle_restricted_roots",
                        lambda dtype: checked.append(dtype) or oracle(dtype))
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    assert "[ok] oracle A7 50 subsets: 0 set mismatches, 0 gcd failures\n" in out
    a7 = [dt for dt in checked if dt.diagram == build_diagram("A", 7)]
    assert len(a7) == 50 and len(set(a7)) == 50


def test_restricted_roots_d5_example(capsys):
    code, out, _ = run_cli(
        ["restricted-roots", "--family", "D", "--rank", "5", "--contracted", "1,4,5"],
        capsys)
    assert code == 0
    payload = json.loads(out)
    elements = payload["results"]["elements"]
    entry = next(e for e in elements if e["coeffs"] == [2, 2])
    assert entry["mult"] == 2


def test_vanishing_table_has_forced_zero_rows_for_nonroot_direction(capsys):
    code, out, _ = run_cli(
        ["vanishing-table", "--family", "A", "--rank", "3", "--contracted", "2",
         "--window", "chi=4,beta=2"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    direction = [r for r in rows if r["class"]["beta"] == [2, 1]]
    assert direction
    assert all(r["verdict"] == "forced-zero" for r in direction)
    assert all(r["paper_ref"].startswith("vanishing:") for r in rows)


@pytest.mark.parametrize("args", [
    ["orbits", "--family", "A", "--rank", "3", "--contracted", "2",
     "--rigidified", "--window", "chi=3,beta=1"],
    ["chambers", "--family", "A", "--rank", "2", "--affine", "--maxlen", "3"],
    ["export", "--family", "A", "--rank", "2", "--affine", "--format", "svg"],
    ["gallery", "--family", "A", "--rank", "2", "--affine", "--kmax", "1"],
    ["vanishing-table", "--family", "D", "--rank", "4", "--window", "chi=2,beta=1",
     "--format", "csv"],
])
def test_output_is_deterministic(args, capsys):
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_config_file_supplies_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "job.json"
    cfg_path.write_text(json.dumps(
        {"family": "D", "rank": 5, "contracted": [1, 4, 5], "format": "text"}),
        encoding="utf-8")
    code, out, _ = run_cli(["check-gcd", "--config", str(cfg_path)], capsys)
    assert code == 0
    assert out.strip() == "0 violations"


def test_out_writes_a_file(tmp_path, capsys):
    target = tmp_path / "roots.json"
    code, out, _ = run_cli(
        ["roots", "--family", "A", "--rank", "2", "--out", str(target)], capsys)
    assert code == 0 and out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["results"]["count"] == 3


@pytest.mark.parametrize("error", [KeyboardInterrupt, ClassError])
def test_interrupted_table_leaves_out_as_it_was(error, tmp_path, capsys):
    target = tmp_path / "table.json"
    target.write_text("earlier\n", encoding="utf-8")
    verdict, decided = cli.geometric_verdict, []

    def failing(*args):
        if len(decided) == 500:
            # rows are already on their way to the file
            [part] = tmp_path.glob("table.json.*.part")
            assert part.stat().st_size > 0
            raise error("stop")
        decided.append(1)
        return verdict(*args)

    with mock.patch.object(cli, "BLOCK_PARTS", 64), \
            mock.patch.object(cli, "geometric_verdict", failing):
        try:
            code = main(VANISHING_D4 + ["--out", str(target)])
        except KeyboardInterrupt:
            code = None
    assert code == (None if error is KeyboardInterrupt else 2)
    assert target.read_text(encoding="utf-8") == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["table.json"]


def test_out_replaces_a_file_and_keeps_its_mode(tmp_path, capsys):
    target, link = tmp_path / "table.json", tmp_path / "link.json"
    target.write_text("earlier\n", encoding="utf-8")
    target.chmod(0o640)
    link.symlink_to(target)
    assert run_cli(VANISHING_D4 + ["--out", str(link)], capsys)[0] == 0
    _, out, _ = run_cli(VANISHING_D4, capsys)
    assert link.is_symlink()
    assert target.read_text(encoding="utf-8") == out.replace(
        '"out": null', f'"out": {json.dumps(str(link))}', 1)
    assert target.stat().st_mode & 0o777 == 0o640
    fresh = tmp_path / "fresh.json"
    assert run_cli(VANISHING_D4 + ["--out", str(fresh)], capsys)[0] == 0
    umask = os.umask(0)
    os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o666 & ~umask
    assert sorted(p.name for p in tmp_path.iterdir()) == ["fresh.json", "link.json", "table.json"]


def test_failed_stdout_write_in_process_is_a_usage_error(capsys):
    class Full(io.StringIO):   # no file descriptor behind it
        def write(self, text):
            raise OSError(28, "No space left on device")

    with mock.patch.object(sys, "stdout", Full()):
        code = main(["roots", "--family", "A", "--rank", "2"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: cannot write output: [Errno 28] No space left on device"]


def test_usage_error_names_the_field(capsys):
    code, _, err = run_cli(
        ["vanishing-table", "--family", "A", "--rank", "3", "--contracted", "2",
         "--window", "chi=bad"], capsys)
    assert code == 2
    assert "--window" in err or "window" in err


def test_a_window_too_large_to_index_exits_2_before_building_a_class(monkeypatch, capsys):
    # D4 keeps pi(r_im) = (1, 2, 1, 1) at its finite nodes, and the window
    # has (B + 1 + min(B, chi * r_i)) values of each beta_i at each chi
    def built(*args):
        raise AssertionError("a window class was built")

    monkeypatch.setattr(bps, "window_classes", built)
    monkeypatch.setattr(bps.ClassWindow, "at", built)
    big = 100_000
    want = sum((big + 1 + min(big, chi)) ** 3 * (big + 1 + min(big, 2 * chi))
               for chi in range(big + 1)) - 1
    code, out, err = run_cli(["orbits", "--family", "D", "--rank", "4", "--non-flop", "1",
                              "--window", f"chi={big},beta={big}"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and f" {want} classes" in err, err
    assert want > 2 ** 31 - 1


def test_unsupported_rank_is_a_usage_error(capsys):
    code, _, err = run_cli(["roots", "--family", "D", "--rank", "3"], capsys)
    assert code == 2
    assert "D_3" in err


def test_gallery_command(capsys):
    code, out, _ = run_cli(
        ["gallery", "--family", "A", "--rank", "2", "--affine", "--kmax", "1"],
        capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    produced = [r for r in rows if "length" in r]
    assert produced
    for row in produced:
        assert row["walls"][0]["normal"] != row["walls"][-1]["normal"]


def test_mutate_command(capsys):
    code, out, _ = run_cli(
        ["mutate", "--family", "A", "--rank", "2", "--affine", "--contracted", "2"],
        capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    by_node = {r["node"]: r for r in rows}
    assert by_node[1]["iota"] == 2 and by_node[1]["target"] == [1]


ONE_KEPT_NODE = pytest.mark.parametrize("args", [
    ["--family", "A", "--rank", "1", "--maxlen", "1"],
    ["--family", "A", "--rank", "2", "--contracted", "1", "--maxlen", "1"],
    ["--family", "D", "--rank", "4", "--contracted", "1,2,3", "--maxlen", "2"],
], ids=["A1", "A2 {1}", "D4 {1,2,3}"])


@ONE_KEPT_NODE
def test_chambers_cross_a_one_kept_node_flop(args, capsys):
    # a finite type with one kept node has w0 of the whole diagram, so its
    # one wall is crossed into the flopped chamber and back
    code, out, _ = run_cli(["chambers", *args], capsys)
    assert code == 0
    assert json.loads(out)["results"]["count"] == 2


@ONE_KEPT_NODE
def test_mutate_takes_a_finite_type_with_one_kept_node(args, capsys):
    # the one mutation is the flop, which negates the one kept coordinate
    code, out, _ = run_cli(["mutate", *args], capsys)
    assert code == 0
    [row] = json.loads(out)["results"]
    assert row["induced_matrix"] == [[-1]]


def test_mutate_refuses_an_affine_type_with_one_kept_node(capsys):
    # with one kept coordinate every wall is the imaginary wall, so there is
    # no chamber to mutate into
    code, out, err = run_cli(
        ["mutate", "--family", "A", "--rank", "1", "--affine", "--contracted", "0"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("family,rank,contracted", [("A", 1, "0"), ("D", 4, "0,1,2,3")])
def test_mutate_dot_takes_an_affine_type_with_one_kept_node(family, rank, contracted, capsys):
    # the DOT export is the mutation component, which needs no chamber;
    # only the JSON rows cross walls
    code, out, err = run_cli(["mutate", "--family", family, "--rank", str(rank), "--affine",
                              "--contracted", contracted, "--format", "dot"], capsys)
    dtype = DynkinType(build_diagram(family, rank, True),
                       frozenset(map(int, contracted.split(","))))
    assert (code, err) == (0, "")
    assert out == groupoid_dot(dtype, JobConfig().maxlen)


@pytest.mark.parametrize("args", [
    ["mutate", "--family", "A", "--rank", "3", "--contracted", "1", "--format", "dot"],
], ids=["mutate"])
def test_groupoid_dot_stops_once_the_component_is_complete(args, capsys):
    # word length 8 already covers both components; a bound of 10^8 must not
    # spin through empty layers (that took over 10 s)
    code, small, _ = run_cli([*args, "--maxlen", "8"], capsys)
    assert code == 0
    started = time.perf_counter()
    code, huge, _ = run_cli([*args, "--maxlen", "100000000"], capsys)
    assert time.perf_counter() - started < 2
    assert code == 0 and huge == small


def test_chambers_dot_output(capsys):
    code, out, _ = run_cli(
        ["chambers", "--family", "A", "--rank", "1", "--affine", "--maxlen", "2",
         "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("graph chambers {") and out.rstrip().endswith("}")


def test_export_svg_rank_two_slice(capsys):
    code, out, _ = run_cli(
        ["export", "--family", "A", "--rank", "2", "--affine", "--format", "svg"],
        capsys)
    assert code == 0
    assert out.startswith("<svg") and "</svg>" in out


def test_export_svg_rejects_wrong_rank(capsys):
    code, _, err = run_cli(
        ["export", "--family", "D", "--rank", "4", "--affine", "--format", "svg"],
        capsys)
    assert code == 2


def test_dihedral_check(capsys):
    code, out, _ = run_cli(["dihedral-check", "--n", "2", "--format", "text"], capsys)
    assert code == 0
    assert out.strip() == "PASS dihedral n=2"


def test_gv_map_marks_vacuous_rows(capsys):
    code, out, _ = run_cli(
        ["gv-map", "--family", "D", "--rank", "4", "--non-flop", "1",
         "--window", "chi=1,beta=1"], capsys)
    assert code == 0
    rows = json.loads(out)["results"]
    assert any("image_beta" in r for r in rows)
    assert all("skipped" in r or "image_beta" in r for r in rows)


@pytest.mark.parametrize("rank", [4, 5])
def test_every_non_flop_node_exits_cleanly(rank, capsys):
    # a node whose mutated subset is another contraction is refused:
    # orbits exits 2 with one line, gv-map skips each row at the node
    diagram = build_diagram("D", rank)
    refused = 0
    for subset in proper_subsets(diagram):
        contracted = ["--contracted", ",".join(map(str, sorted(subset)))] if subset else []
        for node in (n for n in diagram.nodes if n not in subset):
            flags = ["--family", "D", "--rank", str(rank), *contracted,
                     "--non-flop", str(node), "--window", "chi=1,beta=1"]
            code, out, err = run_cli(["orbits", *flags], capsys)
            assert code in (0, 2), (flags, code)
            reason = None
            if code == 2:
                refused += 1
                assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
                reason = err[len("error: "):-1]
            code, out, err = run_cli(["gv-map", *flags], capsys)
            assert (code, err) == (0, ""), (flags, err)
            if reason:
                rows = [r for r in json.loads(out)["results"] if r["node"] == node]
                assert all(r.get("skipped") == reason for r in rows), (flags, rows)
    assert refused


def test_orbits_exits_2_at_a_refused_node(capsys):
    # D5 {1,3} at node 4: iota(4) = 3, and the mutated subset {1,4} is
    # another contraction
    code, out, err = run_cli(["orbits", "--family", "D", "--rank", "5", "--contracted", "1,3",
                              "--non-flop", "4"], capsys)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "mutation at node 4 is not a symmetry" in err, err


@pytest.mark.parametrize("args", [
    ["chambers", "--family", "A", "--rank", "2", "--affine", "--maxlen", "-1"],
    ["check-gcd", "--family", "E", "--rank", "6", "--affine", "--kmax", "-1"],
    ["vanishing-table", "--family", "D", "--rank", "4", "--window", "chi=-1,beta=2"],
    ["gallery", "--family", "A", "--rank", "2"],
    ["dihedral-check", "--n", "1"],
    ["gv-map", "--family", "D", "--rank", "4", "--non-flop", "7"],
    ["roots", "--config", "{tmp}/missing.json"],
    ["roots", "--family", "A", "--rank", "2", "--out", "{tmp}/no-such-dir/roots.json"],
    ["roots", "--config", "{tmp}/not-json.json"],
    ["roots", "--config", "{tmp}/list.json"],
    ["roots", "--config", "{tmp}/rank-string.json"],
    ["restricted-roots", "--family", "A", "--rank", "2", "--contracted", "1,1"],
    ["gv-map", "--family", "D", "--rank", "4", "--non-flop", "1,1"],
    ["check-gcd", "--config", "{tmp}/format-xml.json"],
    ["restricted-roots", "--config", "{tmp}/unknown-key.json"],
    ["vanishing-table", "--config", "{tmp}/unknown-window-key.json"],
    ["chambers", "--family", "A", "--rank", "2", "--affine", "--format", "csv"],
    ["vanishing-table", "--family", "A", "--rank", "2", "--format", "dot"],
    ["check-gcd", "--family", "A", "--rank", "2", "--format", "csv"],
    ["export", "--family", "D", "--rank", "5", "--contracted", "1", "--format", "dot"],
    ["vanishing-table", "--family", "D", "--rank", "4", "--non-flop", "7"],
    ["roots", "--rank", "x"],
    ["roots", "--family", "B"],
    ["roots", "--format", "xml"],
    ["roots", "--no-such-flag"],
    ["no-such-command"],
    [],
], ids=["maxlen", "kmax", "window", "gallery-finite", "dihedral-n", "gv-map-non-flop",
        "missing-config", "unwritable-out", "config-not-json", "config-list",
        "config-rank-string", "duplicate-contracted", "duplicate-non-flop",
        "config-format-xml", "config-unknown-key", "config-unknown-window-key",
        "chambers-csv", "vanishing-table-dot", "check-gcd-csv", "export-dot",
        "vanishing-table-non-flop", "argparse-rank", "argparse-family",
        "argparse-format", "argparse-unknown-flag", "argparse-unknown-command",
        "argparse-no-command"])
def test_invalid_input_is_a_usage_error(args, tmp_path):
    for name, text in (("not-json.json", '{"family": "A",'), ("list.json", "[1, 2]"),
                       ("rank-string.json", '{"family": "A", "rank": "3"}'),
                       ("format-xml.json", '{"family": "E", "rank": 6, "format": "xml"}'),
                       ("unknown-key.json", '{"family": "A", "rank": 2, "contracted_nodes": [1]}'),
                       ("unknown-window-key.json",
                        '{"family": "A", "rank": 2, "window": {"chi": 1, "gamma": 1}}')):
        (tmp_path / name).write_text(text, encoding="utf-8")
    args = [a.format(tmp=tmp_path) for a in args]
    proc = subprocess.run([sys.executable, "-m", "cdvwall", *args],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# stdout block-buffered, as it is for a user, so that text can still be
# pending when a write fails
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("args, where", [
    (["check-gcd", "--family", "E", "--rank", "6", "--format", "text"], "output"),
    (VANISHING_D4, "output"),
    (VANISHING_D4 + ["--format", "csv"], "output"),
    (["roots", "--family", "A", "--rank", "2", "--out", "/dev/full"], "--out"),
    (VANISHING_D4 + ["--out", "/dev/full"], "--out"),
], ids=["text-stdout", "json-stdout", "csv-stdout", "small-out", "large-out"])
def test_full_device_is_a_usage_error(args, where):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "cdvwall", *args], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=60, env=BUFFERED)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        f"error: cannot write {where}: [Errno 28] No space left on device"]


def test_closed_pipe_is_a_usage_error():
    proc = subprocess.Popen([sys.executable, "-m", "cdvwall", *VANISHING_D4],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=BUFFERED)
    assert proc.stdout.read(100).startswith("{")
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 2
        assert proc.stderr.read().splitlines() == ["error: cannot write output: [Errno 32] Broken pipe"]
    finally:
        proc.kill()
        proc.stderr.close()


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    code = "import sys, cdvwall.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cdvwall", "roots", "--family", "A", "--rank", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["results"]["count"] == 3
