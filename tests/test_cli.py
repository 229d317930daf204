import argparse
import contextlib
import errno
import importlib
import io
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import greenfan
from greenfan import GreenfanError, cli, enumerate_graph, graph_to_json, validate_fixed_data
from greenfan import exchange, scattering

from support import d4_cycle_graph_doc, d4_long_cycle_doc

CMD = [sys.executable, "-m", "greenfan"]

A2 = {"B": [[0, 1], [-1, 0]], "delta": [1, 1]}
KRONECKER = {"B": [[0, 2], [-2, 0]], "delta": [1, 1]}
A3_DATA = ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1])


UNKNOWN_KEY = '{"g":[[9,9],[1,0]],"B":[[0,1],[-1,0]]}'


def a2_graph_doc(root=None, **first_edge):
    """Exported A2 graph with the root or fields of the first edge replaced."""
    doc = graph_to_json(enumerate_graph(validate_fixed_data(A2["B"], A2["delta"])))
    doc["edges"][0].update(first_edge)
    if root is not None:
        doc["root"] = root
    return doc


def a2_swapped_seeds_doc():
    """Exported A2 graph with the seed records of two vertices swapped."""
    doc = a2_graph_doc()
    seeds = doc["vertices"]
    first, second = list(seeds)[1:3]
    seeds[first], seeds[second] = seeds[second], seeds[first]
    return doc


def a3_repeated_g_column_doc():
    """Exported A3 graph whose first vertex after the root holds a seed with
    two equal g-columns, listed under that seed's own rendered key."""
    doc = graph_to_json(enumerate_graph(validate_fixed_data(*A3_DATA)))
    old = list(doc["vertices"])[1]
    record = dict(doc["vertices"][old], G=[[1, 1, 0], [0, 0, 1], [0, 0, 0]])
    seed = exchange.TropicalSeed(
        *(tuple(map(tuple, record[f])) for f in "BCG"), path=tuple(record["path"])
    )
    new = exchange.key_to_str(exchange.canonical_key(seed))
    doc["vertices"] = {new if k == old else k: record if k == old else v
                       for k, v in doc["vertices"].items()}
    for edge in doc["edges"]:
        for end in ("source", "target"):
            if edge[end] == old:
                edge[end] = new
    return doc


A2_ROOT = a2_graph_doc()["root"]
A2_FIRST_TARGET = a2_graph_doc()["edges"][0]["target"]
FRACTIONAL_ROOT = A2_ROOT.replace('"g":[[0,1]', '"g":[[0,1.5]')
assert FRACTIONAL_ROOT != A2_ROOT


# 3000-digit entries lie within Python's int-string limit (4300 digits), and
# mutation multiplies them past it
_BIG = "7" * 3000
OVERLONG_RESULT = [
    "--matrix", "[[0,%s],[-1,0]]" % _BIG, "--delta", "[%s,1]" % _BIG, "--max-depth", "4"
]

# (argv before the input path, input document, its JSON text or None, error code)
DOMAIN_ERRORS = {
    "not-skew-symmetrizable": (
        ["explore"], {"B": [[0, 1], [1, 0]], "delta": [1, 1]}, "not_skew_symmetrizable"
    ),
    "asymmetric-zero-pattern": (
        ["explore"], {"B": [[0, 1], [0, 0]], "delta": [1, 1]}, "not_skew_symmetrizable"
    ),
    # d1 = d0 and d2 = d1 along two edges, but d2 = d0 / 2 along the third
    "inconsistent-ratios": (
        ["explore"],
        {"B": [[0, 1, 1], [-1, 0, 1], [-2, -1, 0]], "delta": [1, 1, 1]},
        "not_skew_symmetrizable",
    ),
    "non-square-B": (
        ["explore", "--matrix", "[[0,1]]", "--delta", "[1]"], None, "bad_input"
    ),
    "non-integer-B": (
        ["explore", "--matrix", "[[0,1.5],[-1,0]]", "--delta", "[1,1]"], None, "bad_input"
    ),
    "string-normal": (
        ["obstruct"], dict(A2, crossings=[{"normal": "ab", "sign": 1}]), "bad_input"
    ),
    "fractional-normal": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1.5, 0], "sign": 1}]), "bad_input"
    ),
    "too-long-normal": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0, 0], "sign": 1}]), "bad_input"
    ),
    "too-short-normal": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1], "sign": 1}]), "bad_input"
    ),
    "zero-normal": (
        ["obstruct"], dict(A2, crossings=[{"normal": [0, 0], "sign": 1}]), "bad_input"
    ),
    "mixed-sign-normal": (
        ["obstruct"], dict(A2, crossings=[{"normal": [-1, 1], "sign": 1}]), "bad_input"
    ),
    "scalar-delta": (["explore"], dict(A2, delta=5), "bad_input"),
    "short-delta": (["explore"], dict(A2, delta=[1]), "bad_decomposition"),
    "nonpositive-delta": (["explore"], dict(A2, delta=[1, 0]), "bad_decomposition"),
    # tuple() of a JSON object yields its keys: {} must not read as a rank-0 matrix
    "object-B": (["certify"], {"B": {}, "delta": []}, "bad_input"),
    "scalar-D": (["explore"], dict(A2, D=3), "bad_input"),
    "boolean-D": (["certify"], dict(A2, D=[True, True]), "bad_input"),
    "list-D": (["scatter2"], dict(A2, D=[1, 1]), "bad_input"),
    "fractional-sign": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0], "sign": 1.7}]), "bad_input"
    ),
    "boolean-sign": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0], "sign": True}]), "bad_input"
    ),
    "string-sign": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0], "sign": "1"}]), "bad_input"
    ),
    "empty-crossings": (["obstruct"], dict(A2, crossings=[]), "bad_input"),
    "non-integer-direction": (["certify"], a2_graph_doc(direction="x"), "bad_input"),
    "unknown-edge-target": (["certify"], a2_graph_doc(target=UNKNOWN_KEY), "bad_input"),
    "unknown-root": (["certify"], a2_graph_doc(root=UNKNOWN_KEY), "bad_input"),
    "string-depth-reached": (["certify"], dict(a2_graph_doc(), depth_reached="x"), "bad_input"),
    "wrong-rank-negative-depth": (
        ["certify"], dict(a2_graph_doc(), rank=99, depth_reached=-7), "bad_input"
    ),
    # int() would truncate this onto the root's key
    "fractional-key-entry": (["certify"], a2_graph_doc(source=FRACTIONAL_ROOT), "bad_input"),
    "swapped-seeds": (["certify"], a2_swapped_seeds_doc(), "bad_input"),
    # _seed_key would look both equal columns up at one index
    "repeated-g-column": (["certify"], a3_repeated_g_column_doc(), "bad_input"),
    "reversed-root-edge": (
        ["certify"], a2_graph_doc(source=A2_FIRST_TARGET, target=A2_ROOT), "bad_input"
    ),
    "unknown-status": (["certify"], dict(a2_graph_doc(), status=[1]), "bad_input"),
    "out-of-range-direction": (["certify"], a2_graph_doc(direction=2), "bad_input"),
    "negative-direction": (["certify"], a2_graph_doc(direction=-5), "bad_input"),
    # JSON takes integers of any length, Python's int-string limit does not
    "overlong-integer": (
        ["explore"], '{"B": [[0, 1], [-%s, 0]], "delta": [1, 1]}' % ("9" * 5000), "bad_input"
    ),
    "overlong-inline-integer": (
        ["explore", "--matrix", "[[0,1],[-%s,0]]" % ("9" * 5000), "--delta", "[1,1]"],
        None,
        "bad_input",
    ),
    "overlong-result-json": (["explore"] + OVERLONG_RESULT, None, "bad_input"),
    "overlong-result-dot": (["explore", "--format", "dot"] + OVERLONG_RESULT, None, "bad_input"),
    "overlong-result-certify": (["certify"] + OVERLONG_RESULT, None, "bad_input"),
}

# (command, a flag it does not take and its value); each was accepted once,
# but changed no result
FOREIGN_FLAGS = [
    ("explore", ["--level", "3"]),
    ("certify", ["--out-json", "c.json"]),
    ("certify", ["--format", "json"]),
    ("consistency", ["--format", "dot"]),
    ("obstruct", ["--max-depth", "3"]),
    ("obstruct", ["--format", "json"]),
    ("scatter2", ["--out-dot", "d.dot"]),
    ("scatter2", ["--format", "dot"]),
    ("scatter2", ["--max-depth", "3"]),
    ("scatter2", ["--max-vertices", "3"]),
    ("emit-fan", ["--out-svg", "f.svg"]),
    ("emit-fan", ["--format", "svg"]),
] + [(command, ["--symmetrizer", "[1,1]"]) for command in cli.COMMANDS]

# every flag each subcommand takes; a new one needs a test and a README line
ACCEPTED_FLAGS = {
    "explore": [
        "--delta", "--format", "--matrix", "--max-depth", "--max-vertices",
        "--out", "--out-dot", "--out-json", "--out-svg",
    ],
    "certify": ["--delta", "--matrix", "--max-depth", "--max-vertices", "--out"],
    "consistency": ["--delta", "--level", "--matrix", "--max-depth", "--max-vertices", "--out"],
    "obstruct": ["--delta", "--matrix", "--out"],
    "scatter2": ["--delta", "--format", "--level", "--matrix", "--out", "--out-json", "--out-svg"],
    "emit-fan": ["--delta", "--matrix", "--max-depth", "--max-vertices", "--out"],
}

# the line `greenfan --help` shows for each command
HELP_LINES = {
    "explore": "enumerate the oriented exchange graph",
    "certify": "topologically sort the graph, proving it acyclic",
    "consistency": "check loop products over a complete graph",
    "obstruct": "minimal-degree witness for an all-green crossing sequence",
    "scatter2": "complete the rank-2 scattering diagram",
    "emit-fan": "draw the rank-2 cluster fan as SVG",
}

# every GreenfanError code, depth first over the subclasses in definition order
ERROR_CODES = [
    "error", "not_skew_symmetrizable", "bad_decomposition", "sign_incoherent", "cycle_found",
    "incomplete_graph", "level_mismatch", "not_lie_element", "not_grouplike", "invalid_walk",
    "not_all_green", "inconsistency_found", "not_rank_two", "non_laurent", "inhomogeneous",
    "internal_error", "out_of_memory", "bad_input",
]

# every name the package exports; a new one needs a test and a README line
PUBLIC_NAMES = [
    "AlgebraElement", "BadDecomposition", "BadInput", "ConsistencyReport", "Crossing",
    "CrossingSequence", "CycleFound", "FixedData", "GreenfanError", "GroupElement",
    "IncompleteGraph", "InconsistencyFound", "Inhomogeneous", "InternalError",
    "InvalidWalk", "LevelMismatch", "NonLaurent", "NotAllGreen", "NotGrouplike",
    "NotLieElement", "NotRankTwo", "NotSkewSymmetrizable", "Obstruction",
    "OrientedExchangeGraph", "PbwAlgebra", "ScatteringDiagram", "SeedKey",
    "SignIncoherent", "TropicalSeed", "Wall", "canonical_key", "certify_acyclic",
    "complete_rank2", "crossing_sequence", "crossing_sequence_from_normals",
    "delta_exponent", "diagram_from_json", "diagram_to_json", "diagram_to_svg",
    "element_from_json", "element_to_json", "enumerate_graph",
    "factor_dilog_power", "fan_to_svg", "graph_from_json", "graph_to_dot",
    "graph_to_json", "group_from_json", "key_to_str", "minimal_degree_obstruction",
    "mutate_seed", "path_ordered_product", "root_seed", "validate_fixed_data",
    "validate_wall", "verify_loop_consistency", "verify_rank2_consistency", "walk",
]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


# one artifact within the 8 KiB stdout buffer, which only the flush writes,
# and one past it, which the write itself hands to the file
STDOUT_ARTIFACTS = {
    "small": ["certify", "--matrix", "[[0,1],[-1,0]]", "--delta", "[1,1]"],
    "large": ["explore", "--matrix", "[[0,1,0],[-1,0,1],[0,-1,0]]", "--delta", "[1,1,1]"],
}


HELP_ARGVS = [["--help"], ["explore", "--help"]]
# a shell that runs its arguments with stdout, or stderr, closed
STDOUT_CLOSED = ["sh", "-c", '"$@" >&-', "sh"]
STDERR_CLOSED = ["sh", "-c", '"$@" 2>&-', "sh"]
# a run that ends in a domain error, so its payload goes to stderr
NOT_SKEW = ["explore", "--matrix", "[[0,1],[1,0]]", "--delta", "[1,1]"]
# E6, whose graph document is several batches of text
E6_INLINE = [
    "--matrix", "[[0,1,0,0,0,0],[-1,0,1,0,0,0],[0,-1,0,1,0,1],[0,0,-1,0,1,0],[0,0,0,-1,0,0],[0,0,-1,0,0,0]]",
    "--delta", "[1,1,1,1,1,1]",
]


def run_buffered(argv, stdout=None, prefix=(), stderr=subprocess.PIPE):
    """Run the CLI, under the ``prefix`` command if any, with ``stdout``
    block-buffered, as it is by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [*prefix, *CMD, *argv],
        stdout=stdout, stderr=stderr, text=True, timeout=120, env=env,
    )


def assert_stdout_payload(proc):
    """A failed stdout write exits 1 with one bad_input payload and no traceback."""
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert set(err) == {"error", "detail"}
    assert err["error"] == "bad_input"
    assert "stdout" in err["detail"]


@pytest.fixture
def a2_path(tmp_path):
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(A2))
    return str(path)


class TestExplore:
    def test_json_output(self, a2_path):
        out = json.loads(run_cli("explore", a2_path).stdout)
        assert out["status"] == "complete"
        assert len(out["vertices"]) == 5
        assert out["topological_order"][0] == out["root"]

    def test_inline_matrix(self):
        out = json.loads(
            run_cli(
                "explore", "--matrix", "[[0,1],[-1,0]]", "--delta", "[1,1]"
            ).stdout
        )
        assert len(out["vertices"]) == 5

    def test_dot_format(self, a2_path):
        out = run_cli("explore", a2_path, "--format", "dot").stdout
        assert out.startswith("digraph")

    def test_budgets_truncate(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(KRONECKER))
        out = json.loads(run_cli("explore", str(path), "--max-depth", "6").stdout)
        assert out["status"] == "truncated"
        assert len(out["vertices"]) == 13
        assert out["topological_order"] is None

    def test_artifact_files(self, a2_path, tmp_path):
        js = tmp_path / "g.json"
        dot = tmp_path / "g.dot"
        svg = tmp_path / "g.svg"
        run_cli(
            "explore",
            a2_path,
            "--out",
            str(js),
            "--out-dot",
            str(dot),
            "--out-svg",
            str(svg),
        )
        assert json.loads(js.read_text())["status"] == "complete"
        assert dot.read_text().startswith("digraph")
        assert svg.read_text().startswith("<svg")


class TestCertify:
    def test_from_input_document(self, a2_path):
        out = json.loads(run_cli("certify", a2_path).stdout)
        assert len(out["topological_order"]) == 5
        assert out["topological_order"][0] == out["root"]

    def test_from_exported_graph(self, a2_path, tmp_path):
        exported = tmp_path / "graph.json"
        run_cli("explore", a2_path, "--out", str(exported))
        out = json.loads(run_cli("certify", str(exported)).stdout)
        assert len(out["topological_order"]) == 5

    def test_root_first_whatever_the_listed_order(self, tmp_path):
        doc = graph_to_json(
            enumerate_graph(validate_fixed_data(KRONECKER["B"], KRONECKER["delta"]), max_depth=3)
        )
        # the one frontier vertex with no incoming edge, listed ahead of the root
        sources = set(doc["vertices"]) - {doc["root"]} - {e["target"] for e in doc["edges"]}
        (frontier,) = sources
        vertices = doc["vertices"]
        doc["vertices"] = {frontier: vertices.pop(frontier), **vertices}
        path = tmp_path / "frontier-first.json"
        path.write_text(json.dumps(doc))
        out = json.loads(run_cli("certify", str(path)).stdout)
        assert out["status"] == "truncated"
        assert out["topological_order"][0] == out["root"] == doc["root"]
        assert sorted(out["topological_order"]) == sorted(doc["vertices"])

    def test_directed_cycle_is_reported(self, tmp_path):
        doc = d4_cycle_graph_doc()
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        proc = run_cli("certify", str(path), expect=1)
        err = json.loads(proc.stderr)
        added = doc["edges"][-1]
        assert set(err) == {"error", "detail", "cycle"}
        assert err["error"] == "cycle_found"
        assert err["cycle"] == [added["source"], added["target"]]
        assert proc.stdout == ""

    def test_longer_cycle_is_reported(self, tmp_path):
        doc, names = d4_long_cycle_doc()
        path = tmp_path / "long-cycle.json"
        path.write_text(json.dumps(doc))
        err = json.loads(run_cli("certify", str(path), expect=1).stderr)
        assert err["error"] == "cycle_found"
        assert err["cycle"] == [names[i] for i in (6, 17, 7, 1)]


class TestConsistency:
    def test_loop_report(self, a2_path):
        out = json.loads(run_cli("consistency", a2_path, "--level", "6").stdout)
        assert out["level"] == 6
        assert out["loop_count"] == 1
        assert out["loops"][0]["identity"] is True

    def test_truncated_graph_fails(self, tmp_path):
        path = tmp_path / "k.json"
        path.write_text(json.dumps(KRONECKER))
        proc = run_cli("consistency", str(path), "--max-depth", "4", expect=1)
        err = json.loads(proc.stderr)
        assert err["error"] == "incomplete_graph"


class TestObstruct:
    def test_single_crossing_witness(self, tmp_path):
        doc = dict(A2, crossings=[{"normal": [1, 0], "sign": 1}])
        path = tmp_path / "cs.json"
        path.write_text(json.dumps(doc))
        out = json.loads(run_cli("obstruct", str(path)).stdout)
        assert out["min_degree"] == 1
        assert out["witness"] == [{"vector": [1, 0], "coeff": "1"}]
        assert out["pretty"] == "1*X(1,0)"

    def test_red_crossing_is_domain_error(self, tmp_path):
        doc = dict(A2, crossings=[{"normal": [1, 0], "sign": -1}])
        path = tmp_path / "cs.json"
        path.write_text(json.dumps(doc))
        err = json.loads(run_cli("obstruct", str(path), expect=1).stderr)
        assert err["error"] == "not_all_green"


class TestScatter2:
    def test_diagram_json(self, a2_path):
        out = json.loads(run_cli("scatter2", a2_path, "--level", "6").stdout)
        assert out["level"] == 6
        factored = {w["factored"] for w in out["walls"]}
        assert factored == {"Psi[1,0]^1", "Psi[0,1]^1", "Psi[1,1]^1"}

    def test_svg_artifact(self, a2_path, tmp_path):
        svg = tmp_path / "d.svg"
        run_cli("scatter2", a2_path, "--level", "4", "--out-svg", str(svg))
        text = svg.read_text()
        assert text.startswith("<svg")
        assert "Psi[1,1]^1" in text

    def test_rank_three_input_fails(self, tmp_path):
        path = tmp_path / "a3.json"
        path.write_text(
            json.dumps({"B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "delta": [1, 1, 1]})
        )
        err = json.loads(run_cli("scatter2", str(path), expect=1).stderr)
        assert err["error"] == "not_rank_two"

    def test_svg_twice_renders_once(self, a2_path, tmp_path, monkeypatch, capsys):
        calls = {"enumerate": 0, "json": 0}
        enumerate_graph_, diagram_to_json = exchange.enumerate_graph, scattering.diagram_to_json

        def counted_enumerate(*args, **kwargs):
            calls["enumerate"] += 1
            return enumerate_graph_(*args, **kwargs)

        def counted_json(*args, **kwargs):
            calls["json"] += 1
            return diagram_to_json(*args, **kwargs)

        monkeypatch.setattr(exchange, "enumerate_graph", counted_enumerate)
        monkeypatch.setattr(scattering, "diagram_to_json", counted_json)
        svg = tmp_path / "d.svg"
        argv = ["scatter2", a2_path, "--level", "4", "--format", "svg", "--out-svg", str(svg)]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout.startswith("<svg")
        assert svg.read_text() == stdout
        assert calls == {"enumerate": 1, "json": 0}


class TestEmitFan:
    def test_svg_output(self, a2_path):
        out = run_cli("emit-fan", a2_path).stdout
        assert out.startswith("<svg")
        assert "t0" in out

    def test_rank_two_rule_on_every_fan_route(self, tmp_path, monkeypatch, capsys):
        """Each route to the fan checks the rule before it enumerates, and writes nothing."""
        calls = {"enumerate": 0}
        enumerate_graph_ = exchange.enumerate_graph

        def counted_enumerate(*args, **kwargs):
            calls["enumerate"] += 1
            return enumerate_graph_(*args, **kwargs)

        monkeypatch.setattr(exchange, "enumerate_graph", counted_enumerate)
        monkeypatch.chdir(tmp_path)
        path = tmp_path / "a3.json"
        path.write_text(json.dumps({"B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "delta": [1, 1, 1]}))
        payloads = []
        for command, *flags in (
            ["emit-fan"],
            ["explore", "--format", "svg"],
            ["explore", "--out-svg", "f.svg"],
            ["explore", "--out-json", "a.json", "--out-svg", "b.svg"],
        ):
            assert cli.main([command, str(path)] + flags) == 1
            out, err = capsys.readouterr()
            assert out == ""
            payloads.append(err)
        (payload,) = set(payloads)
        assert json.loads(payload) == {"error": "not_rank_two", "detail": "fan output is rank-2 only"}
        assert calls == {"enumerate": 0}
        assert os.listdir(tmp_path) == ["a3.json"]


class TestContract:
    def test_idempotent_artifacts(self, a2_path):
        for args in (
            ["explore", a2_path],
            ["certify", a2_path],
            ["consistency", a2_path, "--level", "4"],
            ["scatter2", a2_path, "--level", "4"],
            ["scatter2", a2_path, "--level", "4", "--format", "svg"],
            ["emit-fan", a2_path],
        ):
            assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_emitted_json_reparses(self, a2_path, tmp_path):
        graph_doc = json.loads(run_cli("explore", a2_path).stdout)
        reparsed = json.loads(json.dumps(graph_doc))
        assert reparsed == graph_doc

    @pytest.mark.parametrize("case", sorted(DOMAIN_ERRORS))
    def test_domain_error_shape(self, case, tmp_path):
        argv, doc, code = DOMAIN_ERRORS[case]
        if doc is not None:
            path = tmp_path / "bad.json"
            path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
            argv = argv + [str(path)]
        proc = run_cli(*argv, expect=1)
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "detail"}
        assert err["error"] == code
        assert proc.stdout == ""

    def test_other_value_errors_are_not_relabelled(self, a2_path, monkeypatch):
        def broken(graph, topological_order=None):
            raise ValueError("a bug")

        monkeypatch.setattr(exchange, "graph_to_json", broken)
        with pytest.raises(ValueError, match="a bug"):
            cli.main(["explore", a2_path])

    def test_missing_file_is_domain_error(self):
        err = json.loads(run_cli("explore", "/nonexistent.json", expect=1).stderr)
        assert err["error"] == "bad_input"

    def test_usage_errors_exit_two(self):
        """A usage error after the command is chosen shows that command's usage line."""
        assert run_cli("frobnicate", expect=2).stderr.startswith("usage: greenfan [-h] command")
        inline = ["--matrix", "[[0]]", "--delta", "[1]"]
        for argv, message in [
            (["explore"], "provide an input document or --matrix/--delta"),
            (["explore", "--matrix", "[[0]]"], "--matrix requires --delta"),
            (["consistency", *inline, "--level", "0"], "--level must be >= 1"),
            (["explore", *inline, "--max-vertices", "0"], "--max-vertices must be >= 1"),
            (["explore", *inline, "--max-depth", "-1"], "--max-depth must be >= 0"),
        ]:
            stderr = run_cli(*argv, expect=2).stderr
            assert stderr.startswith("usage: greenfan %s " % argv[0]), stderr
            assert stderr.endswith("greenfan %s: error: %s\n" % (argv[0], message)), stderr

    def test_help_lines_are_pinned(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "200")
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        # a long command name puts its help on the next line
        shown = re.findall(r"^    (\S+)\s+(.+)$", capsys.readouterr().out, flags=re.M)
        assert dict(shown) == HELP_LINES

    @pytest.mark.parametrize(
        "command, flag", FOREIGN_FLAGS, ids=["%s%s" % (c, f[0]) for c, f in FOREIGN_FLAGS]
    )
    def test_flag_the_command_does_not_take_exits_two(
        self, command, flag, a2_path, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main([command, a2_path] + flag)
        assert exc.value.code == 2

    @pytest.mark.parametrize("delta", ["[7,7]", "garbage"])
    def test_delta_without_matrix_exits_two(self, delta, a2_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["explore", a2_path, "--delta", delta])
        assert exc.value.code == 2
        assert "--delta requires --matrix" in capsys.readouterr().err

    def test_accepted_flags_are_pinned(self):
        parser = cli._parser.__wrapped__()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        accepted = {
            name: sorted(
                flag
                for action in sub._actions
                for flag in action.option_strings
                if flag not in ("-h", "--help")
            )
            for name, sub in commands.choices.items()
        }
        assert accepted == ACCEPTED_FLAGS
        assert sum(map(len, accepted.values())) == 35

    def test_public_names_are_pinned(self):
        assert greenfan.__all__ == PUBLIC_NAMES
        assert len(PUBLIC_NAMES) == 58

    def test_readme_lists_every_export(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
        rows = re.findall(r"^\| `(\w+)` +\| `([\w.]+)` +\|", table, flags=re.M)
        assert [name for name, _ in rows] == greenfan.__all__
        assert all(getattr(greenfan, name).__module__ == module for name, module in rows)

    def test_error_codes_are_distinct_and_documented(self):
        def family(cls):
            return [cls] + [c for sub in cls.__subclasses__() for c in family(sub)]

        codes = [cls.code for cls in family(GreenfanError)]
        assert len(set(codes)) == len(codes) == 18
        assert codes == ERROR_CODES
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        table = readme.split("## Error codes", 1)[1].split("\n## ", 1)[0]
        documented = re.findall(r"^\| `([a-z_]+)` +\|", table, flags=re.M)
        assert sorted(documented) == sorted(codes)

    def test_error_code_rule_in_a_fresh_interpreter(self):
        """A new subclass gets its snake_case name unless it sets ``code``;
        run apart, so the family above holds only the package's classes."""
        script = (
            "import json\n"
            "from greenfan.errors import GreenfanError\n"
            "class ShortProofFailed(GreenfanError): pass\n"
            "class Custom(GreenfanError): code = 'custom'\n"
            "class CustomChild(Custom): pass\n"
            "print(json.dumps([ShortProofFailed.code, Custom.code, CustomChild.code]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == ["short_proof_failed", "custom", "custom_child"]

    @pytest.mark.parametrize("flag", ["--out", "--out-dot"])
    def test_unwritable_path_is_domain_error(self, flag, a2_path, tmp_path):
        missing = str(tmp_path / "missing" / "artifact")
        proc = run_cli("explore", a2_path, flag, missing, expect=1)
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "detail"}
        assert err["error"] == "bad_input"
        assert missing in err["detail"]
        assert proc.stdout == ""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("size", sorted(STDOUT_ARTIFACTS))
    def test_full_stdout_device_is_domain_error(self, size):
        with open("/dev/full", "w") as full:
            proc = run_buffered(STDOUT_ARTIFACTS[size], full)
        assert_stdout_payload(proc)

    @pytest.mark.parametrize("size", sorted(STDOUT_ARTIFACTS))
    def test_closed_stdout_pipe_is_domain_error(self, size):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_buffered(STDOUT_ARTIFACTS[size], write)
        finally:
            os.close(write)
        assert_stdout_payload(proc)

    @pytest.mark.parametrize("size", sorted(STDOUT_ARTIFACTS))
    def test_stdout_closed_at_start_is_domain_error(self, size):
        proc = run_buffered(STDOUT_ARTIFACTS[size], prefix=STDOUT_CLOSED)
        assert_stdout_payload(proc)

    def test_help_with_stdout_closed_at_start_is_domain_error(self):
        """argparse falls back to stderr for the help; the payload line follows it."""
        proc = run_buffered(["--help"], prefix=STDOUT_CLOSED)
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("usage: greenfan")
        err = json.loads(proc.stderr.splitlines()[-1])
        assert err == {"error": "bad_input", "detail": "cannot write stdout: it is closed"}

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_into_full_device_is_domain_error(self, argv):
        with open("/dev/full", "w") as full:
            proc = run_buffered(argv, stdout=full)
        assert_stdout_payload(proc)

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_unbuffered_help_into_full_device_is_domain_error(self):
        """Under ``-u`` argparse swallows the failed help write; the check after
        it still reports the full device."""
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-u", "-m", "greenfan", "--help"],
                                  stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
        assert_stdout_payload(proc)

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_into_closed_pipe_is_domain_error(self, argv):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_buffered(argv, stdout=write)
        finally:
            os.close(write)
        assert_stdout_payload(proc)

    @pytest.mark.parametrize("argv", HELP_ARGVS, ids=" ".join)
    def test_help_into_working_pipe_is_unchanged(self, argv, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps the help to it
        proc = run_buffered(argv, stdout=subprocess.PIPE)
        assert (proc.returncode, proc.stderr) == (0, "")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), pytest.raises(SystemExit) as info:
            cli.main(argv)
        assert info.value.code == 0
        assert proc.stdout == printed.getvalue()

    def test_stderr_closed_in_process_still_exits_1(self, monkeypatch):
        monkeypatch.setattr(sys, "stderr", None)
        assert cli.main(NOT_SKEW) == 1

    def test_failing_stderr_in_process_still_exits_1(self, monkeypatch, tmp_path):
        """The stream's fd then points at the null device, so no later flush fails."""
        fd = os.open(tmp_path / "stderr", os.O_WRONLY | os.O_CREAT)

        class FullStream:
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def fileno(self):
                return fd

        monkeypatch.setattr(sys, "stderr", FullStream())
        try:
            assert cli.main(NOT_SKEW) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)

    def test_stdout_failing_on_a_later_batch_is_domain_error(self, monkeypatch, tmp_path):
        """E6's graph document is several batches; a stdout that fails on the
        second is bad_input, and its fd then points at the null device."""
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class FailsSecond:
            def __init__(self):
                self.batches = []

            def write(self, text):
                if self.batches:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                self.batches.append(text)

            def flush(self):
                pass

            def fileno(self):
                return fd

        stdout, err = FailsSecond(), io.StringIO()
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", err)
        try:
            assert cli.main(["explore", *E6_INLINE]) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert len(stdout.batches) == 1 and stdout.batches[0].startswith('{\n  "rank": 6,')
        assert "Traceback" not in err.getvalue()
        payload = json.loads(err.getvalue())
        assert payload["error"] == "bad_input" and "stdout" in payload["detail"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("kind", ["no fd", "/dev/full"])
    def test_full_stdout_keeps_its_error_and_leaks_no_fd(self, monkeypatch, kind):
        """A full stdout with no fd (an in-process stand-in) or a real one: exit
        1 with the ENOSPC in the payload, and three runs leave the fd count as
        it was."""

        class FullStandIn(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        argv = ["explore", "--matrix", json.dumps(A2["B"]), "--delta", json.dumps(A2["delta"])]
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(3):
            stdout = FullStandIn() if kind == "no fd" else open("/dev/full", "w")
            err = io.StringIO()
            monkeypatch.setattr(sys, "stdout", stdout)
            monkeypatch.setattr(sys, "stderr", err)
            with stdout:
                assert cli.main(argv) == 1
            payload = json.loads(err.getvalue())
            assert payload["error"] == "bad_input"
            assert "No space left on device" in payload["detail"]
        assert len(os.listdir("/proc/self/fd")) == before

    def test_failed_render_writes_nothing(self, tmp_path):
        """A render that fails leaves stdout empty and no --out file."""
        files = [tmp_path / "graph.json", tmp_path / "graph.dot"]
        argv = ["explore", *OVERLONG_RESULT, "--out-json", str(files[0]), "--out-dot", str(files[1])]
        code, out, err = run_in_process(argv)
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "bad_input"
        assert not any(path.exists() for path in files)

    def test_stderr_closed_at_start_exits_1(self):
        proc = run_buffered(NOT_SKEW, stdout=subprocess.PIPE, prefix=STDERR_CLOSED)
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_full_stderr_device_exits_1(self):
        with open("/dev/full", "w") as full:
            proc = run_buffered(NOT_SKEW, stdout=subprocess.PIPE, stderr=full)
        assert (proc.returncode, proc.stdout) == (1, "")

    def test_memory_exhaustion_is_domain_error(self):
        """A child under its own 64 MB address-space limit reports the payload."""
        limit = 64 * 2**20

        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        argv = ["scatter2", "--matrix", "[[0,1],[-1,0]]", "--delta", "[1,1]"]
        proc = subprocess.run(
            CMD + argv + ["--level", "100000000"],
            capture_output=True, text=True, timeout=120, preexec_fn=cap,
        )
        assert proc.returncode == 1, proc.stderr
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "detail"}
        assert err["error"] == "out_of_memory"
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "content", [b'\xff\xfe{"B"', b"[" * 100000], ids=["not-utf8", "too-deep"]
    )
    def test_unparsable_input_is_domain_error(self, content, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        err = json.loads(run_cli("explore", str(path), expect=1).stderr)
        assert set(err) == {"error", "detail"}
        assert err["error"] == "bad_input"


README_PYTHON = re.findall(
    r"^```python\n(.*?)^```",
    (Path(__file__).resolve().parent.parent / "README.md").read_text(),
    flags=re.M | re.S,
)


@pytest.mark.parametrize(
    "block", README_PYTHON, ids=["block%d" % i for i in range(1, len(README_PYTHON) + 1)]
)
def test_readme_python_examples_run(block):
    """Every fenced python block in README.md runs, so a stale name fails here."""
    exec(compile(block, "README.md", "exec"), {})


# ---------------------------------------------------------------------------
# cold start: a CLI process imports only the layers its subcommand runs

RUN_MAIN = """
import contextlib, io, sys
from greenfan import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(" ".join(m for m in sys.modules if m.startswith("greenfan.")))
sys.exit(code)
"""

HEAVY = {"greenfan.laurent", "greenfan.liegroup", "greenfan.scattering"}

# (argv, the layers it must not load, the exit status); A2, GRAPH, CROSSINGS
# and RED name documents
COLD_STARTS = [
    (["explore", "A2"], HEAVY, 0),
    (["explore", "A2", "--format", "dot"], HEAVY, 0),
    (["explore", "A2", "--format", "svg"], HEAVY, 0),
    (["certify", "A2"], HEAVY, 0),
    (["certify", "GRAPH"], HEAVY, 0),
    (["emit-fan", "A2"], HEAVY, 0),
    (["consistency", "A2", "--level", "4"], {"greenfan.laurent"}, 0),
    (["obstruct", "CROSSINGS"], HEAVY, 0),
    (["obstruct", "RED"], HEAVY, 1),
    (["scatter2", "A2", "--level", "4"], {"greenfan.laurent"}, 0),
]


@pytest.mark.parametrize(
    "argv, unloaded, code", COLD_STARTS, ids=["-".join(a) for a, _, _ in COLD_STARTS]
)
def test_cli_loads_only_its_layers(argv, unloaded, code, tmp_path):
    documents = {
        "A2": A2,
        "GRAPH": a2_graph_doc(),
        "CROSSINGS": dict(A2, crossings=[{"normal": [1, 0], "sign": 1}]),
        "RED": dict(
            A2, crossings=[{"normal": [1, 0], "sign": 1}, {"normal": [0, 1], "sign": -1}]
        ),
    }
    args = []
    for arg in argv:
        if arg in documents:
            path = tmp_path / (arg + ".json")
            path.write_text(json.dumps(documents[arg]))
            arg = str(path)
        args.append(arg)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_MAIN] + args, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == code, proc.stderr
    if code:
        assert json.loads(proc.stderr)["error"] == "not_all_green"
    assert not set(proc.stdout.split()) & unloaded


A2_INLINE = ["--matrix", "[[0,1],[-1,0]]", "--delta", "[1,1]"]
# (COLUMNS, argv): a success, two usage errors, the help at two widths and
# a domain error
REPEATED_RUNS = [
    ("80", ["explore", *A2_INLINE]),
    ("80", ["explore", *A2_INLINE, "--max-depth", "-1"]),
    ("80", ["explore", *A2_INLINE, "--format", "bogus"]),
    ("80", ["explore", "--help"]),
    ("200", ["explore", "--help"]),
    ("80", NOT_SKEW),
]


def run_in_process(argv):
    """``cli.main(argv)`` with fresh stdout and stderr buffers: its exit
    status and what it wrote to each."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once_per_process(monkeypatch):
    cli._parser.cache_clear()
    passes = []
    try:
        for _ in range(2):
            runs = []
            for columns, argv in REPEATED_RUNS:
                monkeypatch.setenv("COLUMNS", columns)
                runs.append(run_in_process(argv))
            passes.append(runs)
        info = cli._parser.cache_info()
    finally:
        cli._parser.cache_clear()
    assert info.misses == info.currsize == 1
    assert info.hits == 2 * len(REPEATED_RUNS) - 1
    assert passes[0] == passes[1]
    assert [code for code, _, _ in passes[0]] == [0, 2, 2, 0, 0, 1]
    (_, narrow, _), (_, wide, _) = passes[0][3:5]
    assert max(map(len, narrow.splitlines())) <= 80 < max(map(len, wide.splitlines()))
    assert json.loads(passes[0][5][2])["error"] == "not_skew_symmetrizable"


PACKAGE_API = """
import importlib, json, sys
import greenfan
loaded = sorted(m for m in sys.modules if m.startswith("greenfan."))
foreign = [
    name for name in greenfan.__all__
    if getattr(greenfan, name)
    is not getattr(importlib.import_module(getattr(greenfan, name).__module__), name)
]
star = {}
exec("from greenfan import *", star)


def missing(name):
    try:
        getattr(greenfan, name)
    except AttributeError as exc:
        return str(exc)


print(json.dumps({
    "loaded": loaded,
    "foreign": foreign,
    "unbound": sorted(set(greenfan.__all__) - set(star)),
    "undir": sorted(set(greenfan.__all__) - set(dir(greenfan))),
    "exchange": greenfan.exchange is importlib.import_module("greenfan.exchange"),
    "unknown": missing("no_such_name"),
    "laurent": greenfan.laurent is importlib.import_module("greenfan.laurent"),
    "laurent_in_dir": "laurent" in dir(greenfan),
    "laurent_poly": missing("LaurentPoly"),
    "laurent_exports": [
        name for name in greenfan.__all__
        if getattr(greenfan, name).__module__ == "greenfan.laurent"
    ],
}))
"""


# name -> its defining module, then every other module that holds it
SHARED_NAMES = {
    "Crossing": ("greenfan.crossings", "greenfan", "greenfan.scattering"),
    "CrossingSequence": ("greenfan.crossings", "greenfan", "greenfan.scattering"),
    "Obstruction": ("greenfan.crossings", "greenfan"),
    "crossing_sequence_from_normals": ("greenfan.crossings", "greenfan"),
    "minimal_degree_obstruction": ("greenfan.crossings", "greenfan"),
    "degree": ("greenfan.linalg", "greenfan.liegroup", "greenfan.scattering"),
    "delta_exponent": ("greenfan.linalg", "greenfan"),
    "is_positive_vector": ("greenfan.linalg", "greenfan.liegroup", "greenfan.scattering"),
    "letter_key": ("greenfan.linalg", "greenfan.liegroup", "greenfan.scattering"),
}


@pytest.mark.parametrize("name", SHARED_NAMES)
def test_shared_name_is_one_object(name):
    home, *others = SHARED_NAMES[name]
    value = getattr(importlib.import_module(home), name)
    assert value.__module__ == home
    assert all(getattr(importlib.import_module(m), name) is value for m in others)


# (module, name) paths a module held only to re-export a name it never uses
DROPPED_PATHS = [
    ("greenfan.scattering", "Obstruction"),
    ("greenfan.scattering", "crossing_sequence_from_normals"),
    ("greenfan.scattering", "minimal_degree_obstruction"),
    ("greenfan.scattering", "delta_exponent"),
    ("greenfan.liegroup", "delta_exponent"),
]


@pytest.mark.parametrize("module, name", DROPPED_PATHS)
def test_name_has_one_home(module, name):
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(module), name)


def test_package_exports_resolve_lazily():
    proc = subprocess.run(
        [sys.executable, "-c", PACKAGE_API], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "loaded": [],
        "foreign": [],
        "unbound": [],
        "undir": [],
        "exchange": True,
        "unknown": "module 'greenfan' has no attribute 'no_such_name'",
        "laurent": True,
        "laurent_in_dir": True,
        "laurent_poly": "module 'greenfan' has no attribute 'LaurentPoly'",
        "laurent_exports": [],
    }
