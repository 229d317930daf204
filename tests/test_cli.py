import json
import resource
import subprocess
import sys

import pytest

from greenfan import cli, enumerate_graph, graph_to_json, validate_fixed_data
from greenfan import exchange, scattering

from support import d4_cycle_graph_doc

CMD = [sys.executable, "-m", "greenfan"]

A2 = {"B": [[0, 1], [-1, 0]], "delta": [1, 1]}
KRONECKER = {"B": [[0, 2], [-2, 0]], "delta": [1, 1]}


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


A2_ROOT = a2_graph_doc()["root"]
A2_FIRST_TARGET = a2_graph_doc()["edges"][0]["target"]
FRACTIONAL_ROOT = A2_ROOT.replace('"g":[[0,1]', '"g":[[0,1.5]')
assert FRACTIONAL_ROOT != A2_ROOT


# (argv before the input path, input document or None, error code)
DOMAIN_ERRORS = {
    "not-skew-symmetrizable": (
        ["explore"], {"B": [[0, 1], [1, 0]], "delta": [1, 1]}, "not_skew_symmetrizable"
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
    "scalar-delta": (["explore"], dict(A2, delta=5), "bad_input"),
    "scalar-D": (["explore"], dict(A2, D=3), "bad_input"),
    "boolean-D": (["certify"], dict(A2, D=[True, True]), "not_skew_symmetrizable"),
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
    # int() would truncate this onto the root's key
    "fractional-key-entry": (["certify"], a2_graph_doc(source=FRACTIONAL_ROOT), "bad_input"),
    "swapped-seeds": (["certify"], a2_swapped_seeds_doc(), "bad_input"),
    "reversed-root-edge": (
        ["certify"], a2_graph_doc(source=A2_FIRST_TARGET, target=A2_ROOT), "bad_input"
    ),
    "unknown-status": (["certify"], dict(a2_graph_doc(), status=[1]), "bad_input"),
    "out-of-range-direction": (["certify"], a2_graph_doc(direction=2), "bad_input"),
    "negative-direction": (["certify"], a2_graph_doc(direction=-5), "bad_input"),
}

# (command, a flag it does not take and its value); each used to be accepted
# and ignored
FOREIGN_FLAGS = [
    ("explore", ["--level", "3"]),
    ("certify", ["--out-json", "c.json"]),
    ("consistency", ["--format", "dot"]),
    ("obstruct", ["--max-depth", "3"]),
    ("scatter2", ["--out-dot", "d.dot"]),
    ("scatter2", ["--format", "dot"]),
    ("emit-fan", ["--out-svg", "f.svg"]),
]


def run_cli(*args, expect=0):
    proc = subprocess.run(
        CMD + list(args), capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


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
            path.write_text(json.dumps(doc))
            argv = argv + [str(path)]
        proc = run_cli(*argv, expect=1)
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "detail"}
        assert err["error"] == code
        assert proc.stdout == ""

    def test_missing_file_is_domain_error(self):
        err = json.loads(run_cli("explore", "/nonexistent.json", expect=1).stderr)
        assert err["error"] == "bad_input"

    def test_usage_errors_exit_two(self):
        run_cli("explore", expect=2)  # no input at all
        run_cli("frobnicate", expect=2)  # unknown command
        run_cli("explore", "--matrix", "[[0]]", expect=2)  # missing --delta
        inline = ["--matrix", "[[0]]", "--delta", "[1]"]
        run_cli("consistency", *inline, "--level", "0", expect=2)
        run_cli("explore", *inline, "--max-vertices", "0", expect=2)
        run_cli("explore", *inline, "--max-depth", "-1", expect=2)

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

    @pytest.mark.parametrize("flag", ["--out", "--out-dot"])
    def test_unwritable_path_is_domain_error(self, flag, a2_path, tmp_path):
        missing = str(tmp_path / "missing" / "artifact")
        proc = run_cli("explore", a2_path, flag, missing, expect=1)
        err = json.loads(proc.stderr)
        assert set(err) == {"error", "detail"}
        assert err["error"] == "bad_input"
        assert missing in err["detail"]
        assert proc.stdout == ""

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

# (argv, the layers it must not load); A2, GRAPH and CROSSINGS name documents
COLD_STARTS = [
    (["explore", "A2"], HEAVY),
    (["explore", "A2", "--format", "dot"], HEAVY),
    (["explore", "A2", "--format", "svg"], HEAVY),
    (["certify", "A2"], HEAVY),
    (["certify", "GRAPH"], HEAVY),
    (["emit-fan", "A2"], HEAVY),
    (["consistency", "A2", "--level", "4"], {"greenfan.laurent"}),
    (["obstruct", "CROSSINGS"], {"greenfan.laurent"}),
    (["scatter2", "A2", "--level", "4"], {"greenfan.laurent"}),
]


@pytest.mark.parametrize(
    "argv, unloaded", COLD_STARTS, ids=["-".join(a) for a, _ in COLD_STARTS]
)
def test_cli_loads_only_its_layers(argv, unloaded, tmp_path):
    documents = {
        "A2": A2,
        "GRAPH": a2_graph_doc(),
        "CROSSINGS": dict(A2, crossings=[{"normal": [1, 0], "sign": 1}]),
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
    assert proc.returncode == 0, proc.stderr
    assert not set(proc.stdout.split()) & unloaded


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
try:
    greenfan.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({
    "loaded": loaded,
    "foreign": foreign,
    "unbound": sorted(set(greenfan.__all__) - set(star)),
    "undir": sorted(set(greenfan.__all__) - set(dir(greenfan))),
    "exchange": greenfan.exchange is importlib.import_module("greenfan.exchange"),
    "unknown": unknown,
}))
"""


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
    }
