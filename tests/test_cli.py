import json
import subprocess
import sys

import pytest

from greenfan import enumerate_graph, graph_to_json, validate_fixed_data

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
    "scalar-delta": (["explore"], dict(A2, delta=5), "bad_input"),
    "scalar-D": (["explore"], dict(A2, D=3), "bad_input"),
    "fractional-sign": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0], "sign": 1.7}]), "bad_input"
    ),
    "boolean-sign": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0], "sign": True}]), "bad_input"
    ),
    "string-sign": (
        ["obstruct"], dict(A2, crossings=[{"normal": [1, 0], "sign": "1"}]), "bad_input"
    ),
    "non-integer-direction": (["certify"], a2_graph_doc(direction="x"), "bad_input"),
    "unknown-edge-target": (["certify"], a2_graph_doc(target=UNKNOWN_KEY), "bad_input"),
    "unknown-root": (["certify"], a2_graph_doc(root=UNKNOWN_KEY), "bad_input"),
}


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
        run_cli("explore", "--matrix", "[[0]]", "--delta", "[1]", "--level", "0", expect=2)
