"""Property tests, run with a fixed derandomized example set."""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenfan import (
    GreenfanError,
    PbwAlgebra,
    cli,
    complete_rank2,
    diagram_from_json,
    diagram_to_json,
    element_from_json,
    element_to_json,
    enumerate_graph,
    graph_from_json,
    graph_to_json,
    group_from_json,
    group_to_json,
    key_from_str,
    key_to_str,
    validate_fixed_data,
    verify_loop_consistency,
)

from support import LOOP_PATTERNS, d4_cycle_graph_doc, per_cycle_loop_consistency


@st.composite
def reoriented_patterns(draw):
    """A3, B3, A4 or D4 with edges reversed at random, then relabelled."""
    b, delta = LOOP_PATTERNS[draw(st.sampled_from(["A3", "B3", "A4", "D4"]))]
    r = len(b)
    b = [list(row) for row in b]
    for i in range(r):
        for j in range(i + 1, r):
            if b[i][j] and draw(st.booleans()):
                b[i][j], b[j][i] = -b[i][j], -b[j][i]
    perm = draw(st.permutations(range(r)))
    relabelled = [[b[perm[i]][perm[j]] for j in range(r)] for i in range(r)]
    return validate_fixed_data(relabelled, [delta[p] for p in perm])


@settings(derandomize=True, max_examples=12, deadline=None)
@given(fd=reoriented_patterns(), level=st.integers(1, 6))
def test_tree_loop_check_matches_per_cycle_oracle(fd, level):
    graph = enumerate_graph(fd)
    assert verify_loop_consistency(fd, graph, level) == per_cycle_loop_consistency(
        fd, graph, level
    )


# ---------------------------------------------------------------------------
# the CLI contract: exit 0, exit 1 with {"error", "detail"}, or usage exit 2


A2 = {"B": [[0, 1], [-1, 0]], "delta": [1, 1]}


def _a2_graph(**fields):
    doc = graph_to_json(enumerate_graph(validate_fixed_data(A2["B"], A2["delta"])))
    return dict(doc, **fields)


def _a2_graph_edge(**fields):
    doc = _a2_graph()
    doc["edges"][0] = dict(doc["edges"][0], **fields)
    return doc


# small documents and malformed shapes; only the D4 graph holds a directed
# cycle, so only a cycle_found failure carries a "cycle" field and none a "loop"
DOCUMENTS = {
    "A2": A2,
    "G2": {"B": [[0, 1], [-3, 0]], "delta": [1, 3]},
    "Kronecker": {"B": [[0, 2], [-2, 0]], "delta": [1, 1]},
    "A3": {"B": [[0, 1, 0], [-1, 0, 1], [0, -1, 0]], "delta": [1, 1, 1]},
    "A2-crossings": dict(
        A2, crossings=[{"normal": [1, 0], "sign": 1}, {"normal": [1, 1], "sign": 1}]
    ),
    "red-crossing": dict(A2, crossings=[{"normal": [1, 0], "sign": -1}]),
    "bad-crossing": dict(A2, crossings=[{"normal": "ab"}, 5]),
    "empty-crossings": dict(A2, crossings=[]),
    "scalar-delta": dict(A2, delta=5),
    "not-skew": {"B": [[0, 1], [1, 0]], "delta": [1, 1]},
    "no-B": {"delta": [1, 1]},
    "list-document": [1, 2],
    "A2-graph": _a2_graph(),
    "list-vertices": _a2_graph(vertices=[]),
    "bad-status": _a2_graph(status=[1]),
    "bad-direction": _a2_graph_edge(direction=2),
    "string-depth": _a2_graph(depth_reached="x"),
    "D4-cycle": d4_cycle_graph_doc(),
}

COMMANDS = ["certify", "consistency", "emit-fan", "explore", "obstruct", "scatter2"]

# every option of every command but --out, with good and bad values; OUT
# and MISSING stand for a writable path and one in a missing directory
OUT, MISSING = "{tmp}/artifact", "{tmp}/missing/artifact"
FLAG_VALUES = {
    "--matrix": ["[[0,1],[-1,0]]", "[[0]]", "[[0,1.5],[-1,0]]", "{", "5"],
    "--delta": ["[1,1]", "[1]", "5", "x"],
    "--symmetrizer": ["[1,1]", "3", "[true,true]"],
    "--level": ["1", "4", "0", "-2", "x"],
    "--max-depth": ["0", "3", "-1"],
    "--max-vertices": ["1", "20", "0"],
    "--format": ["json", "dot", "svg", "png"],
    "--out-json": [OUT, MISSING],
    "--out-dot": [OUT, MISSING],
    "--out-svg": [OUT, MISSING],
}


@st.composite
def invocations(draw):
    argv = [draw(st.sampled_from(COMMANDS))]
    document = draw(st.sampled_from([None] + sorted(DOCUMENTS)))
    if document is not None:
        argv.append(document)
    for flag in draw(st.lists(st.sampled_from(sorted(FLAG_VALUES)), max_size=3, unique=True)):
        argv += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    out = draw(st.sampled_from([None, OUT, MISSING]))
    return argv if out is None else argv + ["--out", out]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(argv=invocations())
@example(argv=["certify", "D4-cycle"])
@example(argv=["obstruct", "empty-crossings"])
@example(argv=["explore", "A3", "--out-svg", OUT])
def test_cli_outcome_is_success_payload_or_usage(argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, doc in DOCUMENTS.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        argv = [
            os.path.join(tmp, arg) if arg in DOCUMENTS else arg.replace("{tmp}", tmp)
            for arg in argv
        ]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    assert code in (0, 1), argv
    if code == 1:
        assert out.getvalue() == "", argv
        payload = json.loads(err.getvalue())
        cycle = {"cycle"} if payload["error"] == "cycle_found" else set()
        assert set(payload) == {"error", "detail"} | cycle, argv


# ---------------------------------------------------------------------------
# the readers: a mutated document reads back or fails with a GreenfanError


G2 = validate_fixed_data([[0, 1], [-3, 0]], [1, 3])
_A2_GRAPH = enumerate_graph(validate_fixed_data(A2["B"], A2["delta"]))
_G2_DIAGRAM = complete_rank2(G2, 3)
_G2_ALGEBRA = PbwAlgebra(G2.omega, 3)


def _read_diagram(doc):
    diagram = diagram_from_json(doc, G2)
    # an accepted diagram is well formed, so its re-check means what it says
    assert diagram.level >= 1
    assert all(w.element.algebra.level == diagram.level for w in diagram.walls)
    return diagram


# reader -> (a valid document as parsed JSON, the call that reads it)
READERS = {
    "graph": (graph_to_json(_A2_GRAPH), graph_from_json),
    "diagram": (diagram_to_json(G2, _G2_DIAGRAM), _read_diagram),
    "element": (
        element_to_json(
            _G2_ALGEBRA.generator((1, 0)) * _G2_ALGEBRA.generator((0, 1)) * Fraction(3, 2)
            + _G2_ALGEBRA.generator((1, 1))
        ),
        lambda doc: element_from_json(doc, G2.omega),
    ),
    "group": (
        group_to_json(_G2_DIAGRAM.walls[2].element),
        lambda doc: group_from_json(doc, G2.omega),
    ),
    # the document is the parsed key; a string put in its place is read raw
    "key": (
        json.loads(key_to_str(_A2_GRAPH.root)),
        lambda doc: key_from_str(doc if isinstance(doc, str) else json.dumps(doc)),
    ),
}

DELETE = "<delete>"
# values a mutation writes: wrong types, out-of-range integers, bad
# fractions, deep nesting, and shapes borrowed from other fields
VALUES = [
    DELETE, None, True, 0, 1, -3, 4, 2**70, 1.5, "", "x", "1/0", "0/0", "-1/2",
    "[" * 100000, [], {}, [0], [[0, 1], [-1, 0]], [[1, 0]], [-1, 1], {"level": 1},
]


def _mutate(doc, path, value):
    """Write ``value`` at ``path``, or delete the entry there.

    Each step of the path names a key or index; an int step past the end of
    a container wraps around, and the walk stops early at a leaf.
    """
    holder = [copy.deepcopy(doc)]
    parent, step = holder, 0
    for want in path:
        node = parent[step]
        if not isinstance(node, (dict, list)) or not node:
            break
        steps = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, step = node, want if isinstance(want, str) else steps[want % len(steps)]
    if value == DELETE and parent is not holder:
        del parent[step]
    else:
        parent[step] = copy.deepcopy(value)
    return holder[0]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    reader=st.sampled_from(sorted(READERS)),
    mutations=st.lists(
        st.tuples(st.lists(st.integers(0, 40), max_size=6), st.sampled_from(VALUES)),
        max_size=3,
    ),
)
@example(reader="element", mutations=[(("terms", 0, "coeff"), "1/0")])
@example(reader="diagram", mutations=[(("walls", 1, "element", "terms", 1, "coeff"), "1/0")])
@example(reader="diagram", mutations=[(("level",), -3)])
@example(reader="diagram", mutations=[(("level",), 4)])
@example(reader="key", mutations=[((), "[" * 100000)])
def test_readers_fail_only_with_greenfan_errors(reader, mutations):
    doc, read = READERS[reader]
    for path, value in mutations:
        doc = _mutate(doc, path, value)
    try:
        read(doc)
    except GreenfanError:
        pass
