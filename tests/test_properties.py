"""Property tests, run with a fixed derandomized example set."""

import contextlib
import copy
import io
import itertools
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenfan import (
    GreenfanError,
    PbwAlgebra,
    ScatteringDiagram,
    SeedKey,
    Wall,
    cli,
    complete_rank2,
    diagram_from_json,
    diagram_to_json,
    element_from_json,
    element_to_json,
    enumerate_graph,
    exchange,
    graph_from_json,
    graph_to_json,
    group_from_json,
    key_to_str,
    validate_fixed_data,
    verify_loop_consistency,
)
from greenfan.linalg import primitive

from support import (
    LOOP_PATTERNS,
    d4_cycle_graph_doc,
    full_mutation_enumerate_graph,
    key_from_str,
    per_cycle_loop_consistency,
)


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


@st.composite
def enumeration_budgets(draw):
    """A pattern and a budget: a reoriented finite type, a drawn rank-3
    ``diag(delta) * S`` with S skew (wild ones among them) at depth <= 5, or
    rank 1; a vertex cutoff on half of the draws."""
    family = draw(st.sampled_from(["reoriented", "rank-3", "rank-1"]))
    if family == "reoriented":
        fd, depth = draw(reoriented_patterns()), draw(st.integers(0, 12))
    elif family == "rank-3":
        delta = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
        s01, s02, s12 = (draw(st.integers(-3, 3)) for _ in range(3))
        s = [[0, s01, s02], [-s01, 0, s12], [-s02, -s12, 0]]
        b = [[delta[i] * s[i][j] for j in range(3)] for i in range(3)]
        fd, depth = validate_fixed_data(b, delta), draw(st.integers(0, 5))
    else:
        fd, depth = validate_fixed_data([[0]], [draw(st.integers(1, 3))]), draw(st.integers(0, 3))
    budget = {"max_depth": depth}
    if draw(st.booleans()):
        budget["max_vertices"] = draw(st.integers(1, 60))
    return fd, budget


@settings(derandomize=True, max_examples=80, deadline=None)
@given(case=enumeration_budgets())
@example(case=(validate_fixed_data([[0]], [2]), {"max_depth": 3}))  # rank 1, complete
def test_enumeration_matches_full_mutation_oracle(case):
    """New vertices are built from the edge that found them, not by
    ``mutate_seed``; the oracle mutates and keys every neighbour in full."""
    fd, budget = case
    graph = enumerate_graph(fd, **budget)
    oracle = full_mutation_enumerate_graph(fd, **budget)
    assert list(graph.vertices) == list(oracle.vertices)
    for seed, expected in zip(graph.vertices.values(), oracle.vertices.values()):
        assert seed.same_matrices(expected) and seed.path == expected.path
    assert graph.arcs == oracle.arcs
    assert (graph.status, graph.depth_reached) == (oracle.status, oracle.depth_reached)


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
            _G2_ALGEBRA.lie_element({(1, 0): 1})
            * _G2_ALGEBRA.lie_element({(0, 1): 1})
            * Fraction(3, 2)
            + _G2_ALGEBRA.lie_element({(1, 1): 1})
        ),
        lambda doc: element_from_json(doc, G2.omega),
    ),
    "group": (
        element_to_json(_G2_DIAGRAM.walls[2].element.carrier),
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


# ---------------------------------------------------------------------------
# the diagram writer: a wall it writes reads back, and it refuses every other


_RANK2 = [
    validate_fixed_data(b, delta)
    for b, delta in [
        ([[0, 1], [-1, 0]], [1, 1]),
        ([[0, 1], [-2, 0]], [1, 2]),
        ([[0, 1], [-3, 0]], [1, 3]),
        ([[0, 2], [-2, 0]], [1, 1]),
    ]
]


def _one_ray_wall(fd, level, normal, rays, letter, coeffs):
    """A one-wall diagram whose log is ``sum_j coeffs[j - 1] X_(j * letter)``."""
    alg = PbwAlgebra(fd.omega, level)
    log = {tuple(j * x for x in letter): c for j, c in enumerate(coeffs, 1) if c}
    wall = Wall(normal=normal, rays=rays, element=alg.exp(alg.lie_element(log)))
    return fd, ScatteringDiagram(level=level, walls=(wall,))


@st.composite
def one_ray_walls(draw):
    """A hand-built wall with its log on one ray, and a normal and rays drawn
    near the valid ones, so that some of them break ``validate_wall``."""
    fd = draw(st.sampled_from(_RANK2))
    level = draw(st.integers(1, 5))
    letters = [v for v in itertools.product(range(3), repeat=2) if 0 < sum(v) <= level]
    letter = draw(st.sampled_from(letters))
    entry = st.integers(-1, 3)
    normal = draw(st.one_of(st.just(primitive(letter)), st.tuples(entry, entry)))
    on_wall = (fd.delta[0] * normal[1], -fd.delta[1] * normal[0])
    ray = st.one_of(st.just(on_wall), st.tuples(entry, entry))
    rays = tuple(draw(st.lists(ray, min_size=1, max_size=2)))
    coeff = st.sampled_from([0, 1, -2, Fraction(1, 2)])
    coeffs = draw(st.lists(coeff, min_size=1, max_size=level // sum(letter)))
    return _one_ray_wall(fd, level, normal, rays, letter, coeffs)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=one_ray_walls())
@example(case=_one_ray_wall(G2, 3, (1, 1), ((1, -3),), (1, 1), [1]))  # written
@example(case=_one_ray_wall(G2, 3, (1, 1), ((1, 0),), (1, 1), [1]))  # ray off the wall
@example(case=_one_ray_wall(G2, 3, (1, 1), (), (1, 1), [1]))  # no ray
def test_diagram_writer_refuses_what_the_reader_refuses(case):
    fd, diagram = case
    try:
        doc = diagram_to_json(fd, diagram)
    except ValueError:
        return
    assert diagram_from_json(json.loads(json.dumps(doc)), fd) == diagram


@st.composite
def seed_keys(draw):
    """Keys of one rank from 1 to 8 whose g-columns and B rows come from a
    small pool of vectors, so that parts repeat within and across keys."""
    r = draw(st.integers(1, 8))
    entry = st.one_of(st.integers(-3, 3), st.integers(-10**30, 10**30))
    pool = draw(st.lists(st.tuples(*[entry] * r), min_size=1, max_size=6))
    vectors = st.lists(st.sampled_from(pool), min_size=r, max_size=r).map(tuple)
    return draw(st.lists(st.builds(SeedKey, vectors, vectors), min_size=1, max_size=5))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(keys=seed_keys())
def test_namer_writes_key_to_str(keys):
    namer = exchange._KeyNamer()  # one memo shared by all the keys
    for key in keys:
        want = json.dumps({"g": key.g_columns, "B": key.b}, separators=(",", ":"))
        assert namer(key) == key_to_str(key) == want
