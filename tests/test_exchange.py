import json
import random
import re
from operator import mul

import pytest

from greenfan import cli, exchange
from greenfan import (
    BadDecomposition,
    BadInput,
    CycleFound,
    NotSkewSymmetrizable,
    OrientedExchangeGraph,
    canonical_key,
    certify_acyclic,
    enumerate_graph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    key_to_str,
    mutate_seed,
    root_seed,
    validate_fixed_data,
)
from greenfan.linalg import as_int_matrix

from support import (
    FINITE_TYPES,
    LOOP_PATTERNS,
    d4_cycle_graph_doc,
    dense_mutate_seed,
    det,
    full_mutation_enumerate_graph,
    is_green,
    key_from_str,
    matmul,
    relabel_seed,
    transpose,
)

MARKOV = ([[0, 2, -2], [-2, 0, 2], [2, -2, 0]], [1, 1, 1])
ACYCLIC_222 = ([[0, 2, 2], [-2, 0, 2], [-2, -2, 0]], [1, 1, 1])

# name -> (B, delta, enumerate_graph keyword arguments) for the oracle comparison
ORACLE_CASES = {
    **{
        "FZ-" + name: (b, delta, {"max_depth": 64})
        for name, (b, delta, _) in FINITE_TYPES.items()
    },
    **{
        "loop-" + name: (b, delta, {"max_depth": 64})
        for name, (b, delta) in LOOP_PATTERNS.items()
    },
    "Markov": MARKOV + ({"max_depth": 5},),
    "acyclic-222": ACYCLIC_222 + ({"max_depth": 5},),
    "Kronecker-22": ([[0, 2], [-2, 0]], [1, 1], {}),
    "Kronecker-33": ([[0, 3], [-3, 0]], [1, 1], {}),
    "E6-50-vertices": FINITE_TYPES["E6"][:2] + ({"max_vertices": 50},),
    "D5-depth-3": FINITE_TYPES["D5"][:2] + ({"max_depth": 3},),
    # every depth and vertex cutoff of small patterns: an arc whose far end
    # sits at the cutoff, and a first visit that finds the vertex budget full
    **{
        "sweep-%s-%s-%d" % (name, budget, n): (b, delta, {budget: n})
        for name, (b, delta) in {
            "A3": LOOP_PATTERNS["A3"],
            "D4": LOOP_PATTERNS["D4"],
            "Kronecker-22": ([[0, 2], [-2, 0]], [1, 1]),
            "Markov": MARKOV,
            "acyclic-222": ACYCLIC_222,
            "rank-1": ([[0]], [1]),
        }.items()
        for budget, values in (("max_depth", range(7)), ("max_vertices", (1, 2, 5, 17)))
        for n in values
    },
}


def _duality_holds(fd, seed):
    """G^T * D * C = D for the skew-symmetrizer D of the pattern."""
    d_c_cols = list(zip(*([d * x for x in row] for d, row in zip(fd.d, seed.c))))
    product = [[sum(map(mul, g_col, col)) for col in d_c_cols] for g_col in zip(*seed.g)]
    return product == [[d if i == j else 0 for j in range(fd.rank)] for i, d in enumerate(fd.d)]


class TestValidation:
    def test_accepts_skew_symmetric(self, a2):
        assert a2.rank == 2
        assert a2.d == (1, 1)
        assert a2.omega == ((0, 1), (-1, 0))

    def test_minimal_symmetrizer_b2(self, b2):
        # D*B = [[0,2],[-2,0]] is skew with the minimal D
        assert b2.d == (2, 1)

    def test_rejects_symmetric_matrix(self):
        with pytest.raises(NotSkewSymmetrizable):
            validate_fixed_data([[0, 1], [1, 0]], [1, 1])

    def test_rejects_mismatched_delta(self):
        # B is skew-symmetrizable, but diag(delta)^-1 B is not skew
        with pytest.raises(BadDecomposition):
            validate_fixed_data([[0, 2], [-1, 0]], [1, 1])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(NotSkewSymmetrizable):
            validate_fixed_data([[1, 1], [-1, 0]], [1, 1])

    def test_rejects_bad_symmetrizer(self):
        # B determines D, so a pattern document that states one is refused
        with pytest.raises(BadInput, match='"D"'):
            cli._fixed_data({"B": [[0, 1], [-2, 0]], "delta": [1, 2], "D": [1, 1]})


class TestMutation:
    def test_root_is_identity_data(self, a2):
        seed = root_seed(a2)
        assert seed.c == ((1, 0), (0, 1))
        assert seed.g == ((1, 0), (0, 1))
        assert seed.b == ((0, 1), (-1, 0))

    def test_single_step_matrices(self, a2):
        seed = mutate_seed(a2, root_seed(a2), 0)
        assert seed.b == ((0, -1), (1, 0))
        assert seed.c == ((-1, 1), (0, 1))
        assert seed.g == ((-1, 0), (1, 1))

    def test_first_step_c_vector_turns_red(self, a2):
        seed = mutate_seed(a2, root_seed(a2), 0)
        assert seed.c_column(0) == (-1, 0)
        assert not is_green(seed, 0)
        assert is_green(seed, 1)

    def test_involution(self, finite_fixtures, kronecker):
        for fd in list(finite_fixtures.values()) + [kronecker]:
            seed = root_seed(fd)
            for _ in range(3):
                for k in range(fd.rank):
                    back = mutate_seed(fd, mutate_seed(fd, seed, k), k)
                    assert back.same_matrices(seed)
                seed = mutate_seed(fd, seed, 0)

    @pytest.mark.parametrize(
        "name", ["B3", "C3", "F4", "D5", "E6", "Markov", "acyclic-222"]
    )
    def test_sparse_update_matches_dense_oracle(self, name):
        # every stored seed in every direction; the infinite types truncated
        if name in FINITE_TYPES:
            b, delta, _ = FINITE_TYPES[name]
            max_depth = 64
        else:
            b, delta = MARKOV if name == "Markov" else ACYCLIC_222
            max_depth = 4
        fd = validate_fixed_data(b, delta)
        graph = enumerate_graph(fd, max_depth=max_depth)
        assert len(graph.vertices) >= 20
        for seed in graph.vertices.values():
            for k in range(fd.rank):
                fast = mutate_seed(fd, seed, k)
                assert fast == dense_mutate_seed(fd, seed, k)
                assert mutate_seed(fd, fast, k).same_matrices(seed)

    def test_direction_out_of_range(self, a2):
        with pytest.raises(IndexError):
            mutate_seed(a2, root_seed(a2), 2)

    def test_b2_duality_after_mutation(self, b2):
        seed = mutate_seed(b2, root_seed(b2), 0)
        assert seed.g == ((-1, 0), (2, 1))
        d = [[2, 0], [0, 1]]
        gt_d_c = matmul(matmul(transpose(seed.g), d), seed.c)
        assert gt_d_c == ((2, 0), (0, 1))


class TestCanonicalKey:
    def test_key_ignores_direction_labels(self, a3):
        rng = random.Random(20260816)
        seeds = [root_seed(a3)]
        for _ in range(10):
            seeds.append(mutate_seed(a3, seeds[-1], rng.randrange(3)))
        perms = [tuple(rng.sample(range(3), 3)) for _ in range(50)]
        for seed in seeds:
            key = canonical_key(seed)
            for perm in perms:
                assert canonical_key(relabel_seed(seed, perm)) == key

    def test_key_separates_distinct_seeds(self, a2):
        graph = enumerate_graph(a2)
        assert len({key for key in graph.vertices}) == 5

    def test_key_string_round_trip(self, a3):
        graph = enumerate_graph(a3)
        for key in graph.vertices:
            assert key_from_str(key_to_str(key)) == key


class TestEnumeration:
    @pytest.mark.parametrize(
        "name,expected",
        [("A2", 5), ("B2", 6), ("G2", 8), ("A3", 14)],
    )
    def test_finite_type_counts(self, finite_fixtures, name, expected):
        graph = enumerate_graph(finite_fixtures[name])
        assert graph.status == "complete"
        assert len(graph.vertices) == expected

    @pytest.mark.parametrize("name", list(FINITE_TYPES))
    def test_fomin_zelevinsky_table(self, name):
        b, delta, expected = FINITE_TYPES[name]
        fd = validate_fixed_data(b, delta)
        graph = enumerate_graph(fd, max_depth=64)
        assert graph.status == "complete"
        assert len(graph.vertices) == expected
        assert len(certify_acyclic(graph)) == expected
        assert all(_duality_holds(fd, seed) for seed in graph.vertices.values())

    def test_budget_truncation(self, kronecker):
        graph = enumerate_graph(kronecker, max_depth=6)
        assert graph.status == "truncated"
        assert len(graph.vertices) == 13

    def test_vertex_budget_truncation(self, a3):
        graph = enumerate_graph(a3, max_vertices=4)
        assert graph.status == "truncated"
        assert len(graph.vertices) == 4

    def test_rank_one(self):
        fd = validate_fixed_data([[0]], [1])
        graph = enumerate_graph(fd)
        assert graph.status == "complete"
        assert len(graph.vertices) == 2
        assert len(graph.edges) == 1
        (src, dst, k) = graph.edges[0]
        assert src == graph.root and k == 0

    def test_edges_are_green_and_deduplicated(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            assert len(set(graph.edges)) == len(graph.edges)
            for src, dst, k in graph.edges:
                seed = graph.vertices[src]
                assert is_green(seed, k)
                assert canonical_key(mutate_seed(fd, seed, k)) == dst

    @pytest.mark.parametrize("name", list(ORACLE_CASES))
    def test_matches_full_mutation_oracle(self, name):
        b, delta, budget = ORACLE_CASES[name]
        fd = validate_fixed_data(b, delta)
        graph = enumerate_graph(fd, **budget)
        oracle = full_mutation_enumerate_graph(fd, **budget)
        assert list(graph.vertices) == list(oracle.vertices)
        for key, seed in oracle.vertices.items():
            assert graph.vertices[key].same_matrices(seed)
            assert graph.vertices[key].path == seed.path
        assert graph.edges == oracle.edges
        assert graph.root == oracle.root
        assert graph.status == oracle.status
        assert graph.depth_reached == oracle.depth_reached
        # only the finite types close; every other named case exercises a
        # budget, and the sweep runs on both sides of the cutoff
        if not name.startswith("sweep-"):
            finite = name.startswith(("FZ-", "loop-"))
            assert oracle.status == ("complete" if finite else "truncated")

    def test_budget_sweep_cuts_off_deferred_arcs(self):
        # some depth cutoff of the sweep leaves out an edge with an expanded
        # end, red there, that one more level records from its far end
        dropped = []
        for name, (b, delta, budget) in ORACLE_CASES.items():
            if not name.startswith("sweep-") or "max_depth" not in budget:
                continue
            fd = validate_fixed_data(b, delta)
            n = budget["max_depth"]
            graph, deeper = enumerate_graph(fd, max_depth=n), enumerate_graph(fd, max_depth=n + 1)
            seeds, found = graph.vertices, set(graph.edges)
            dropped += [
                name for src, dst, k in deeper.edges
                if src in seeds and dst in seeds and (src, dst, k) not in found
                and min(len(seeds[src].path), len(seeds[dst].path)) < n
            ]
        assert dropped

    @pytest.mark.parametrize(
        "budget",
        [
            {"max_depth": 2.5},
            {"max_depth": "3"},
            {"max_depth": True},
            {"max_depth": -1},
            {"max_vertices": 5.5},
            {"max_vertices": None},
            {"max_vertices": False},
            {"max_vertices": 0},
        ],
        ids=lambda budget: "%s=%r" % next(iter(budget.items())),
    )
    def test_bad_budget_is_value_error(self, a3, budget):
        (name, _), = budget.items()
        with pytest.raises(ValueError, match="%s must be an integer >= " % name):
            enumerate_graph(a3, **budget)

    @pytest.mark.parametrize("name,expected", [("D4", 149), ("E6", 3331)])
    def test_one_g_column_per_edge_and_new_vertex(self, monkeypatch, name, expected):
        # resolving each non-tree edge from both ends would make E6 compute 4998
        calls = []
        mutated_g_column = exchange._mutated_g_column

        def counted(*args):
            calls.append(args)
            return mutated_g_column(*args)

        monkeypatch.setattr(exchange, "_mutated_g_column", counted)
        b, delta, _ = FINITE_TYPES[name]
        graph = enumerate_graph(validate_fixed_data(b, delta), max_depth=64)
        assert graph.status == "complete"
        assert len(calls) == len(graph.arcs) + len(graph.vertices) - 1 == expected

    def test_a3_edge_count_matches_flip_count(self, a3):
        # 14 vertices of degree 3 in the unoriented exchange graph: 21 edges
        graph = enumerate_graph(a3)
        assert len(graph.edges) == 21


class TestStructuralInvariants:
    def test_unimodularity_duality_sign_coherence(self, finite_fixtures, kronecker):
        cases = list(finite_fixtures.values()) + [kronecker]
        for fd in cases:
            graph = enumerate_graph(fd, max_depth=5)
            for seed in graph.vertices.values():
                assert det(seed.c) in (1, -1)
                assert det(seed.g) in (1, -1)
                assert _duality_holds(fd, seed)
                for k in range(fd.rank):
                    col = seed.c_column(k)
                    assert any(col)
                    assert all(x >= 0 for x in col) or all(x <= 0 for x in col)

    def test_complete_graph_has_unique_source(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            in_deg = {key: 0 for key in graph.vertices}
            out_deg = {key: 0 for key in graph.vertices}
            for src, dst, _ in graph.edges:
                out_deg[src] += 1
                in_deg[dst] += 1
            sources = [key for key, deg in in_deg.items() if deg == 0]
            assert sources == [graph.root]
            assert out_deg[graph.root] == fd.rank


class TestAcyclicityCertificate:
    def test_topological_order_root_first(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            order = certify_acyclic(graph)
            assert len(order) == len(graph.vertices)
            assert order[0] == graph.root
            position = {key: i for i, key in enumerate(order)}
            for src, dst, _ in graph.edges:
                assert position[src] < position[dst]

    def test_trivial_graph(self, a2):
        graph = enumerate_graph(a2, max_depth=0)
        assert len(graph.vertices) == 1
        assert certify_acyclic(graph) == (graph.root,)

    def test_artificial_cycle_is_caught(self, a2):
        graph = enumerate_graph(a2)
        keys = list(graph.vertices)
        root, a, b = keys[0], keys[1], keys[2]
        rigged = OrientedExchangeGraph(
            vertices={k: graph.vertices[k] for k in (root, a, b)},
            arcs=((0, 1, 0), (1, 2, 0), (2, 1, 1)),
            status="complete",
            depth_reached=2,
        )
        with pytest.raises(CycleFound) as info:
            certify_acyclic(rigged)
        assert set(info.value.cycle) == {a, b}

    def test_cycle_walks_back_from_first_stuck_vertex(self):
        doc = d4_cycle_graph_doc()
        with pytest.raises(CycleFound) as info:
            certify_acyclic(graph_from_json(doc))
        # vertex 5 is the first stuck one; walking back from it closes 8 -> 5
        added = doc["edges"][-1]
        assert [key_to_str(k) for k in info.value.cycle] == [added["source"], added["target"]]


class TestIntMatrix:
    @pytest.mark.parametrize(
        "rows",
        [[[0, True], [1, 0]], [[0, 1.0], [1, 0]], [[0, "1"], [1, 0]], [[0, 1], [1]]],
        ids=["bool", "float", "string", "not-square"],
    )
    def test_rejects(self, rows):
        with pytest.raises(ValueError):
            as_int_matrix(rows)

    def test_rejects_object(self):
        with pytest.raises(TypeError, match="must be a list, got dict"):
            as_int_matrix({})

    def test_accepts_int_subclass(self):
        class Tagged(int):
            pass

        m = as_int_matrix([[Tagged(0), 1], [-1, 0]])
        assert m == ((0, 1), (-1, 0))

    def test_names_the_bad_entry(self):
        with pytest.raises(ValueError, match="1.5"):
            as_int_matrix([[0, 1], [1.5, 0]])


class TestSerialization:
    def test_graph_json_round_trip(self):
        truncated = ["Kronecker-22", "E6-50-vertices"]
        for name in ["loop-" + name for name in LOOP_PATTERNS] + truncated:
            b, delta, budget = ORACLE_CASES[name]
            graph = enumerate_graph(validate_fixed_data(b, delta), **budget)
            doc = graph_to_json(graph, topological_order=certify_acyclic(graph))
            back = graph_from_json(json.loads(json.dumps(doc)))
            assert back == graph, name  # vertices, arcs, status and depth_reached
            assert list(back.vertices) == list(graph.vertices), name

    @pytest.mark.parametrize(
        "field,value",
        [
            ("depth_reached", "x"),
            ("depth_reached", 1.5),
            ("depth_reached", True),
            ("depth_reached", -7),
            ("rank", 99),
            ("rank", 2.0),
            ("path", [1.5]),
            ("path", ["1"]),
            ("path", [True]),
            ("key", 1.5),
            ("key", True),
            ("root-edge", None),
            ("B", [[0]]),
            # tuple() of a JSON object yields its keys: {} must not read as empty
            ("path", {}),
            ("edges", {}),
            ("repeated-edge", None),
        ],
        ids=[
            "depth-string", "depth-fraction", "depth-bool", "depth-negative", "rank-wrong",
            "rank-fraction", "path-fraction", "path-string",
            "path-bool", "key-fraction", "key-bool", "edge-into-root", "seed-sizes-differ",
            "path-object", "edges-object", "repeated-edge",
        ],
    )
    def test_malformed_document_is_bad_input(self, a2, field, value):
        doc = graph_to_json(enumerate_graph(a2))
        first = doc["edges"][0]
        if field in ("depth_reached", "rank", "edges"):
            doc[field] = value
        elif field in ("path", "B"):
            doc["vertices"][first["target"]][field] = value
        elif field == "key":
            # the root's key with one entry replaced; int() maps it back onto the root
            first["source"] = first["source"].replace('"g":[[0,1]', '"g":[[0,%s]' % (
                json.dumps(value)
            ))
        elif field == "repeated-edge":
            doc["edges"].append(dict(first))
        else:
            first["source"], first["target"] = first["target"], first["source"]
        with pytest.raises(BadInput, match="is repeated" if field == "repeated-edge" else None):
            graph_from_json(json.loads(json.dumps(doc)))

    def test_object_for_a_key_matrix_is_bad_input(self):
        with pytest.raises(BadInput, match="matrix must be a list, got dict"):
            key_from_str('{"g": {}, "B": {}}')

    def test_deeply_nested_key_is_bad_input(self):
        with pytest.raises(BadInput, match="malformed seed key"):
            key_from_str("[" * 100000)

    def test_swapped_seed_records_are_bad_input(self):
        b, delta, _ = FINITE_TYPES["E6"]
        doc = graph_to_json(enumerate_graph(validate_fixed_data(b, delta)))
        seeds = doc["vertices"]
        first, second = list(seeds)[100], list(seeds)[700]
        seeds[first], seeds[second] = seeds[second], seeds[first]
        with pytest.raises(BadInput, match="vertex %s holds" % re.escape(first)):
            graph_from_json(json.loads(json.dumps(doc)))

    def test_edited_g_entry_is_bad_input(self, a3):
        doc = graph_to_json(enumerate_graph(a3))
        name = list(doc["vertices"])[5]
        doc["vertices"][name]["G"][0][0] += 7
        with pytest.raises(BadInput, match="vertex %s holds" % re.escape(name)):
            graph_from_json(json.loads(json.dumps(doc)))

    def test_dot_output_shape(self, a2):
        graph = enumerate_graph(a2)
        dot = graph_to_dot(graph)
        assert dot.startswith("digraph")
        assert dot.count("->") == len(graph.edges)
