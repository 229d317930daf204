import json
import random
import re
from fractions import Fraction
from operator import mul

import pytest

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
    is_green,
    key_from_str,
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

    def test_explicit_symmetrizer_is_respected(self):
        fd = validate_fixed_data([[0, 1], [-2, 0]], [1, 2], d=[4, 2])
        assert fd.d == (4, 2)

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
        with pytest.raises(NotSkewSymmetrizable):
            validate_fixed_data([[0, 1], [-2, 0]], [1, 2], d=[1, 1])


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
        # only the finite types close; every other case exercises a budget
        finite = name.startswith(("FZ-", "loop-"))
        assert oracle.status == ("complete" if finite else "truncated")

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
            root=root,
            vertices={k: graph.vertices[k] for k in (root, a, b)},
            edges=((root, a, 0), (a, b, 0), (b, a, 1)),
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

    def test_accepts_int_subclass(self):
        class Tagged(int):
            pass

        m = as_int_matrix([[Tagged(0), 1], [-1, 0]])
        assert m == ((0, 1), (-1, 0))

    def test_names_the_bad_entry(self):
        with pytest.raises(ValueError, match="1.5"):
            as_int_matrix([[0, 1], [1.5, 0]])


class TestSerialization:
    def test_graph_json_round_trip(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            doc = graph_to_json(graph, topological_order=certify_acyclic(graph))
            back = graph_from_json(doc)
            assert back.root == graph.root
            assert back.status == graph.status
            assert back.edges == graph.edges
            assert list(back.vertices) == list(graph.vertices)
            for key in graph.vertices:
                assert back.vertices[key].same_matrices(graph.vertices[key])

    @pytest.mark.parametrize(
        "field,value",
        [
            ("depth_reached", "x"),
            ("depth_reached", 1.5),
            ("depth_reached", True),
            ("path", [1.5]),
            ("path", ["1"]),
            ("path", [True]),
            ("key", 1.5),
            ("key", True),
            ("root-edge", None),
            ("B", [[0]]),
        ],
        ids=[
            "depth-string", "depth-fraction", "depth-bool", "path-fraction", "path-string",
            "path-bool", "key-fraction", "key-bool", "edge-into-root", "seed-sizes-differ",
        ],
    )
    def test_malformed_document_is_bad_input(self, a2, field, value):
        doc = graph_to_json(enumerate_graph(a2))
        first = doc["edges"][0]
        if field == "depth_reached":
            doc[field] = value
        elif field in ("path", "B"):
            doc["vertices"][first["target"]][field] = value
        elif field == "key":
            # the root's key with one entry replaced; int() maps it back onto the root
            first["source"] = first["source"].replace('"g":[[0,1]', '"g":[[0,%s]' % (
                json.dumps(value)
            ))
        else:
            first["source"], first["target"] = first["target"], first["source"]
        with pytest.raises(BadInput):
            graph_from_json(json.loads(json.dumps(doc)))

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
