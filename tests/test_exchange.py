import itertools
import json
import random
import re
import sys
from operator import mul

import pytest

from greenfan import cli, exchange
from greenfan import (
    BadDecomposition,
    BadInput,
    CycleFound,
    NotSkewSymmetrizable,
    OrientedExchangeGraph,
    SignIncoherent,
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
    brute_force_symmetrizer,
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

    @pytest.mark.parametrize(
        "rank, above, below, diagonal",
        [
            (1, (), (), range(-3, 4)),
            (2, range(-3, 4), range(-3, 4), range(-3, 4)),
            (3, range(-1, 2), range(-3, 4), (0,)),
            (3, (1,), (-1, 0), range(-3, 4)),
        ],
        ids=["rank-1", "rank-2", "rank-3-zero-diagonal", "rank-3-diagonal"],
    )
    def test_minimal_symmetrizer_matches_brute_force(self, rank, above, below, diagonal):
        """Every B of the given rank with entries above, below and on its
        diagonal in the given ranges: same-sign pairs, a zero over a nonzero
        entry in either order, nonzero diagonals and inconsistent triangles."""
        cells = [(i, j) for i in range(rank) for j in range(rank)]
        ranges = [diagonal if i == j else above if i < j else below for i, j in cells]
        for entries in itertools.product(*ranges):
            b = [list(entries[i * rank:(i + 1) * rank]) for i in range(rank)]
            assert exchange._minimal_skew_symmetrizer(b) == brute_force_symmetrizer(b), b

    def test_rejects_bad_symmetrizer(self):
        # B determines D, so a pattern document that states one is refused
        with pytest.raises(BadInput, match='"D"'):
            cli._fixed_data({"B": [[0, 1], [-2, 0]], "delta": [1, 2], "D": [1, 1]})


class TestMutation:
    @pytest.mark.parametrize("c", [((1, 0), (-1, 1)), ((0, 0), (0, 1))], ids=["mixed", "zero"])
    def test_sign_incoherent_c_vector_is_refused(self, a2, c):
        with pytest.raises(SignIncoherent):
            mutate_seed(a2, root_seed(a2)._replace(c=c), 0)

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

    # True once mutated direction 1 and wrote True into the path; 1.0 raised
    # a bare TypeError from tuple indexing
    @pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
    def test_direction_must_be_an_int(self, a2, k):
        with pytest.raises(IndexError, match="direction %r out of range" % (k,)):
            mutate_seed(a2, root_seed(a2), k)

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


def json_key(key):
    """The definition of a key string: the compact JSON of ``{"g", "B"}``."""
    return json.dumps({"g": key.g_columns, "B": key.b}, separators=(",", ":"))


# rank-4 wild: a path of double edges
WILD_4 = ([[0, 2, 0, 0], [-2, 0, 2, 0], [0, -2, 0, 2], [0, 0, -2, 0]], [1, 1, 1, 1])

# name -> (B, delta, enumerate_graph keyword arguments) of the graphs named by one namer
NAMED_GRAPHS = {
    **{
        "FZ-" + name: (b, delta, {"max_depth": 64})
        for name, (b, delta, _) in FINITE_TYPES.items()
        if name != "E7"
    },
    **{
        "loop-" + name: (b, delta, {"max_depth": 64})
        for name, (b, delta) in LOOP_PATTERNS.items()
    },
    "Kronecker-22": ([[0, 2], [-2, 0]], [1, 1], {}),
    "Markov": MARKOV + ({"max_depth": 5},),
    "wild-4": WILD_4 + ({"max_depth": 4},),
    "rank-1": ([[0]], [1], {}),
}


class TestKeyNames:
    """``exchange._KeyNamer`` names a document's keys from shared parts."""

    @pytest.mark.parametrize("name", list(NAMED_GRAPHS))
    def test_namer_writes_key_to_str(self, name):
        b, delta, budget = NAMED_GRAPHS[name]
        graph = enumerate_graph(validate_fixed_data(b, delta), **budget)
        namer = exchange._KeyNamer()  # one memo for the whole graph, as a document has
        for key in graph.vertices:
            assert namer(key) == key_to_str(key) == json_key(key)
        doc = graph_to_json(graph, certify_acyclic(graph))
        assert list(doc["vertices"]) == [json_key(k) for k in graph.vertices]

    def test_overlong_int_raises_as_key_to_str_does(self):
        """``main`` maps this ValueError to ``bad_input``; see the
        ``overlong-result-*`` cases of ``tests/test_cli.py``."""
        limit = sys.get_int_max_str_digits()
        if not limit:
            pytest.skip("the int-string limit is off")
        big = int("7" * (limit * 2 // 3))  # its square passes the limit
        graph = enumerate_graph(validate_fixed_data([[0, big], [-1, 0]], [big, 1]), max_depth=4)
        want = None
        for key in graph.vertices:  # the first key that cannot be written
            try:
                key_to_str(key)
            except ValueError as exc:
                want = exc
                break
        assert want is not None and "integer string conversion" in str(want)
        with pytest.raises(ValueError) as oracle:
            json_key(key)
        with pytest.raises(ValueError) as got:
            graph_to_json(graph)
        assert str(got.value) == str(want) == str(oracle.value)

    def test_each_part_is_encoded_once(self, monkeypatch):
        """Less work: at most one encode per distinct g-column and B row."""
        b, delta, _ = FINITE_TYPES["E6"]
        graph = enumerate_graph(validate_fixed_data(b, delta))
        g_columns = {col for key in graph.vertices for col in key.g_columns}
        b_rows = {row for key in graph.vertices for row in key.b}
        assert len(g_columns) == 42  # 36 positive roots and 6 negative simple roots
        doc = json.loads(json.dumps(graph_to_json(graph, certify_acyclic(graph))))
        calls = []
        encode = exchange._KEY_ENCODER.encode
        monkeypatch.setattr(exchange._KEY_ENCODER, "encode", lambda o: calls.append(o) or encode(o))
        graph_to_json(graph, certify_acyclic(graph))
        assert 0 < len(calls) <= len(g_columns) + len(b_rows)
        calls.clear()
        assert graph_from_json(doc) == graph
        assert 0 < len(calls) <= len(g_columns) + len(b_rows)


def _seen_row(doc, matrix):
    """The first (name, row index) of a ``matrix`` row holding a 1 whose value
    an earlier record of ``doc`` already held."""
    seen = set()
    for name, record in doc["vertices"].items():
        for i, row in enumerate(record[matrix]):
            if 1 in row and tuple(row) in seen:
                return name, i
        seen.update(tuple(row) for m in ("B", "C", "G") for row in record[m])
    raise AssertionError("no %s row repeats an earlier one" % matrix)


class TestReaderSoundness:
    """The reader's memo of key parts must not excuse an entry or a name."""

    @pytest.mark.parametrize("matrix", ["B", "C", "G"])
    @pytest.mark.parametrize("value", [True, 1.0], ids=["true", "float"])
    def test_value_equal_row_is_still_type_checked(self, a3, matrix, value):
        doc = json.loads(json.dumps(graph_to_json(enumerate_graph(a3))))
        name, i = _seen_row(doc, matrix)
        row = doc["vertices"][name][matrix][i]
        row[row.index(1)] = value
        text = json.dumps(doc)
        assert json.dumps(value) in text
        with pytest.raises(BadInput, match="must be integers, got %r" % value):
            graph_from_json(json.loads(text))

    @pytest.mark.parametrize(
        "render",
        [
            lambda key: json.dumps({"g": key.g_columns, "B": key.b}),
            lambda key: json.dumps({"B": key.b, "g": key.g_columns}, separators=(",", ":")),
        ],
        ids=["spaced", "B-first"],
    )
    def test_misrendered_name_is_refused_after_its_parts(self, a3, render):
        graph = enumerate_graph(a3)
        keys = list(graph.vertices)
        parts = set()
        for n, key in enumerate(keys):  # the first key whose parts all came before
            mine = {*key.g_columns, *key.b}
            if n and mine <= parts:
                break
            parts |= mine
        else:
            raise AssertionError("every key has a part of its own")
        doc = graph_to_json(graph)
        old, new = key_to_str(key), render(key)
        assert old != new
        doc["vertices"] = {new if k == old else k: v for k, v in doc["vertices"].items()}
        with pytest.raises(BadInput, match="vertex %s holds the seed of %s"
                           % (re.escape(new), re.escape(old))):
            graph_from_json(json.loads(json.dumps(doc)))


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

    @pytest.mark.parametrize("name,expected", [("D4", 100), ("E6", 2499)])
    def test_one_g_column_per_edge(self, monkeypatch, name, expected):
        # resolving each non-tree edge from both ends would make E6 compute 4998;
        # a new vertex takes the column its edge computed, so it costs none more
        calls = []
        mutated_g_column = exchange._mutated_g_column

        def counted(*args):
            calls.append(args)
            return mutated_g_column(*args)

        monkeypatch.setattr(exchange, "_mutated_g_column", counted)
        b, delta, _ = FINITE_TYPES[name]
        graph = enumerate_graph(validate_fixed_data(b, delta), max_depth=64)
        assert graph.status == "complete"
        assert len(calls) == len(graph.arcs) == expected

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
            ("depth_reached", 99),
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
            ("extra-vertex", ([[0]], [1])),
            ("path", [99]),
            ("path", [-1]),
        ],
        ids=[
            "depth-string", "depth-fraction", "depth-bool", "depth-negative", "depth-forged",
            "rank-wrong",
            "rank-fraction", "path-fraction", "path-string",
            "path-bool", "key-fraction", "key-bool", "edge-into-root", "seed-sizes-differ",
            "path-object", "edges-object", "repeated-edge", "vertex-of-another-rank",
            "path-past-rank", "path-negative",
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
        elif field == "extra-vertex":
            # a rank-1 seed under its own key
            other = graph_to_json(enumerate_graph(validate_fixed_data(*value)))
            doc["vertices"][other["root"]] = other["vertices"][other["root"]]
        else:
            first["source"], first["target"] = first["target"], first["source"]
        match = {"repeated-edge": "is repeated", "extra-vertex": "does not fit rank 2"}.get(field)
        if value in ([99], [-1]):
            match = re.escape("with path %s does not fit rank 2" % value)
        with pytest.raises(BadInput, match=match):
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
