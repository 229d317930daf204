import itertools
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from greenfan import (
    BadDecomposition,
    BadInput,
    GreenfanError,
    GroupElement,
    IncompleteGraph,
    InconsistencyFound,
    InternalError,
    InvalidWalk,
    NotAllGreen,
    NotGrouplike,
    NotRankTwo,
    PbwAlgebra,
    ScatteringDiagram,
    Wall,
    canonical_key,
    certify_acyclic,
    complete_rank2,
    crossing_sequence,
    crossing_sequence_from_normals,
    diagram_from_json,
    diagram_to_json,
    diagram_to_svg,
    element_to_json,
    enumerate_graph,
    factor_dilog_power,
    fan_to_svg,
    graph_from_json,
    graph_to_json,
    minimal_degree_obstruction,
    mutate_seed,
    path_ordered_product,
    root_seed,
    validate_fixed_data,
    validate_wall,
    verify_loop_consistency,
    verify_rank2_consistency,
    walk,
)
from greenfan import cli, exchange, liegroup, linalg
from greenfan import crossings as crossings_module
from greenfan import scattering as scattering_module
from greenfan.liegroup import TorusAction, degree

import support
from support import (
    FINITE_TYPES,
    LOOP_PATTERNS,
    _crossing_table,
    _cycle_crossings,
    _fundamental_cycles,
    cluster_chamber,
    central_wall_closed_form,
    cluster_fan_diagram,
    dual_pairing,
    element_words,
    facet_cone,
    facet_wall,
    oracle_multiply,
    pbw_sweep_product,
    per_cycle_loop_consistency,
    power_series_exp,
    random_fixed_data,
    random_positive_vector,
    require_positive_wall,
    signed_log_sweep,
    wall_function,
)


def invert_edge_crossings(monkeypatch, graph, a, b):
    """Make ``_crossing_normal`` flip the sign of both crossings of edge a - b.

    Both directions flip, so the two factors stay inverse to each other and
    every loop through the edge, however it is walked, sees the same fault.
    """
    faulty = set()
    for x, y in ((a, b), (b, a)):
        (g,) = set(x.g_columns).difference(y.g_columns)
        seed = graph.vertices[x]
        faulty.add((seed.g, list(zip(*seed.g)).index(g)))
    crossing_normal = scattering_module._crossing_normal

    def inverted(seed, k):
        sign, normal = crossing_normal(seed, k)
        return (-sign if (seed.g, k) in faulty else sign), normal

    monkeypatch.setattr(scattering_module, "_crossing_normal", inverted)


def shift_exponent(monkeypatch, normal):
    """Raise the ``delta_exponent`` of one normal by 1 where the loop check
    and its oracles read it, so every crossing of that normal is faulty."""
    for module in (crossings_module, support):
        def shifted(n, delta, exponent=module.delta_exponent):
            return exponent(n, delta) + (tuple(n) == normal)

        monkeypatch.setattr(module, "delta_exponent", shifted)


RANK2_PATTERNS = {
    "A2": ([[0, 1], [-1, 0]], [1, 1]),
    "B2": ([[0, 1], [-2, 0]], [1, 2]),
    "G2": ([[0, 1], [-3, 0]], [1, 3]),
    "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
    "(3,3)": ([[0, 3], [-3, 0]], [1, 1]),
}
# one more affine type, (1,4), and two more wild ones, for the positivity oracle
MORE_RANK2_PATTERNS = {
    "(1,4)": ([[0, 1], [-4, 0]], [1, 4]),
    "(2,3)": ([[0, 2], [-3, 0]], [2, 3]),
    "(4,4)": ([[0, 4], [-4, 0]], [1, 1]),
}


# seeded random pairs (b, c) for B = [[0, b], [-c, 0]], 1 <= b, c <= 4, each with a level <= 12
_draw = random.Random(2210)
RANDOM_RANK2 = sorted(
    {(_draw.randint(1, 4), _draw.randint(1, 4), _draw.randint(1, 12)) for _ in range(16)}
)


def with_minimal_delta(b):
    """Rank-2 ``validate_fixed_data(b, delta)`` at the first delta it accepts,
    ordered by sum and then by entries."""
    for total in itertools.count(2):
        for first in range(1, total):
            try:
                return validate_fixed_data(b, [first, total - first])
            except BadDecomposition:
                pass


def step_entries(action):
    """The (n, m) step entries a torus action's tables hold."""
    return sum(len(chains) for _, chains in action.steps.values())


def scattered(diagram):
    return [w for w in diagram.walls if len(w.rays) == 1]


def kronecker_closed_form(level):
    """Every wall of the Kronecker completion (B = [[0, 2], [-2, 0]], delta
    (1, 1)) up to ``level``, as ``{normal: log}``.  The central wall (1, 1)
    is (1 - t)^-2 on t = y^(1,1), log sum_k 2/k^2 X_(k,k); every other is
    Psi[v]^1 for v = (n + 1, n) or (n, n + 1), n >= 0, log
    sum_j (-1)^(j+1)/j^2 X_(jv): the (2, 2) example of Gross-Pandharipande-
    Siebert ("The tropical vertex", arXiv:0902.0779), in their
    (1 + tx)^2, (1 + ty)^2 normalization."""
    walls = {(1, 1): {(k, k): Fraction(2, k * k) for k in range(1, level // 2 + 1)}}
    for n in range((level + 1) // 2):
        for v in ((n + 1, n), (n, n + 1)):
            walls[v] = {
                (j * v[0], j * v[1]): Fraction((-1) ** (j + 1), j * j)
                for j in range(1, level // (2 * n + 1) + 1)
            }
    return walls


def rank2_order(name, swapped):
    """The fixed data of a rank-2 pattern, indices swapped or not."""
    b, delta = {**RANK2_PATTERNS, **MORE_RANK2_PATTERNS}[name]
    if swapped:
        b, delta = [[b[1][1], b[1][0]], [b[0][1], b[0][0]]], delta[::-1]
    return validate_fixed_data(b, delta)


class TestGeometry:
    def test_dual_pairing_uses_rescaled_basis(self):
        assert dual_pairing((1, 2), (0, 1), (0, 1)) == Fraction(1, 2)
        assert dual_pairing((1, 2), (1, 2), (2, -1)) == 1

    def test_crossing_sign_is_the_sign_of_the_pairing(self):
        """The int comparison reads the sign of the Fraction pairing, zero
        pairings and rays with a zero entry included."""
        rng = random.Random("crossing-sign")
        signs = set()
        for _ in range(2000):
            delta = (rng.randint(1, 5), rng.randint(1, 5))
            normal = (rng.randint(0, 6), rng.randint(0, 6))
            ray = (rng.randint(-6, 6), rng.randint(-6, 6))
            if rng.random() < 0.2:
                ray = (0, ray[1]) if rng.random() < 0.5 else (ray[0], 0)
            pairing = dual_pairing(delta, normal, (-ray[1], ray[0]))
            signs.add((pairing > 0) - (pairing < 0))
            want = 1 if pairing < 0 else -1
            assert scattering_module._crossing_sign(delta, ray, normal) == want, (delta, ray, normal)
        assert signs == {-1, 0, 1}

    def test_integer_pairing_has_the_sign_of_the_oracle(self):
        """``_pairing`` is lcm(delta) times the Fraction pairing, an int with
        the same sign and the same zeros, on ranks 1 to 4."""
        rng = random.Random("integer-pairing")
        signs = set()
        for _ in range(2000):
            rank = rng.randint(1, 4)
            delta = tuple(rng.randint(1, 6) for _ in range(rank))
            n = tuple(rng.randint(0, 5) for _ in range(rank))
            m = [rng.randint(-5, 5) for _ in range(rank)]
            if rank > 1 and rng.random() < 0.3:  # a point of n-perp
                i, j = rng.sample(range(rank), 2)
                m = [0] * rank
                m[i], m[j] = delta[i] * n[j], -delta[j] * n[i]
            want = dual_pairing(delta, n, m)
            got = scattering_module._pairing(delta, n, m)
            assert type(got) is int and got == want * math.lcm(*delta), (delta, n, m)
            signs.add((want > 0) - (want < 0))
        assert signs == {-1, 0, 1}

    def test_root_chamber_is_positive_orthant(self, a2):
        cone = cluster_chamber(root_seed(a2))
        assert cone.rays == ((0, 1), (1, 0))
        assert cone.interior_contains((1, 1))
        assert cone.contains((1, 0))
        assert not cone.interior_contains((1, 0))
        assert not cone.contains((-1, -1))

    def test_mutated_chamber(self, a2):
        seed = mutate_seed(a2, root_seed(a2), 0)
        cone = cluster_chamber(seed)
        assert cone.rays == ((-1, 1), (0, 1))

    def test_chamber_average_point_is_interior(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            for seed in graph.vertices.values():
                cone = cluster_chamber(seed)
                assert cone.interior_contains(cone.interior_point())

    def test_facet_cone_drops_one_ray(self, a2):
        assert facet_cone(root_seed(a2), 0).rays == ((0, 1),)
        assert facet_cone(root_seed(a2), 1).rays == ((1, 0),)


class TestFacetWalls:
    def test_root_walls_carry_initial_dilogs(self, b2):
        alg = PbwAlgebra(b2.omega, 4)
        w0 = facet_wall(b2, root_seed(b2), 0, 4)
        assert w0.normal == (1, 0)
        assert w0.rays == ((0, 1),)
        assert w0.element == alg.dilog((1, 0), 1)
        w1 = facet_wall(b2, root_seed(b2), 1, 4)
        assert w1.normal == (0, 1)
        assert w1.element == alg.dilog((0, 1), 2)

    def test_adjacent_seeds_share_their_facet(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            for src, dst, k in graph.edges:
                left = facet_wall(fd, graph.vertices[src], k, 3)
                # the neighbor sees the same geometric facet in direction k,
                # reading the normal off a now-negative c-vector
                neighbor = mutate_seed(fd, graph.vertices[src], k)
                right = facet_wall(fd, neighbor, k, 3)
                assert left == right

    def test_rescaled_facet_element(self, b2_mirror):
        # a facet with c-vector e1+e2 under delta=(2,1) carries the square
        graph = enumerate_graph(b2_mirror)
        walls = [
            facet_wall(b2_mirror, seed, k, 6)
            for seed in graph.vertices.values()
            for k in range(2)
        ]
        squares = [w for w in walls if w.normal == (1, 1)]
        assert squares
        alg = PbwAlgebra(b2_mirror.omega, 6)
        for w in squares:
            assert w.element == alg.dilog((1, 1), 2)
            assert factor_dilog_power(b2_mirror, w) == "Psi[1,1]^2"

    def test_orthogonality_of_facets(self, finite_fixtures):
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            for seed in graph.vertices.values():
                for k in range(fd.rank):
                    wall = facet_wall(fd, seed, k, 2)
                    for ray in wall.rays:
                        assert dual_pairing(fd.delta, wall.normal, ray) == 0

    def test_validate_wall_rejects_bad_data(self, a2):
        alg = PbwAlgebra(a2.omega, 2)
        good = Wall(normal=(1, 0), rays=((0, 1),), element=alg.dilog((1, 0), 1))
        validate_wall(a2, good)
        with pytest.raises(ValueError):
            validate_wall(a2, Wall((1, 0), ((1, 1),), alg.dilog((1, 0), 1)))
        with pytest.raises(ValueError):
            validate_wall(a2, Wall((2, 0), ((0, 1),), alg.dilog((2, 0), 1)))
        with pytest.raises(ValueError):
            validate_wall(a2, Wall((1, 0), ((0, 1),), alg.dilog((0, 1), 1)))

    def test_validate_wall_rejects_exactly_the_off_ray_logs(self):
        rng = random.Random("validate-wall-ray")
        outcomes = set()
        for trial in range(100):
            fd = random_fixed_data(rng, rank=2)
            level = rng.randint(1, 6)
            alg = PbwAlgebra(fd.omega, level)
            normal = random_positive_vector(rng, 2, max_entry=2, primitive=True)
            ray = (fd.delta[0] * normal[1], -fd.delta[1] * normal[0])
            log = {}
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.6:
                    j = rng.randint(1, max(1, level // degree(normal)))
                    v = tuple(j * x for x in normal)
                else:
                    v = random_positive_vector(rng, 2)
                if degree(v) <= level:
                    log[v] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 3), rng.randint(1, 2))
            if not log:
                continue
            wall = Wall(normal, (ray,), alg.exp(alg.lie_element(log)))
            off_ray = {linalg.primitive(v) for v in wall.element.log_terms()} != {normal}
            outcomes.add(off_ray)
            if off_ray:
                with pytest.raises(ValueError):
                    validate_wall(fd, wall)
            else:
                validate_wall(fd, wall)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "normal, rays",
        [((1, 0), ((0, 0),)), ((1, 0), ((0, 1, 5),)), ((1, 0, 0), ((0, 1),)), ((1, 0), ())],
        ids=["zero-ray", "long-ray", "long-normal", "no-ray"],
    )
    def test_validate_wall_rejects_wrong_shape(self, a2, normal, rays):
        alg = PbwAlgebra(a2.omega, 2)
        with pytest.raises(ValueError):
            validate_wall(a2, Wall(normal, rays, alg.dilog((1, 0), 1)))


class TestFactorDilogPower:
    @pytest.mark.parametrize(
        "log",
        [
            {(1, 0): 1, (3, 0): Fraction(1, 9)},
            {(1, 0): 1, (0, 1): 1},
            {(1, 0): 1, (2, 0): Fraction(1, 4), (3, 0): Fraction(1, 9)},
            {},
        ],
        ids=["gap", "mixed-bases", "wrong-coefficient", "empty"],
    )
    def test_not_a_dilog_power(self, a2, log):
        alg = PbwAlgebra(a2.omega, 3)
        wall = Wall((1, 0), ((0, 1),), alg.exp(alg.lie_element(log)))
        assert factor_dilog_power(a2, wall) is None

    def test_power_of_a_multiple(self, a2):
        alg = PbwAlgebra(a2.omega, 8)
        wall = Wall((1, 1), ((1, -1),), alg.dilog((2, 2), Fraction(-3, 2)))
        assert factor_dilog_power(a2, wall) == "Psi[2,2]^-3/2"


class TestCrossingSequences:
    def test_green_walk_has_positive_signs(self, a2):
        steps = walk(a2, root_seed(a2), [0, 1])
        cs = crossing_sequence(a2, steps)
        assert [c.sign for c in cs.crossings] == [1, 1]
        assert [c.normal for c in cs.crossings] == [(1, 0), (1, 1)]

    def test_there_and_back(self, b2):
        steps = walk(b2, root_seed(b2), [1, 1])
        cs = crossing_sequence(b2, steps)
        assert [c.sign for c in cs.crossings] == [1, -1]
        assert cs.crossings[0].normal == cs.crossings[1].normal == (0, 1)

    def test_pentagon_loop_crossings(self, a2):
        steps = walk(a2, root_seed(a2), [0, 1, 0, 1, 0])
        cs = crossing_sequence(a2, steps)
        assert len(cs.crossings) == 5
        assert {c.normal for c in cs.crossings} == {(1, 0), (0, 1), (1, 1)}

    def test_broken_chain_rejected(self, a2):
        s0 = root_seed(a2)
        with pytest.raises(InvalidWalk):
            crossing_sequence(a2, [(s0, 0), (s0, 1)])

    @pytest.mark.parametrize("k", [2, -1])
    def test_out_of_range_direction_rejected(self, a2, k):
        with pytest.raises(InvalidWalk, match="out of range at step 0"):
            crossing_sequence(a2, [(root_seed(a2), k)])

    @pytest.mark.parametrize("k", [True, 1.0], ids=["bool", "float"])
    def test_direction_must_be_an_int(self, a2, k):
        with pytest.raises(IndexError, match="out of range"):
            walk(a2, root_seed(a2), [0, k])
        with pytest.raises(InvalidWalk, match="direction %r out of range at step 1" % (k,)):
            crossing_sequence(a2, [(root_seed(a2), 0), (mutate_seed(a2, root_seed(a2), 0), k)])

    @pytest.mark.parametrize(
        "normal, sign, detail",
        [
            ("ab", 1, "crossing normal must be a list of integers, got 'ab'"),
            ([1.5, 0], 1, "crossing normal must be a list of integers, got [1.5, 0]"),
            ([1, 0], 1.7, "crossing sign must be the integer 1 or -1, got 1.7"),
            ([1, 0], True, "crossing sign must be the integer 1 or -1, got True"),
            ([1, 0], 0, "crossing sign must be the integer 1 or -1, got 0"),
            ([1, 0, 0], 1, "crossing normal must have 2 entries (the rank), got (1, 0, 0)"),
            ([0, 0], 1, "crossing normal must be positive, got (0, 0)"),
            ([-1, 1], -1, "crossing normal must be positive, got (-1, 1)"),
        ],
        ids=["string-normal", "fractional-normal", "fractional-sign", "bool-sign", "zero-sign",
             "long-normal", "zero-normal", "mixed-normal"],
    )
    def test_malformed_pair_is_bad_input(self, a2, normal, sign, detail):
        """Each pair after a good one is refused with a detail naming its value."""
        with pytest.raises(BadInput) as info:
            crossing_sequence_from_normals(a2, [([1, 1], 1), (normal, sign)])
        assert info.value.code == "bad_input"
        assert str(info.value) == detail

    def test_exponents_follow_delta(self, g2):
        steps = walk(g2, root_seed(g2), [0, 1, 0])
        for crossing in crossing_sequence(g2, steps).crossings:
            assert crossing.exponent >= 1


class TestPathOrderedProducts:
    def test_empty_product_is_identity(self, a2):
        cs = crossing_sequence_from_normals(a2, [])
        assert path_ordered_product(a2, cs, 4).is_identity()

    def test_crossing_back_cancels(self, b2):
        cs = crossing_sequence_from_normals(b2, [((1, 1), 1), ((1, 1), -1)])
        assert path_ordered_product(b2, cs, 6).is_identity()

    def test_pentagon_loop_is_identity(self, a2):
        steps = walk(a2, root_seed(a2), [0, 1, 0, 1, 0])
        cs = crossing_sequence(a2, steps)
        assert path_ordered_product(a2, cs, 6).is_identity()

    def test_pentagon_identity_of_dilogarithms(self, a2):
        alg = PbwAlgebra(a2.omega, 6)
        lhs = alg.dilog((1, 0), 1) * alg.dilog((0, 1), 1)
        rhs = alg.dilog((0, 1), 1) * alg.dilog((1, 1), 1) * alg.dilog((1, 0), 1)
        assert lhs == rhs

    def test_pentagon_identity_against_word_oracle(self, a2):
        # same identity, recomputed with the independent rewriting engine
        alg = PbwAlgebra(a2.omega, 3)
        factors_lhs = [alg.dilog((1, 0), 1), alg.dilog((0, 1), 1)]
        factors_rhs = [
            alg.dilog((0, 1), 1),
            alg.dilog((1, 1), 1),
            alg.dilog((1, 0), 1),
        ]

        def oracle_product(factors):
            acc = {(): Fraction(1)}
            for f in factors:
                acc = oracle_multiply(acc, element_words(f.carrier), a2.omega, 3)
            return acc

        assert oracle_product(factors_lhs) == oracle_product(factors_rhs)

    def test_reversed_walk_inverts_product(self, g2):
        directions = [0, 1, 0]
        steps = walk(g2, root_seed(g2), directions)
        forward = path_ordered_product(g2, crossing_sequence(g2, steps), 5)
        end = mutate_seed(g2, steps[-1][0], directions[-1])
        back_steps = walk(g2, end, list(reversed(directions)))
        backward = path_ordered_product(g2, crossing_sequence(g2, back_steps), 5)
        assert (backward * forward).is_identity()
        assert (forward * backward).is_identity()


class TestObstruction:
    def test_single_crossing(self, b2):
        cs = crossing_sequence_from_normals(b2, [((1, 0), 1)])
        result = minimal_degree_obstruction(cs)
        assert result.min_degree == 1
        assert result.witness == {(1, 0): Fraction(1)}

    def test_higher_degree_term_is_projected_away(self, a2):
        cs = crossing_sequence_from_normals(a2, [((1, 0), 1), ((1, 1), 1)])
        result = minimal_degree_obstruction(cs)
        assert result.min_degree == 1
        assert result.witness == {(1, 0): Fraction(1)}
        assert result.pretty() == "1*X(1,0)"

    def test_two_degree_one_crossings(self, a2):
        cs = crossing_sequence_from_normals(a2, [((1, 0), 1), ((0, 1), 1)])
        result = minimal_degree_obstruction(cs)
        assert result.witness == {(1, 0): Fraction(1), (0, 1): Fraction(1)}

    def test_exponent_scaling(self, g2):
        cs = crossing_sequence_from_normals(g2, [((0, 1), 1)])
        result = minimal_degree_obstruction(cs)
        assert result.witness == {(0, 1): Fraction(3)}

    def test_red_crossing_rejected(self, a2):
        cs = crossing_sequence_from_normals(a2, [((1, 0), 1), ((0, 1), -1)])
        with pytest.raises(NotAllGreen):
            minimal_degree_obstruction(cs)

    def test_empty_sequence_rejected(self, a2):
        with pytest.raises(ValueError):
            minimal_degree_obstruction(crossing_sequence_from_normals(a2, []))

    def test_all_green_walks_from_graphs_never_vanish(self, finite_fixtures):
        rng = random.Random(41)
        for fd in finite_fixtures.values():
            graph = enumerate_graph(fd)
            for _ in range(10):
                seed = root_seed(fd)
                steps = []
                for _ in range(rng.randint(1, 6)):
                    greens = [
                        k
                        for k in range(fd.rank)
                        if all(x >= 0 for x in seed.c_column(k))
                    ]
                    if not greens:
                        break
                    k = rng.choice(greens)
                    steps.append((seed, k))
                    seed = mutate_seed(fd, seed, k)
                if not steps:
                    continue
                cs = crossing_sequence(fd, steps)
                result = minimal_degree_obstruction(cs)
                # oracle: the PBW product at the minimal degree is exp(witness)
                level = result.min_degree
                alg = PbwAlgebra(fd.omega, level)
                product = path_ordered_product(fd, cs, level)
                assert product == alg.exp(alg.lie_element(result.witness))
                assert not product.is_identity()

    def test_needs_no_group_arithmetic(self):
        """The closed form runs in a fresh interpreter where importing the
        structure group or the scattering layer fails, and loads neither."""
        script = (
            "import json, sys\n"
            "sys.modules['greenfan.liegroup'] = sys.modules['greenfan.scattering'] = None\n"
            "from greenfan import crossings, validate_fixed_data\n"
            "g2 = validate_fixed_data([[0, 1], [-3, 0]], [1, 3])\n"
            "pairs = [((1, 1), 1), ((0, 1), 1), ((1, 0), 1), ((0, 1), 1)]\n"
            "cs = crossings.crossing_sequence_from_normals(g2, pairs)\n"
            "result = crossings.minimal_degree_obstruction(cs)\n"
            "loaded = sorted(m for m, v in sys.modules.items() if v and m.startswith('greenfan.'))\n"
            "print(json.dumps([result.min_degree, result.pretty(), loaded]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [
            1,
            "1*X(1,0) + 6*X(0,1)",
            ["greenfan.crossings", "greenfan.errors", "greenfan.exchange", "greenfan.linalg"],
        ]


class TestLoopConsistency:
    def test_finite_fixtures_consistent(self, finite_fixtures):
        expected_loops = {"A2": 1, "B2": 1, "G2": 1, "A3": 8}
        for name, fd in finite_fixtures.items():
            graph = enumerate_graph(fd)
            report = verify_loop_consistency(fd, graph, 4)
            assert len(report.loops) == expected_loops[name]
            for loop in report.loops:
                assert loop.identity
                assert loop.max_degree_checked == 4

    def test_failing_loop_reports_its_pbw_product(self, a2, monkeypatch):
        graph = enumerate_graph(a2)
        src, dst, _ = graph.edges[0]  # the one loop of A2 runs through every edge
        invert_edge_crossings(monkeypatch, graph, src, dst)
        with pytest.raises(InconsistencyFound) as info:
            verify_loop_consistency(a2, graph, 4)
        assert info.value.loop
        product = loop_product(a2, graph, info.value.loop, 4)
        assert isinstance(product, GroupElement)
        assert not product.is_identity()

    @pytest.mark.parametrize("name", sorted(LOOP_PATTERNS))
    def test_mutation_walk_replays_every_loop(self, name):
        fd = validate_fixed_data(*LOOP_PATTERNS[name])
        graph = enumerate_graph(fd)
        table = _crossing_table(fd, graph)
        report = verify_loop_consistency(fd, graph, 1)
        assert report.loops
        for loop in report.loops:
            steps = walk(fd, graph.vertices[loop.vertices[0]], loop.directions)
            replayed = crossing_sequence(fd, steps)
            read, directions = _cycle_crossings(graph, table, loop.vertices)
            assert replayed.crossings == read.crossings
            assert directions == loop.directions
            assert tuple(canonical_key(seed) for seed, _ in steps) == loop.vertices
            last, k = steps[-1]
            assert canonical_key(mutate_seed(fd, last, k)) == loop.vertices[0]

    @pytest.mark.parametrize("name", sorted(LOOP_PATTERNS))
    def test_tree_check_matches_per_cycle_oracle(self, name):
        fd = validate_fixed_data(*LOOP_PATTERNS[name])
        graph = enumerate_graph(fd)
        for level in range(1, 9):
            report = verify_loop_consistency(fd, graph, level)
            assert report == per_cycle_loop_consistency(fd, graph, level)

    @pytest.mark.parametrize("name, loops", [("A3", 8), ("D4", 51)])
    def test_vertex_ids_out_of_breadth_first_order(self, name, loops, monkeypatch):
        """Non-root vertices listed in reverse, so a larger id can sit higher
        in the tree: the check then climbs from either end of a closing edge."""
        fd = validate_fixed_data(*LOOP_PATTERNS[name])
        doc = graph_to_json(enumerate_graph(fd))
        root, *rest = doc["vertices"].items()
        doc["vertices"] = dict([root, *reversed(rest)])
        graph = graph_from_json(doc)
        report = verify_loop_consistency(fd, graph, 4)
        assert len(report.loops) == loops
        assert all(loop.identity for loop in report.loops)
        assert report == per_cycle_loop_consistency(fd, graph, 4)
        src, dst, _ = graph.edges[len(graph.edges) // 2]
        invert_edge_crossings(monkeypatch, graph, src, dst)
        with pytest.raises(InconsistencyFound):
            verify_loop_consistency(fd, graph, 4)
        with pytest.raises(InconsistencyFound):
            per_cycle_loop_consistency(fd, graph, 4)

    @pytest.mark.parametrize("edge", ["tree", "closing"])
    def test_injected_fault_fails_both_checks_alike(self, a3, edge, monkeypatch):
        graph = enumerate_graph(a3)
        cycles, parent = _fundamental_cycles(graph)
        if edge == "tree":
            x = list(parent)[-1]
            u, v = parent[x], x
        else:
            cycle = cycles[len(cycles) // 2]
            u, v = cycle[-1], cycle[0]
        invert_edge_crossings(monkeypatch, graph, u, v)
        with pytest.raises(InconsistencyFound) as tree:
            verify_loop_consistency(a3, graph, 4)
        with pytest.raises(InconsistencyFound) as oracle:
            per_cycle_loop_consistency(a3, graph, 4)
        assert tree.value.loop == oracle.value.loop
        product = loop_product(a3, graph, tree.value.loop, 4)
        assert tree.value.lowest == oracle.value.lowest == lowest_log_part(product)
        assert not product.is_identity()
        loop = tree.value.loop
        steps = set(zip(loop, loop[1:] + loop[:1]))
        assert (u, v) in steps or (v, u) in steps
        if edge == "closing":
            assert loop == tuple(cycle)

    @pytest.mark.parametrize("fault", ["inverted-edge", "shifted-exponent"])
    @pytest.mark.parametrize("name", sorted(LOOP_PATTERNS))
    def test_failing_loop_witness_matches_oracles(self, name, fault, monkeypatch):
        """The witness read off the two compared actions is the lowest log
        part of the loop's product: the per-cycle oracle's, and the PBW one."""
        fd = validate_fixed_data(*LOOP_PATTERNS[name])
        graph = enumerate_graph(fd)
        rng = random.Random("%s-%s" % (name, fault))
        normals = sorted({
            scattering_module._crossing_normal(seed, k)[1]
            for seed in graph.vertices.values() for k in range(fd.rank)
        })
        keys = list(graph.vertices)
        for level in range(2, 7):
            with monkeypatch.context() as faulty:
                if fault == "inverted-edge":
                    src, dst, _ = rng.choice(graph.arcs)
                    invert_edge_crossings(faulty, graph, keys[src], keys[dst])
                else:  # a loop crosses n both ways, so only brackets can show it
                    shift_exponent(faulty, rng.choice([n for n in normals if degree(n) < level]))
                with pytest.raises(InconsistencyFound) as tree:
                    verify_loop_consistency(fd, graph, level)
                with pytest.raises(InconsistencyFound) as oracle:
                    per_cycle_loop_consistency(fd, graph, level)
                product = loop_product(fd, graph, tree.value.loop, level)
            assert tree.value.loop == oracle.value.loop, level
            assert tree.value.lowest == oracle.value.lowest == lowest_log_part(product), level

    def test_failing_check_builds_one_action(self, a3, monkeypatch):
        """The witness comes from the actions the check compared: no second
        action is built for it (copies do not call ``__init__``)."""
        graph = enumerate_graph(a3)
        src, dst, _ = graph.edges[len(graph.edges) // 2]
        invert_edge_crossings(monkeypatch, graph, src, dst)
        built = []
        init = TorusAction.__init__

        def counted(self, omega, level):
            built.append(self)
            init(self, omega, level)

        monkeypatch.setattr(TorusAction, "__init__", counted)
        with pytest.raises(InconsistencyFound) as info:
            verify_loop_consistency(a3, graph, 4)
        assert len(built) == 1
        assert info.value.lowest

    def test_e6_loops_at_level_6(self):
        b, delta, _ = FINITE_TYPES["E6"]
        fd = validate_fixed_data(b, delta)
        graph = enumerate_graph(fd)
        report = verify_loop_consistency(fd, graph, 6)
        undirected = {frozenset((src, dst)) for src, dst, _ in graph.edges}
        assert len(report.loops) == 1667
        assert len(report.loops) == len(undirected) - len(graph.vertices) + 1
        assert all(loop.identity for loop in report.loops)

    def test_each_edge_is_read_once(self, monkeypatch):
        b, delta, _ = FINITE_TYPES["E6"]
        fd = validate_fixed_data(b, delta)
        graph = enumerate_graph(fd)
        calls = []
        crossing_normal = scattering_module._crossing_normal

        def counted(seed, k):
            calls.append(k)
            return crossing_normal(seed, k)

        monkeypatch.setattr(scattering_module, "_crossing_normal", counted)
        verify_loop_consistency(fd, graph, 1)
        undirected = {frozenset((src, dst)) for src, dst, _ in graph.edges}
        assert len(calls) == len(undirected) == 2499

    def test_each_binomial_and_row_is_built_once(self, monkeypatch):
        """Every copy of the root action shares its tables, so a check builds
        one binomial series per distinct (exponent * psi, length) and one
        omega row per distinct normal."""
        b, delta, _ = FINITE_TYPES["E6"]
        fd = validate_fixed_data(b, delta)
        graph = enumerate_graph(fd)
        builds, rows, roots, normals = [], [], [], set()
        binomial_series, omega_row, init, apply_dilog = (
            liegroup._binomial_series,
            liegroup._omega_row,
            TorusAction.__init__,
            TorusAction.apply_dilog,
        )

        def counted_build(x, length):
            builds.append((x, length))
            return binomial_series(x, length)

        def counted_row(omega, n):
            rows.append(n)
            return omega_row(omega, n)

        def tracked_init(self, omega, level):
            init(self, omega, level)
            roots.append(self)

        def tracked_apply(self, n, c):
            normals.add(tuple(n))
            apply_dilog(self, n, c)

        monkeypatch.setattr(liegroup, "_binomial_series", counted_build)
        monkeypatch.setattr(liegroup, "_omega_row", counted_row)
        monkeypatch.setattr(TorusAction, "__init__", tracked_init)
        monkeypatch.setattr(TorusAction, "apply_dilog", tracked_apply)
        verify_loop_consistency(fd, graph, 6)
        (root,) = roots
        assert len(builds) == len(set(builds)) == len(root.binomials)
        assert len(rows) == len(set(rows)) == len(root.steps)
        assert set(root.steps) == {n for n in normals if degree(n) <= 6}
        for n, (row, _) in root.steps.items():
            assert row == omega_row(fd.omega, n)

    @pytest.mark.parametrize("name", sorted(LOOP_PATTERNS))
    def test_fraction_exponents_give_the_same_report(self, name, monkeypatch):
        """The check applies each ``delta_exponent`` as an int when it is
        integral, which it always is on a primitive normal, B3 and G2
        included; left as Fractions they give the same reports and faults."""
        fd = validate_fixed_data(*LOOP_PATTERNS[name])
        graph = enumerate_graph(fd)
        kinds = set()
        apply_dilog = TorusAction.apply_dilog

        def typed(self, n, c):
            kinds.add(type(c))
            apply_dilog(self, n, c)

        def outcomes():
            reports = [verify_loop_consistency(fd, graph, level) for level in (1, 4, 7)]
            with monkeypatch.context() as faulty:
                src, dst, _ = graph.edges[len(graph.edges) // 2]
                invert_edge_crossings(faulty, graph, src, dst)
                with pytest.raises(InconsistencyFound) as info:
                    verify_loop_consistency(fd, graph, 7)
            return reports, info.value.loop, info.value.lowest

        monkeypatch.setattr(TorusAction, "apply_dilog", typed)
        as_ints = outcomes()
        assert kinds == {int}
        kinds.clear()
        monkeypatch.setattr(scattering_module, "_exact", lambda x: x)
        assert outcomes() == as_ints
        assert kinds == {Fraction}

    def test_arc_whose_direction_keeps_its_g_vector_is_invalid_walk(self, a3):
        """An arc names the label its source loses: a direction whose g-vector
        the target still holds, or a loop on one vertex, is no exchange step."""
        graph = enumerate_graph(a3)
        src, dst, k = graph.arcs[-1]
        for arc in ((src, dst, (k + 1) % a3.rank), (dst, dst, k)):
            with pytest.raises(InvalidWalk):
                verify_loop_consistency(a3, graph._replace(arcs=graph.arcs + (arc,)), 2)

    def test_edge_between_non_adjacent_vertices_is_invalid_walk(self, a3):
        graph = enumerate_graph(a3)
        root = set(graph.root.g_columns)
        far = next(
            i for i, key in enumerate(graph.vertices) if len(root.difference(key.g_columns)) >= 2
        )
        bogus = graph._replace(arcs=graph.arcs + ((0, far, 0),))
        with pytest.raises(InvalidWalk):
            verify_loop_consistency(a3, bogus, 2)

    def test_stored_seed_must_match_its_key(self, a3):
        graph = enumerate_graph(a3)
        vertices = dict(graph.vertices)
        last = list(vertices)[-1]
        vertices[last] = vertices[graph.root]
        with pytest.raises(InvalidWalk):
            verify_loop_consistency(a3, graph._replace(vertices=vertices), 2)

    def test_vertex_cut_off_from_the_root_is_invalid_walk(self, a3):
        """A read "complete" document whose edges leave vertices 12 and 13
        apart from the root: the check names the first unreached vertex."""
        doc = graph_to_json(enumerate_graph(a3))
        names = list(doc["vertices"])
        cut = {names[12], names[13]}
        kept = [e for e in doc["edges"] if (e["source"] in cut) == (e["target"] in cut)]
        assert len(doc["edges"]) - len(kept) == 4
        graph = graph_from_json({**doc, "edges": kept})
        assert graph.status == "complete"
        with pytest.raises(InvalidWalk, match="does not reach vertex 12, %s" % re.escape(names[12])):
            verify_loop_consistency(a3, graph, 2)

    def test_graph_of_another_pattern_is_invalid_walk(self, a2, b2, a3, monkeypatch):
        """Loops of another pattern's graph certify nothing about ``fd``: the
        check refuses them before it applies a single crossing."""
        applied = []
        monkeypatch.setattr(TorusAction, "apply_dilog", lambda *args: applied.append(args))
        reoriented_a3 = validate_fixed_data([[0, 1, 0], [-1, 0, -1], [0, 1, 0]], [1, 1, 1])
        for fd, graph in ((reoriented_a3, enumerate_graph(a3)), (b2, enumerate_graph(a2))):
            with pytest.raises(InvalidWalk, match="not enumerated from this fixed data"):
                verify_loop_consistency(fd, graph, 3)
        assert applied == []

    def test_truncated_graph_rejected(self, kronecker):
        graph = enumerate_graph(kronecker, max_depth=4)
        with pytest.raises(IncompleteGraph):
            verify_loop_consistency(kronecker, graph, 2)

    # a report at level 0 or below would certify degrees it never checked
    @pytest.mark.parametrize("level", [0, -1, True, 2.5])
    def test_level_must_be_a_positive_int(self, a2, level):
        with pytest.raises(ValueError):
            verify_loop_consistency(a2, enumerate_graph(a2), level)


class TestRankTwoCompletion:
    def test_a2_single_scattered_wall(self, a2):
        diagram = complete_rank2(a2, 8)
        extra = scattered(diagram)
        assert len(extra) == 1
        assert extra[0].normal == (1, 1)
        assert extra[0].rays == ((-1, 1),)
        assert factor_dilog_power(a2, extra[0]) == "Psi[1,1]^1"
        assert verify_rank2_consistency(a2, diagram)

    def test_b2_two_scattered_walls(self, b2):
        diagram = complete_rank2(b2, 8)
        extra = scattered(diagram)
        assert {w.normal for w in extra} == {(1, 1), (1, 2)}
        labels = {factor_dilog_power(b2, w) for w in extra}
        assert labels == {"Psi[1,1]^2", "Psi[1,2]^1"}
        assert verify_rank2_consistency(b2, diagram)

    def test_b2_mirror_convention(self, b2_mirror):
        diagram = complete_rank2(b2_mirror, 8)
        assert {w.normal for w in scattered(diagram)} == {(1, 1), (2, 1)}

    def test_g2_four_scattered_walls(self, g2):
        diagram = complete_rank2(g2, 8)
        assert {w.normal for w in scattered(diagram)} == {
            (1, 1),
            (1, 2),
            (1, 3),
            (2, 3),
        }
        assert verify_rank2_consistency(g2, diagram)

    def test_finite_type_matches_cluster_fan(self, a2, b2, g2):
        for fd in (a2, b2, g2):
            graph = enumerate_graph(fd)
            fan = cluster_fan_diagram(fd, graph, 6)
            completion = complete_rank2(fd, 6)
            by_ray = {}
            for wall in completion.walls:
                for ray in wall.rays:
                    by_ray[ray] = (wall.normal, wall.element)
            assert len(fan.walls) == len(by_ray)
            for wall in fan.walls:
                normal, element = by_ray[wall.rays[0]]
                assert wall.normal == normal
                assert wall.element == element

    def test_kronecker_consistent_and_growing(self, kronecker):
        diagram = complete_rank2(kronecker, 6)
        assert verify_rank2_consistency(kronecker, diagram)
        per_degree = {}
        for wall in scattered(diagram):
            d = degree(wall.normal)
            per_degree[d] = per_degree.get(d, 0) + 1
        assert all(degree(w.normal) >= 2 for w in scattered(diagram))
        # strictly more wall mass appears at every later degree stage
        assert len(scattered(diagram)) > 2
        for wall in diagram.walls:
            assert all(x >= 0 for x in wall.normal)

    def test_kronecker_central_wall_is_not_a_single_dilog(self, kronecker):
        diagram = complete_rank2(kronecker, 6)
        central = [w for w in scattered(diagram) if w.normal == (1, 1)]
        assert len(central) == 1
        assert factor_dilog_power(kronecker, central[0]) is None
        log = central[0].element.log_terms()
        assert log[(1, 1)] == 2

    def test_kronecker_central_wall_at_level_20(self, kronecker):
        diagram = complete_rank2(kronecker, 20)
        central = [w.element.log_terms() for w in scattered(diagram) if w.normal == (1, 1)]
        assert central == [{(k, k): Fraction(2, k * k) for k in range(1, 11)}]
        assert verify_rank2_consistency(kronecker, diagram)

    @pytest.mark.parametrize("m, level", [(2, 40), (3, 30), (4, 14), (5, 10)])
    def test_central_wall_function_is_the_closed_form(self, m, level):
        """Reineke's theorem, conjectured by Gross-Pandharipande-Siebert, at
        levels no golden reaches: see ``support.central_wall_closed_form``."""
        fd = validate_fixed_data([[0, m], [-m, 0]], [1, 1])
        (central,) = [w for w in complete_rank2(fd, level).walls if w.normal == (1, 1)]
        function = wall_function((1, 1), central.element.log_terms(), level // 2)
        assert function == central_wall_closed_form(m, level // 2)

    def test_read_back_central_wall_is_the_closed_form(self, kronecker):
        text = json.dumps(diagram_to_json(kronecker, complete_rank2(kronecker, 20)))
        back = diagram_from_json(json.loads(text), kronecker)
        (central,) = [w for w in back.walls if w.normal == (1, 1)]
        function = wall_function((1, 1), central.element.log_terms(), 10)
        assert function == central_wall_closed_form(2, 10) == [k + 1 for k in range(11)]

    @pytest.mark.parametrize("level, read_back", [(20, True), (40, False), (60, False)])
    def test_kronecker_walls_are_the_closed_form(self, kronecker, level, read_back):
        """The whole Kronecker diagram, non-central walls included, at levels
        no golden reaches and on a document read back: see
        ``kronecker_closed_form``."""
        diagram = complete_rank2(kronecker, level)
        if read_back:
            diagram = diagram_from_json(json.loads(json.dumps(diagram_to_json(kronecker, diagram))), kronecker)
        expected = kronecker_closed_form(level)
        assert len(diagram.walls) == len(expected)
        assert {w.normal: w.element.log_terms() for w in diagram.walls} == expected

    def test_level_refinement_stability(self, b2, kronecker):
        for fd in (b2, kronecker):
            fine = complete_rank2(fd, 6)
            coarse = complete_rank2(fd, 3)
            projected = {}
            for wall in fine.walls:
                shrunk = wall.element.project(3)
                if shrunk.is_identity() and len(wall.rays) == 1:
                    continue
                projected[(wall.rays, wall.normal)] = shrunk
            direct = {(w.rays, w.normal): w.element for w in coarse.walls}
            assert projected == direct

    def test_mirrored_exchange_matrix(self):
        from greenfan import validate_fixed_data

        fd = validate_fixed_data([[0, -1], [1, 0]], [1, 1])
        diagram = complete_rank2(fd, 6)
        extra = scattered(diagram)
        assert len(extra) == 1
        assert extra[0].rays == ((1, -1),)
        assert verify_rank2_consistency(fd, diagram)

    def test_zero_matrix_needs_no_scattering(self):
        from greenfan import validate_fixed_data

        fd = validate_fixed_data([[0, 0], [0, 0]], [1, 2])
        diagram = complete_rank2(fd, 5)
        assert scattered(diagram) == []
        assert verify_rank2_consistency(fd, diagram)

    @pytest.mark.parametrize("level", [3.9, 2.5, True])
    def test_level_must_be_an_int(self, a2, level):
        with pytest.raises(ValueError):
            complete_rank2(a2, level)

    @pytest.mark.parametrize(
        "call",
        [
            lambda fd: complete_rank2(fd, 3),
            lambda fd: verify_rank2_consistency(fd, ScatteringDiagram(3, ())),
            lambda fd: diagram_to_svg(fd, ScatteringDiagram(3, ())),
            lambda fd: fan_to_svg(fd, enumerate_graph(fd)),
        ],
        ids=["complete_rank2", "verify_rank2_consistency", "diagram_to_svg", "fan_to_svg"],
    )
    def test_rank_three_rejected(self, a3, call):
        """Of these guards the CLI reaches only completion's: it checks the
        rank before it draws a fan, and ``scatter2`` stops at completion."""
        with pytest.raises(NotRankTwo):
            call(a3)

    def test_pbw_builds_only_the_emitted_walls(self, kronecker, monkeypatch):
        calls = []
        exp = PbwAlgebra.exp

        def counted(self, a):
            calls.append(a)
            return exp(self, a)

        monkeypatch.setattr(PbwAlgebra, "exp", counted)
        diagram = complete_rank2(kronecker, 7)
        assert len(calls) == len(diagram.walls)

    def test_missing_wall_is_detected(self, a2):
        diagram = complete_rank2(a2, 4)
        broken = ScatteringDiagram(level=4, walls=diagram.walls[:-1])
        with pytest.raises(InconsistencyFound):
            verify_rank2_consistency(a2, broken)

    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", sorted(RANK2_PATTERNS))
    def test_broken_diagram_defect_is_that_of_either_basepoint(self, name, swapped):
        """Each wall dropped, and each wall's lowest log coefficient shifted
        by 1/3: the re-check's witness is the lowest log part of the PBW
        clockwise sweep from (1, 1), the loop it checks, and from (-1, -1),
        whose product is conjugate to it.  Both oracles run at the witness's
        degree, where the product's lowest part first shows."""
        fd = rank2_order(name, swapped)
        for level in (4, 6):
            diagram = complete_rank2(fd, level)
            alg = PbwAlgebra(fd.omega, level)
            for i, wall in enumerate(diagram.walls):
                log = dict(wall.element.log_terms())
                log[min(log, key=degree)] += Fraction(1, 3)
                shifted = wall._replace(element=alg.exp(alg.lie_element(log)))
                for edit, kept in (("dropped", ()), ("shifted", (shifted,))):
                    broken = diagram._replace(walls=diagram.walls[:i] + kept + diagram.walls[i + 1:])
                    with pytest.raises(InconsistencyFound) as info:
                        verify_rank2_consistency(fd, broken)
                    lowest = info.value.lowest
                    low = degree(next(iter(lowest)))
                    for start in ((1, 1), (-1, -1)):
                        product = recheck_product(fd, broken, low, start)
                        assert lowest == lowest_log_part(product), (level, wall.normal, edit, start)

    # neither ray lies in (1, 1)-perp; unvalidated, the sweep reports an inconsistency
    @pytest.mark.parametrize("ray", [(1, 0), (2, -1)], ids=["(1,0)", "(2,-1)"])
    def test_verify_validates_every_wall(self, a2, ray):
        diagram = complete_rank2(a2, 3)
        (wall,) = scattered(diagram)
        moved = wall._replace(rays=(ray,))
        hand_built = diagram._replace(walls=diagram.walls[:2] + (moved,))
        message = r"ray \(%d, %d\) is not orthogonal to \(1, 1\)" % ray
        with pytest.raises(ValueError, match=message):
            verify_rank2_consistency(a2, hand_built)

    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", sorted(RANK2_PATTERNS))
    def test_sweep_needs_no_tie_break(self, name, swapped):
        """What the sweep relies on, on every completion and its read-back.

        No ray is a multiple of (1, 1), so every ray has a strict order class
        around the basepoints +-(1, 1), and walls on one ray share a normal,
        so their factors commute in any order.
        """
        fd = rank2_order(name, swapped)
        for level in range(1, 11):
            diagram = complete_rank2(fd, level)
            back = diagram_from_json(json.loads(json.dumps(diagram_to_json(fd, diagram))), fd)
            for walls in (diagram.walls, back.walls):
                normal_of = {}
                for wall in walls:
                    for ray in wall.rays:
                        assert ray[0] != ray[1]
                        line = linalg.primitive(ray)
                        assert normal_of.setdefault(line, wall.normal) == wall.normal

    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", sorted(RANK2_PATTERNS))
    def test_every_stage_reads_the_pbw_defect(self, name, swapped, monkeypatch):
        """Stage d's defect is the lowest log part of the PBW sweep at level d.

        The walls at stage d are the initial lines and the scattered terms
        of degree < d, since each stage settles its own degree for good.  The
        oracle sweeps from (-1, -1), not from the completion's (1, 1): the
        two products are conjugate, so their lowest log parts agree.
        """
        fd = rank2_order(name, swapped)
        seen = []  # (level, defect) of every record sweep
        sweep_defect = scattering_module._sweep_defect

        def recorded(fd, records, level):
            seen.append((level, sweep_defect(fd, records, level)))
            return seen[-1][1]

        monkeypatch.setattr(scattering_module, "_sweep_defect", recorded)
        diagram = complete_rank2(fd, 6)
        assert [level for level, _ in seen] == [2, 3, 4, 5, 6, 6]
        for d, defect in seen[:-1]:
            walls = []
            for wall in diagram.walls:
                log = wall.element.log_terms()
                if len(wall.rays) == 1:  # scattered: only its terms settled before stage d
                    log = {v: c for v, c in log.items() if degree(v) < d}
                walls.append((wall.rays, wall.normal, log))
            product = pbw_sweep_product(fd, signed_log_sweep(fd, walls, (-1, -1)), d)
            assert defect == ({} if product.is_identity() else lowest_log_part(product)), d
        assert seen[-1][1] == {}

    @pytest.mark.parametrize("name, level", [("a2", 2), ("kronecker", 6)])
    def test_closing_check_names_a_skipped_stage(self, name, level, request, monkeypatch):
        """A top stage that inserts nothing leaves its defect to the closing
        sweep, which raises it as the witness of the whole completion."""
        fd = request.getfixturevalue(name)
        sweep_defect = scattering_module._sweep_defect
        skipped = []

        def skip_top_stage(tables, records, d):
            defect = sweep_defect(tables, records, d)
            if d < level or skipped:
                return defect
            skipped.append(defect)
            return {}

        monkeypatch.setattr(scattering_module, "_sweep_defect", skip_top_stage)
        with pytest.raises(InconsistencyFound) as info:
            complete_rank2(fd, level)
        (defect,) = skipped
        assert defect and {degree(n) for n in defect} == {level}
        assert info.value.loop == ()
        assert info.value.lowest == defect
        assert str(info.value) == "completion failed to cancel all defects"

    def test_each_step_entry_is_built_once(self, kronecker, monkeypatch):
        """Every stage and the closing check sweep on one action's tables, so
        a completion builds one omega row per normal and each (n, m) step
        entry once, whatever the stage level that first meets it."""
        roots, rows, entries = [], [], {}
        init, apply_ray, omega_row = TorusAction.__init__, TorusAction.apply_ray, liegroup._omega_row

        def tracked_init(self, omega, level):
            init(self, omega, level)
            roots.append(self)

        def counted_row(omega, n):
            rows.append(n)
            return omega_row(omega, n)

        def tracked_apply(self, n, series):
            apply_ray(self, n, series)
            for m, entry in self.steps.get(n, (None, {}))[1].items():
                entries.setdefault((n, m), {})[id(entry)] = entry  # held, so ids stay distinct

        monkeypatch.setattr(TorusAction, "__init__", tracked_init)
        monkeypatch.setattr(TorusAction, "apply_ray", tracked_apply)
        monkeypatch.setattr(liegroup, "_omega_row", counted_row)
        complete_rank2(kronecker, 12)
        (root,) = roots
        assert len(rows) == len(set(rows)) == len(root.steps)
        assert all(len(built) == 1 for built in entries.values())
        assert len(entries) == step_entries(root)

    @pytest.mark.parametrize("level", [20, 40])
    @pytest.mark.parametrize("name", ["Kronecker", "(3,3)"])
    def test_recheck_builds_no_more_entries_than_a_ccw_sweep(self, name, level, monkeypatch):
        """The re-check sweeps clockwise from the completion's basepoint
        (1, 1), so its partial products stay as small as those of a fresh
        counterclockwise sweep of the same walls from there.  A clockwise
        sweep from (-1, -1) builds 17,167 entries on Kronecker at l=40."""
        fd = rank2_order(name, False)
        diagram = complete_rank2(fd, level)
        ccw = TorusAction(fd.omega, level)
        records = [
            scattering_module._crossing_record(fd, ray, wall.normal, validate_wall(fd, wall))
            for wall in diagram.walls for ray in wall.rays
        ]
        assert scattering_module._sweep_defect(ccw, records, level) == {}
        roots, init = [], TorusAction.__init__

        def tracked_init(self, omega, level):
            init(self, omega, level)
            roots.append(self)

        monkeypatch.setattr(TorusAction, "__init__", tracked_init)
        assert verify_rank2_consistency(fd, diagram)
        (root,) = roots
        assert step_entries(root) <= step_entries(ccw)
        if (name, level) == ("Kronecker", 40):
            assert step_entries(root) == 1468

    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", sorted({**RANK2_PATTERNS, **MORE_RANK2_PATTERNS}))
    def test_wall_functions_are_positive(self, name, swapped):
        fd = rank2_order(name, swapped)
        for wall in complete_rank2(fd, 20).walls:
            require_positive_wall(fd, wall)

    @pytest.mark.parametrize("sign", [1, -1], ids=["b>0", "b<0"])
    @pytest.mark.parametrize(
        "b, c, level", RANDOM_RANK2, ids=["b=%d,c=%d,l=%d" % draw for draw in RANDOM_RANK2]
    )
    def test_random_rank2_wall_functions_are_positive(self, b, c, level, sign):
        fd = with_minimal_delta([[0, sign * b], [-sign * c, 0]])
        for wall in complete_rank2(fd, level).walls:
            require_positive_wall(fd, wall)

    def test_positivity_oracle_names_a_fractional_exponent(self, kronecker):
        (central,) = [w for w in complete_rank2(kronecker, 8).walls if w.normal == (1, 1)]
        require_positive_wall(kronecker, central)
        # Psi[(2, 2)]^(1/4) multiplies the wall function by (1 + t^2)^(1/2)
        alg = central.element.algebra
        shifted = central._replace(
            element=central.element * alg.dilog((2, 2), Fraction(1, 4))
        )
        with pytest.raises(AssertionError, match=r"wall \(1, 1\) on .*: e_2 / .* = \d+/2 "):
            require_positive_wall(kronecker, shifted)

    @pytest.mark.parametrize("level", [0, -3])
    def test_verify_rejects_level_below_one(self, b2, level):
        diagram = complete_rank2(b2, 4)
        with pytest.raises(ValueError):
            verify_rank2_consistency(b2, diagram._replace(level=level))


class TestDiagramSerialization:
    def test_json_round_trip(self, b2):
        diagram = complete_rank2(b2, 6)
        doc = diagram_to_json(b2, diagram)
        back = diagram_from_json(doc, b2)
        assert back.level == diagram.level
        assert back.walls == diagram.walls

    @pytest.mark.parametrize("level", sorted(random.Random(33).sample(range(2, 21), 3)))
    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", sorted(RANK2_PATTERNS))
    def test_json_text_round_trip(self, name, swapped, level):
        """The walls come back equal, and the read-back diagram writes the same bytes."""
        fd = rank2_order(name, swapped)
        diagram = complete_rank2(fd, level)
        text = json.dumps(diagram_to_json(fd, diagram), indent=2)
        back = diagram_from_json(json.loads(text), fd)
        assert back == diagram
        assert json.dumps(diagram_to_json(fd, back), indent=2) == text
        assert verify_rank2_consistency(fd, back)

    def test_origin_is_the_one_constant(self, b2):
        diagram = complete_rank2(b2, 4)
        doc = diagram_to_json(b2, diagram)
        assert doc["origin"] == "rank2-completion"
        del doc["origin"]
        assert diagram_from_json(doc, b2).walls == diagram.walls

    @pytest.mark.parametrize(
        "origin", [[1, {}], "other", "cluster-fan"], ids=["list", "other", "cluster-fan"]
    )
    def test_rejects_another_origin(self, b2, origin):
        doc = dict(diagram_to_json(b2, complete_rank2(b2, 4)), origin=origin)
        with pytest.raises(BadInput, match="diagram origin"):
            diagram_from_json(doc, b2)

    def test_rejects_fractional_level(self, b2):
        doc = dict(diagram_to_json(b2, complete_rank2(b2, 4)), level=3.9)
        with pytest.raises(BadInput):
            diagram_from_json(doc, b2)

    @pytest.mark.parametrize("level", [0, -3])
    def test_rejects_level_below_one(self, b2, level):
        doc = dict(diagram_to_json(b2, complete_rank2(b2, 4)), level=level)
        with pytest.raises(BadInput, match="diagram level"):
            diagram_from_json(doc, b2)

    def test_rejects_wall_element_at_another_level(self, b2):
        doc = diagram_to_json(b2, complete_rank2(b2, 4))
        doc["walls"][0]["element"]["level"] = 5
        with pytest.raises(BadInput, match="wall 0: element is not at the diagram level 4"):
            diagram_from_json(doc, b2)

    @pytest.mark.parametrize(
        "coeff,message", [("1/0", "malformed element"), ("2", "constant term 1")]
    )
    def test_rejects_bad_element_coefficient(self, b2, coeff, message):
        doc = diagram_to_json(b2, complete_rank2(b2, 4))
        assert doc["walls"][0]["element"]["terms"][0] == {"monomial": [], "coeff": "1"}
        doc["walls"][0]["element"]["terms"][0]["coeff"] = coeff
        with pytest.raises(BadInput, match=message):
            diagram_from_json(doc, b2)

    def test_rejects_fractional_normal(self, b2):
        doc = diagram_to_json(b2, complete_rank2(b2, 4))
        doc["walls"][0]["normal"] = [1.5, 1]
        with pytest.raises(BadInput):
            diagram_from_json(doc, b2)

    def test_rejects_ray_off_its_wall(self, a2):
        doc = diagram_to_json(a2, complete_rank2(a2, 4))
        assert doc["walls"][2]["normal"] == [1, 1]
        doc["walls"][2]["rays"] = [[1, 0]]
        with pytest.raises(BadInput, match="wall 2: ray"):
            diagram_from_json(doc, a2)

    def test_rejects_wall_with_no_rays(self, a2):
        # read back, it would make diagram_to_svg raise a bare IndexError
        doc = diagram_to_json(a2, complete_rank2(a2, 3))
        doc["walls"][2]["rays"] = []
        with pytest.raises(BadInput, match="wall 2: rays must not be empty"):
            diagram_from_json(doc, a2)

    @pytest.mark.parametrize("field", ["walls", "rays"])
    def test_rejects_object_for_a_list(self, a2, field):
        # tuple() of a JSON object yields its keys: {} must not read as no walls or rays
        doc = diagram_to_json(a2, complete_rank2(a2, 3))
        if field == "walls":
            doc["walls"] = {}
        else:
            doc["walls"][2]["rays"] = {}
        with pytest.raises(BadInput, match="must be a list, got dict"):
            diagram_from_json(doc, a2)

    @pytest.mark.parametrize("rays", [[[0, 0]], [[1, -1, 5]]], ids=["zero", "too-long"])
    def test_rejects_ray_of_wrong_shape(self, a2, rays):
        # read back, either would make the re-check raise a bare ValueError
        # or a false inconsistency_found
        doc = diagram_to_json(a2, complete_rank2(a2, 3))
        doc["walls"][2]["rays"] = rays
        with pytest.raises(BadInput, match="wall 2: ray must be a nonzero 2-vector"):
            diagram_from_json(doc, a2)

    def test_factored_field_present(self, a2):
        doc = diagram_to_json(a2, complete_rank2(a2, 4))
        factored = {w["factored"] for w in doc["walls"]}
        assert factored == {"Psi[1,0]^1", "Psi[0,1]^1", "Psi[1,1]^1"}

    def test_svg_deterministic(self, a2, kronecker):
        graph = enumerate_graph(a2)
        diagram = complete_rank2(a2, 4)
        assert diagram_to_svg(a2, diagram) == diagram_to_svg(a2, diagram)
        assert diagram_to_svg(a2, diagram).startswith("<svg")
        fan = fan_to_svg(a2, graph)
        assert fan == fan_to_svg(a2, enumerate_graph(a2))
        kg = enumerate_graph(kronecker, max_depth=5)
        assert fan_to_svg(kronecker, kg).startswith("<svg")

    def test_equal_keys_in_distinct_objects_name_alike(self):
        """``report_to_json`` names keys by object; equal keys held in
        distinct objects must still write the same bytes."""
        fd = validate_fixed_data(*LOOP_PATTERNS["A4"])
        report = verify_loop_consistency(fd, enumerate_graph(fd), 3)
        copies = []
        for i, loop in enumerate(report.loops):
            vertices = loop.vertices
            if i % 2:  # every other loop holds copies; its neighbours keep the shared keys
                vertices = tuple(type(k)._make(k) for k in vertices)
                assert all(c == k and c is not k for c, k in zip(vertices, loop.vertices))
            copies.append(loop._replace(vertices=vertices))
        copied = report._replace(loops=tuple(copies))
        want = json.dumps(scattering_module.report_to_json(report), indent=2)
        assert json.dumps(scattering_module.report_to_json(copied), indent=2) == want


class TestLogWrittenWalls:
    """Wall elements are one-ray exps that hold their logs; their documents
    are written from the log, and no rank-2 step builds a PBW carrier."""

    @pytest.mark.parametrize("level", [7, 12, 20])
    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", ["Kronecker", "(3,3)", "B2", "G2"])
    def test_records_match_the_power_series(self, name, swapped, level):
        fd = rank2_order(name, swapped)
        diagram = complete_rank2(fd, level)
        alg = PbwAlgebra(fd.omega, level)
        records = diagram_to_json(fd, diagram)["walls"]
        assert len(records) == len(diagram.walls)
        for wall, record in zip(diagram.walls, records):
            x = alg.lie_element(wall.element.log_terms())
            want = json.dumps(element_to_json(power_series_exp(alg, x)), indent=2)
            assert json.dumps(record["element"], indent=2) == want, wall.normal

    @staticmethod
    def carriers_built(monkeypatch) -> list:
        """Every element with a constant term built from now on: a carrier,
        never a Lie element."""
        built = []
        init = liegroup.AlgebraElement.__init__

        def recorded(self, algebra, terms):
            init(self, algebra, terms)
            if () in self.terms:
                built.append(self)

        monkeypatch.setattr(liegroup.AlgebraElement, "__init__", recorded)
        return built

    @pytest.mark.parametrize("swapped", [False, True], ids=["order-01", "order-10"])
    @pytest.mark.parametrize("name", sorted(RANK2_PATTERNS))
    def test_rank2_steps_build_no_wall_carrier(self, name, swapped, monkeypatch):
        built = self.carriers_built(monkeypatch)
        fd = rank2_order(name, swapped)
        diagram = complete_rank2(fd, 8)
        assert verify_rank2_consistency(fd, diagram)
        diagram_to_json(fd, diagram)
        assert not built
        monkeypatch.undo()
        alg = PbwAlgebra(fd.omega, 8)
        for wall in diagram.walls:
            x = alg.lie_element(wall.element.log_terms())
            assert wall.element.carrier == power_series_exp(alg, x), wall.normal

    def test_carrier_is_read_only(self, a2):
        wall = complete_rank2(a2, 3).walls[0]
        with pytest.raises(AttributeError):
            wall.element.carrier = wall.element.carrier

    @pytest.mark.parametrize("name", sorted(RANK2_PATTERNS))
    def test_projection_builds_no_wall_carrier(self, name, monkeypatch):
        fd = rank2_order(name, False)
        diagram = complete_rank2(fd, 12)
        built = self.carriers_built(monkeypatch)
        projected = [wall.element.project(4) for wall in diagram.walls]
        assert not built
        monkeypatch.undo()
        alg = PbwAlgebra(fd.omega, 12)
        for wall, p in zip(diagram.walls, projected):
            assert p.algebra == PbwAlgebra(fd.omega, 4)
            assert p.carrier == alg.project(wall.element.carrier, 4), wall.normal


# hand-built one-wall A2 diagrams at level 3 that the reader refuses:
# (normal, rays, element level, the writer's message)
MALFORMED_WALLS = pytest.mark.parametrize(
    "normal, rays, level, message",
    [
        ((1, 1), ((1, 0),), 3, r"ray \(1, 0\) is not orthogonal to \(1, 1\)"),
        ((1, 1), ((0, 0),), 3, "ray must be a nonzero 2-vector"),
        ((2, 2), ((1, -1),), 3, "wall normal must be primitive"),
        ((1, 1), (), 3, "rays must not be empty"),
        ((1, 1), ((1, -1),), 2, "wall element is not at the diagram level 3"),
    ],
    ids=["off-wall-ray", "zero-ray", "non-primitive-normal", "no-ray", "element-level"],
)


def edited_terms(terms, edit, j):
    """``terms`` with term ``j`` given twice its coefficient, or dropped."""
    if edit == "coefficient":
        return terms[:j] + [dict(terms[j], coeff=str(2 * Fraction(terms[j]["coeff"])))] + terms[j + 1:]
    return terms[:j] + terms[j + 1:]


class TestLogReadWalls:
    """A wall element document is read as the exp of its one-letter terms,
    which must lie on one ray; no reader step runs the PBW engine."""

    @pytest.mark.parametrize("edit", ["coefficient", "dropped"])
    def test_every_single_word_edit_is_not_grouplike(self, kronecker, edit):
        """Each word but the constant term and a top log term: changing or
        dropping one of those gives the record of another one-ray exp."""
        doc = diagram_to_json(kronecker, complete_rank2(kronecker, 8))
        edits = 0
        for record in doc["walls"]:
            terms = record["element"]["terms"]
            in_words = {tuple(n) for t in terms if len(t["monomial"]) > 1 for n in t["monomial"]}
            for j, term in enumerate(terms):
                mono = term["monomial"]
                if not mono or len(mono) == 1 and tuple(mono[0]) not in in_words:
                    continue
                record["element"]["terms"] = edited_terms(terms, edit, j)
                with pytest.raises(NotGrouplike) as info:
                    diagram_from_json(doc, kronecker)
                assert info.value.code == "not_grouplike"
                edits += 1
            record["element"]["terms"] = terms
        assert edits > 60
        assert diagram_from_json(doc, kronecker).walls == complete_rank2(kronecker, 8).walls

    @pytest.mark.parametrize(
        "edit, error, code",
        [
            ("added word", NotGrouplike, "not_grouplike"),
            ("one-letter term off the ray", BadInput, "bad_input"),
        ],
    )
    def test_central_wall_edit_is_refused(self, kronecker, edit, error, code):
        doc = diagram_to_json(kronecker, complete_rank2(kronecker, 8))
        (wall,) = [w for w in doc["walls"] if w["normal"] == [1, 1]]
        terms = wall["element"]["terms"]
        if edit == "added word":
            terms.append({"monomial": sorted([[1, 0], [0, 1]], key=linalg.letter_key), "coeff": "1"})
        else:
            (term,) = [t for t in terms if t["monomial"] == [[2, 2]]]
            term["monomial"] = [[3, 1]]
        with pytest.raises(error) as info:
            diagram_from_json(doc, kronecker)
        assert info.value.code == code

    def test_read_wall_holds_its_log_alone(self, kronecker, monkeypatch):
        """Each wall read back builds its carrier on first read, once."""
        walls = complete_rank2(kronecker, 8).walls
        read = diagram_from_json(diagram_to_json(kronecker, ScatteringDiagram(8, walls)), kronecker)
        built = TestLogWrittenWalls.carriers_built(monkeypatch)
        for wall, back in zip(walls, read.walls):
            assert back.element.log_terms() == wall.element.log_terms()
            assert not built
            carrier = back.element.carrier
            assert built == [carrier] and back.element.carrier is carrier, wall.normal
            assert carrier == wall.element.carrier
            built.clear()

    @pytest.mark.parametrize(
        "log", [{(1, 0): 1}, {(1, 1): 1, (1, 0): 1}], ids=["another-ray", "two-rays"]
    )
    def test_off_ray_wall_is_not_written(self, a2, log):
        alg = PbwAlgebra(a2.omega, 3)
        wall = Wall(normal=(1, 1), rays=((1, -1),), element=alg.exp(alg.lie_element(log)))
        with pytest.raises(ValueError, match="not supported on multiples of"):
            diagram_to_json(a2, ScatteringDiagram(level=3, walls=(wall,)))

    @MALFORMED_WALLS
    def test_writer_refuses_each_wall_the_reader_refuses(self, a2, normal, rays, level, message):
        alg = PbwAlgebra(a2.omega, level)
        wall = Wall(normal=normal, rays=rays, element=alg.dilog((1, 1), 1))
        with pytest.raises(ValueError, match=message):
            diagram_to_json(a2, ScatteringDiagram(level=3, walls=(wall,)))

    @staticmethod
    def refusals(fd, diagram) -> list:
        """The error of the writer, of the re-check and of the SVG on one diagram."""
        errors = []
        for check in (diagram_to_json, verify_rank2_consistency, diagram_to_svg):
            with pytest.raises(ValueError) as info:
                check(fd, diagram)
            errors.append((type(info.value), str(info.value)))
        return errors

    @MALFORMED_WALLS
    def test_verify_refuses_what_the_writer_refuses(self, a2, normal, rays, level, message):
        alg = PbwAlgebra(a2.omega, level)
        wall = Wall(normal=normal, rays=rays, element=alg.dilog((1, 1), 1))
        writer, verify, svg = self.refusals(a2, ScatteringDiagram(level=3, walls=(wall,)))
        assert writer == verify == svg
        assert writer[0] is ValueError and re.search(message, writer[1])

    # verify once returned True at levels 5 and 7 and reported an inconsistency at 3
    @pytest.mark.parametrize("wall_level", [3, 5, 7])
    def test_wall_off_the_diagram_level_is_refused_alike(self, a2, wall_level):
        diagram = complete_rank2(a2, 6)
        first = complete_rank2(a2, wall_level).walls[0]
        assert first.normal == diagram.walls[0].normal
        moved = diagram._replace(walls=(first,) + diagram.walls[1:])
        want = (ValueError, "wall element is not at the diagram level 6")
        assert self.refusals(a2, moved) == [want, want, want]

    @pytest.mark.parametrize("name", ["Kronecker", "G2"])
    def test_verify_reads_each_wall_log_once(self, name, monkeypatch):
        """The sweep records take the table ``validate_wall`` returns."""
        fd = rank2_order(name, False)
        diagram = complete_rank2(fd, 10)
        tables, logs = [], []
        coefficients, log_terms = scattering_module.ray_coefficients, GroupElement.log_terms

        def counted_table(n, log):
            tables.append(n)
            return coefficients(n, log)

        def counted_log(self):
            logs.append(self)
            return log_terms(self)

        monkeypatch.setattr(scattering_module, "ray_coefficients", counted_table)
        monkeypatch.setattr(GroupElement, "log_terms", counted_log)
        assert verify_rank2_consistency(fd, diagram)
        assert tables == [wall.normal for wall in diagram.walls]
        assert list(map(id, logs)) == [id(wall.element) for wall in diagram.walls]

    @pytest.mark.parametrize("matrix", ["[[0,2],[-2,0]]", "[[0,3],[-3,0]]"])
    def test_scatter2_and_read_back_run_no_pbw_engine(self, matrix, monkeypatch, capsys):
        def refuse(*args):
            raise AssertionError("the PBW engine ran")

        monkeypatch.setattr(liegroup, "_series", refuse)
        monkeypatch.setattr(liegroup.PbwAlgebra, "_straighten", refuse)
        monkeypatch.setattr(liegroup.AlgebraElement, "_product", refuse)
        argv = ["scatter2", "--matrix", matrix, "--delta", "[1,1]", "--level", "12"]
        assert cli.main(argv) == 0
        fd = validate_fixed_data(json.loads(matrix), [1, 1])
        diagram = diagram_from_json(json.loads(capsys.readouterr().out), fd)
        assert verify_rank2_consistency(fd, diagram)


A2_INLINE = ["--matrix", "[[0,1],[-1,0]]", "--delta", "[1,1]"]


def cli_error(argv, capsys):
    """Run ``cli.main`` in process; the exit status must be 1, return the payload."""
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    return json.loads(captured.err)


def lowest_log_part(element):
    """The lowest-degree part of a PBW element's log, read off PBW alone."""
    log = {n: c for n, c in element.log_terms().items() if c}
    low = min(map(degree, log))
    return {n: c for n, c in log.items() if degree(n) == low}


def loop_product(fd, graph, loop, level):
    """The PBW product of a reported loop, its crossings read off the graph."""
    cs, _ = _cycle_crossings(graph, _crossing_table(fd, graph), loop)
    return path_ordered_product(fd, cs, level)


def recheck_product(fd, diagram, level, start=(1, 1)):
    """The PBW product of the clockwise sweep from ``start``: from (1, 1) by
    default, the loop ``verify_rank2_consistency`` checks."""
    walls = [(w.rays, w.normal, w.element.log_terms()) for w in diagram.walls]
    return pbw_sweep_product(fd, signed_log_sweep(fd, walls, start, clockwise=True), level)


def witness_terms(terms):
    return [{"vector": list(n), "coeff": str(c)} for n, c in sorted(terms.items())]


class TestInternalErrors:
    """A broken invariant is ``internal_error`` with exit 1, never a traceback."""

    def check(self, exc):
        assert isinstance(exc, GreenfanError) and isinstance(exc, RuntimeError)
        assert exc.code == "internal_error"
        assert cli._error_payload(exc) == {"error": "internal_error", "detail": str(exc)}

    def test_completion_stage_check(self, a2, monkeypatch, capsys):
        # a defect of degree 2 at every stage: stage 3 must refuse it
        monkeypatch.setattr(TorusAction, "lowest_log_terms", lambda self: {(1, 1): Fraction(1)})
        with pytest.raises(InternalError, match="stage 3") as info:
            complete_rank2(a2, 4)
        self.check(info.value)
        err = cli_error(["scatter2"] + A2_INLINE + ["--level", "4"], capsys)
        assert err["error"] == "internal_error"

    @pytest.mark.parametrize(
        "normal, message", [((2, 0), "not primitive"), ((1, 1), "not orthogonal")]
    )
    def test_facet_wall_checks(self, a2, normal, message, monkeypatch):
        monkeypatch.setattr(scattering_module, "_crossing_normal", lambda seed, k: (1, normal))
        with pytest.raises(InternalError, match=message) as info:
            facet_wall(a2, root_seed(a2), 0, 2)
        self.check(info.value)

    def test_certify_root_check(self, a2, monkeypatch, capsys):
        graph = enumerate_graph(a2)
        # vertex 1 takes id 0, so the arc from the root into it points into id 0
        keys = list(graph.vertices)
        swap = [1, 0] + list(range(2, len(keys)))
        rerooted = graph._replace(
            vertices={keys[i]: graph.vertices[keys[i]] for i in swap},
            arcs=tuple((swap[s], swap[t], k) for s, t, k in graph.arcs),
        )
        with pytest.raises(InternalError, match="root") as info:
            certify_acyclic(rerooted)
        self.check(info.value)
        monkeypatch.setattr(exchange, "enumerate_graph", lambda fd, **budgets: rerooted)
        err = cli_error(["certify"] + A2_INLINE, capsys)
        assert err["error"] == "internal_error"


class TestFailureWitness:
    """A failed loop or sweep names its lowest-degree defect in the payload."""

    def test_failing_loop(self, a2, monkeypatch, capsys):
        graph = enumerate_graph(a2)
        src, dst, _ = graph.edges[0]
        invert_edge_crossings(monkeypatch, graph, src, dst)
        with pytest.raises(InconsistencyFound) as info:
            verify_loop_consistency(a2, graph, 4)
        lowest = lowest_log_part(loop_product(a2, graph, info.value.loop, 4))
        assert info.value.lowest == lowest
        err = cli_error(["consistency"] + A2_INLINE + ["--level", "4"], capsys)
        assert err["error"] == "inconsistency_found"
        assert err["loop"]
        assert err["min_degree"] == degree(next(iter(lowest)))
        assert err["terms"] == witness_terms(lowest)

    def test_failing_sweep(self, a2, monkeypatch, capsys):
        complete = complete_rank2(a2, 4)
        broken = ScatteringDiagram(level=4, walls=complete.walls[:-1])
        with pytest.raises(InconsistencyFound) as info:
            verify_rank2_consistency(a2, broken)
        lowest = lowest_log_part(recheck_product(a2, broken, 4))
        assert info.value.lowest == lowest
        monkeypatch.setattr(scattering_module, "complete_rank2", lambda fd, level: broken)
        err = cli_error(["scatter2"] + A2_INLINE + ["--level", "4"], capsys)
        assert set(err) == {"error", "detail", "min_degree", "terms"}
        assert err["min_degree"] == degree(next(iter(lowest)))
        assert err["terms"] == witness_terms(lowest)

    def test_failing_checks_do_no_pbw_arithmetic(self, a2, kronecker, monkeypatch):
        graph = enumerate_graph(a2)
        src, dst, _ = graph.edges[0]
        invert_edge_crossings(monkeypatch, graph, src, dst)
        complete = complete_rank2(kronecker, 12)
        broken = ScatteringDiagram(level=12, walls=complete.walls[:-1])

        def refuse(*args):
            raise AssertionError("a failing check did PBW arithmetic")

        with monkeypatch.context() as patch:
            patch.setattr(PbwAlgebra, "_straighten", refuse)
            patch.setattr(PbwAlgebra, "exp", refuse)
            patch.setattr(GroupElement, "__mul__", refuse)
            with pytest.raises(InconsistencyFound) as loop:
                verify_loop_consistency(a2, graph, 4)
            with pytest.raises(InconsistencyFound) as sweep:
                verify_rank2_consistency(kronecker, broken)
        assert loop.value.lowest == lowest_log_part(loop_product(a2, graph, loop.value.loop, 4))
        # the defect has degree 3, so the oracle's level-4 product has the same lowest part
        assert sweep.value.lowest == {(2, 1): Fraction(1)}
        assert sweep.value.lowest == lowest_log_part(recheck_product(kronecker, broken, 4))
