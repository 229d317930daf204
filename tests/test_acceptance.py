"""Acceptance suite: the seven gates this package must clear.

Each test prints exactly one PASS/FAIL line (run with ``-s`` to see them all
live); every comparison is exact rational arithmetic, no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction

from greenfan import (
    GroupElement,
    PbwAlgebra,
    canonical_key,
    certify_acyclic,
    complete_rank2,
    crossing_sequence_from_normals,
    delta_exponent,
    diagram_from_json,
    diagram_to_json,
    enumerate_graph,
    factor_dilog_power,
    minimal_degree_obstruction,
    mutate_seed,
    path_ordered_product,
    root_seed,
    validate_fixed_data,
    verify_loop_consistency,
    verify_rank2_consistency,
)
from greenfan.laurent import (
    extract_c_matrix,
    extract_g_vector,
    root_symbolic_seed,
    symbolic_mutate,
)
from greenfan.liegroup import degree

from support import (
    cluster_fingerprint,
    element_words,
    oracle_multiply,
    random_algebra_element,
    random_fixed_data,
    random_positive_vector,
    solve_columns,
)

FIXTURES = {
    "A2": ([[0, 1], [-1, 0]], [1, 1], 5),
    "B2": ([[0, 1], [-2, 0]], [1, 2], 6),
    "G2": ([[0, 1], [-3, 0]], [1, 3], 8),
    "A3": ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1], 14),
    "B3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], [1, 1, 2], 20),
    "A4": ([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], [1, 1, 1, 1], 42),
    "D4": ([[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]], [1, 1, 1, 1], 50),
}


def _fixed(name):
    b, delta, _ = FIXTURES[name]
    return validate_fixed_data(b, delta)


def _report(number, failures, text):
    status = "PASS" if not failures else "FAIL (%s)" % "; ".join(failures[:3])
    print("ACCEPTANCE %d %s: %s" % (number, status, text))
    assert not failures, failures


def test_criterion_1_finite_type_enumeration():
    failures = []
    timings = []
    for name, (b, delta, expected) in FIXTURES.items():
        fd = validate_fixed_data(b, delta)
        start = time.perf_counter()
        graph = enumerate_graph(fd)
        order = certify_acyclic(graph)
        elapsed = time.perf_counter() - start
        timings.append("%s %.3fs" % (name, elapsed))
        if graph.status != "complete":
            failures.append("%s not complete" % name)
        if len(graph.vertices) != expected:
            failures.append("%s has %d seeds" % (name, len(graph.vertices)))
        if order[0] != graph.root:
            failures.append("%s order does not start at the root" % name)
        in_deg = {key: 0 for key in graph.vertices}
        for _, dst, _ in graph.edges:
            in_deg[dst] += 1
        if [k for k, d in in_deg.items() if d == 0] != [graph.root]:
            failures.append("%s root is not the unique source" % name)
        if elapsed >= 1.0:
            failures.append("%s took %.2fs" % (name, elapsed))
    counts = "/".join(str(expected) for _, _, expected in FIXTURES.values())
    _report(1, failures, "counts %s, acyclic, root unique source (%s)" % (counts, ", ".join(timings)))


def test_criterion_2_structural_invariants():
    failures = []
    seeds_checked = 0
    cases = [_fixed(name) for name in FIXTURES]
    cases.append(validate_fixed_data([[0, 2], [-2, 0]], [1, 1]))  # infinite type
    for fd in cases:
        graph = enumerate_graph(fd, max_depth=6)
        d_rows = tuple(
            tuple(fd.d[i] if i == j else 0 for j in range(fd.rank))
            for i in range(fd.rank)
        )
        for seed in graph.vertices.values():
            seeds_checked += 1
            r = fd.rank
            gtdc = tuple(
                tuple(
                    sum(seed.g[i][a] * fd.d[i] * seed.c[i][b] for i in range(r))
                    for b in range(r)
                )
                for a in range(r)
            )
            if gtdc != d_rows:
                failures.append("duality broken at %r" % (seed.path,))
            for k in range(r):
                col = seed.c_column(k)
                if not any(col) or (any(x > 0 for x in col) and any(x < 0 for x in col)):
                    failures.append("sign-incoherent column at %r" % (seed.path,))
    _report(2, failures, "GtDC = D and sign-coherence on %d seeds, exact" % seeds_checked)


def test_criterion_3_loop_consistency_to_level_8():
    failures = []
    start = time.perf_counter()
    loops_checked = 0
    for name in FIXTURES:
        fd = _fixed(name)
        graph = enumerate_graph(fd)
        for level in range(1, 9):
            report = verify_loop_consistency(fd, graph, level)
            loops_checked += len(report.loops)
            if any(not loop.identity for loop in report.loops):
                failures.append("%s level %d" % (name, level))
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append("took %.1fs" % elapsed)
    _report(
        3,
        failures,
        "cycle-basis products identity for l=1..8 (%d loop checks, %.2fs)"
        % (loops_checked, elapsed),
    )


def test_criterion_4_random_all_green_obstructions():
    rng = random.Random(20260816)
    failures = []
    for trial in range(200):
        fd = random_fixed_data(rng)
        normals = [
            random_positive_vector(rng, fd.rank, max_entry=3, primitive=True)
            for _ in range(rng.randint(1, 5))
        ]
        cs = crossing_sequence_from_normals(fd, [(n, 1) for n in normals])
        level = min(degree(n) for n in normals)
        result = minimal_degree_obstruction(cs)
        alg = PbwAlgebra(fd.omega, level)
        expected_witness = {}
        for n in normals:
            if degree(n) == level:
                expected_witness[n] = expected_witness.get(n, Fraction(0)) + delta_exponent(
                    n, fd.delta
                )
        product = path_ordered_product(fd, cs, level)
        if product != alg.exp(alg.lie_element(expected_witness)):
            failures.append("trial %d: projection != exp(witness)" % trial)
        if product.is_identity() or result.witness != expected_witness:
            failures.append("trial %d: witness wrong or vanished" % trial)
        if result.min_degree != level:
            failures.append("trial %d: wrong minimal degree" % trial)
    _report(4, failures, "200 random all-green sequences give nonzero exp-witnesses, exact")


def test_criterion_5_rank_two_completions():
    failures = []
    start = time.perf_counter()

    a2 = validate_fixed_data([[0, 1], [-1, 0]], [1, 1])
    diagram = complete_rank2(a2, 8)
    extra = [w for w in diagram.walls if len(w.rays) == 1]
    if len(extra) != 1 or factor_dilog_power(a2, extra[0]) != "Psi[1,1]^1":
        failures.append("A2 completion shape")
    try:
        verify_rank2_consistency(a2, diagram)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        failures.append("A2 re-verification: %s" % exc)

    b2 = validate_fixed_data([[0, 1], [-2, 0]], [1, 2])
    diagram = complete_rank2(b2, 8)
    extra = [w for w in diagram.walls if len(w.rays) == 1]
    if len(extra) != 2:
        failures.append("B2 completion has %d non-initial walls" % len(extra))
    try:
        verify_rank2_consistency(b2, diagram)
    except Exception as exc:  # noqa: BLE001
        failures.append("B2 re-verification: %s" % exc)

    kron = validate_fixed_data([[0, 2], [-2, 0]], [1, 1])
    diagram = complete_rank2(kron, 6)
    try:
        verify_rank2_consistency(kron, diagram)
    except Exception as exc:  # noqa: BLE001
        failures.append("Kronecker re-verification: %s" % exc)

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append("took %.1fs" % elapsed)
    _report(
        5,
        failures,
        "A2 -> {Psi[1,1]}, B2 -> two walls, Kronecker l=6 consistent; "
        "independent clockwise re-verification (%.2fs)" % elapsed,
    )


def test_criterion_5_rank_two_completions_at_level_20():
    """Completion plus re-verification at l=20, each pattern under 1 s."""
    failures = []
    timings = []
    patterns = {
        "Kronecker": ([[0, 2], [-2, 0]], [1, 1]),
        "G2": ([[0, 1], [-3, 0]], [1, 3]),
        "(3,3)": ([[0, 3], [-3, 0]], [1, 1]),
    }
    for name, (b, delta) in patterns.items():
        fd = validate_fixed_data(b, delta)
        start = time.perf_counter()
        diagram = complete_rank2(fd, 20)
        try:
            verify_rank2_consistency(fd, diagram)
        except Exception as exc:  # noqa: BLE001 - reported as a failure
            failures.append("%s re-verification: %s" % (name, exc))
        elapsed = time.perf_counter() - start
        timings.append("%s %.3fs" % (name, elapsed))
        if elapsed >= 1.0:
            failures.append("%s took %.2fs" % (name, elapsed))
    _report(5, failures, "l=20 completions re-verified (%s)" % ", ".join(timings))


def test_criterion_5_kronecker_document_at_level_24():
    """The Kronecker diagram at l=24 is written, read back and re-verified
    under 10 s, and the read-back diagram writes the same bytes."""
    failures = []
    kron = validate_fixed_data([[0, 2], [-2, 0]], [1, 1])
    start = time.perf_counter()
    text = json.dumps(diagram_to_json(kron, complete_rank2(kron, 24)), indent=2)
    back = diagram_from_json(json.loads(text), kron)
    try:
        verify_rank2_consistency(kron, back)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        failures.append("re-verification: %s" % exc)
    elapsed = time.perf_counter() - start
    if elapsed >= 10.0:
        failures.append("took %.1fs" % elapsed)
    if json.dumps(diagram_to_json(kron, back), indent=2) != text:
        failures.append("the read-back diagram writes other bytes")
    _report(5, failures, "Kronecker l=24 document read back and re-verified (%.2fs)" % elapsed)


def _c_from_duality(fd, g_columns):
    """C = D^-1 (G^-1)^T D, from G^T D C = D with G given by its columns.

    Column i of G^-1 solves G x = e_i, so C[i][j] = x_j * d_j / d_i.
    """
    r = fd.rank
    inverse_columns = [
        solve_columns(g_columns, [int(i == j) for j in range(r)]) for i in range(r)
    ]
    return tuple(
        tuple(inverse_columns[i][j] * Fraction(fd.d[j], fd.d[i]) for j in range(r))
        for i in range(r)
    )


def test_criterion_6_oracle_equivalence_to_depth_6():
    failures = []
    fingerprint_by_key = {}
    pairs_checked = 0
    cases = {name: _fixed(name) for name in FIXTURES}
    cases["Kronecker"] = validate_fixed_data([[0, 2], [-2, 0]], [1, 1])
    for name, fd in cases.items():
        fingerprint_by_key.clear()
        frontier = [(root_seed(fd), root_symbolic_seed(fd), None)]
        for depth in range(7):
            new_frontier = []
            for tropical, symbolic, last in frontier:
                pairs_checked += 1
                if extract_c_matrix(symbolic) != tropical.c:
                    failures.append("%s: C mismatch at %r" % (name, tropical.path))
                g_sym = [extract_g_vector(x, fd) for x in symbolic.variables]
                if g_sym != [tropical.g_column(j) for j in range(fd.rank)]:
                    failures.append("%s: G mismatch at %r" % (name, tropical.path))
                if _c_from_duality(fd, g_sym) != tropical.c:
                    failures.append("%s: C is not D^-1 G^-T D at %r" % (name, tropical.path))
                key = canonical_key(tropical)
                fp = cluster_fingerprint(symbolic)
                if fingerprint_by_key.setdefault(key, fp) != fp:
                    failures.append("%s: same key, different clusters" % name)
                if depth == 6:
                    continue
                for k in range(fd.rank):
                    if k == last:
                        continue
                    new_frontier.append(
                        (mutate_seed(fd, tropical, k), symbolic_mutate(symbolic, k), k)
                    )
            frontier = new_frontier
        values = list(fingerprint_by_key.values())
        if len(set(values)) != len(fingerprint_by_key):
            failures.append("%s: distinct keys share a cluster" % name)
    _report(
        6,
        failures,
        "tropical C/G equals symbolic extraction, and C equals D^-1 G^-T D of the "
        "symbolic g-vectors, on %d seeds to depth 6; "
        "key equality = cluster equality" % pairs_checked,
    )


def test_criterion_7_algebra_kernel():
    failures = []
    rng = random.Random(77)

    for _ in range(50):
        fd = random_fixed_data(rng)
        alg = PbwAlgebra(fd.omega, rng.randint(1, 8))
        coeffs = {
            random_positive_vector(rng, fd.rank): Fraction(
                rng.randint(-3, 3), rng.randint(1, 4)
            )
            for _ in range(rng.randint(1, 3))
        }
        x = alg.lie_element(coeffs)
        g = alg.exp(x)
        # neither a fresh element nor a product caches its log: both run the series
        if alg.lie_element(GroupElement(g.carrier).log_terms()) != x:
            failures.append("log(exp) misses")
        square = g * g
        if alg.exp(alg.lie_element(square.log_terms())) != square:
            failures.append("exp(log) misses")

    for trial in range(200):
        fd = random_fixed_data(rng)
        level = rng.randint(2, 6)
        alg = PbwAlgebra(fd.omega, level)
        x = random_algebra_element(alg, rng)
        y = random_algebra_element(alg, rng)
        engine = element_words(x * y)
        oracle = oracle_multiply(element_words(x), element_words(y), fd.omega, level)
        if engine != oracle:
            failures.append("straightening mismatch at trial %d" % trial)

    for _ in range(50):
        fd = random_fixed_data(rng, rank=2)
        alg = PbwAlgebra(fd.omega, rng.randint(1, 6))
        n = random_positive_vector(rng, 2)
        c1 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        c2 = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if alg.dilog(n, c1) * alg.dilog(n, c2) != alg.dilog(n, c1 + c2):
            failures.append("dilog additivity broke")

    _report(
        7,
        failures,
        "exp/log inverse (50x), engine = word oracle on 200 products at l<=6, "
        "dilog power additivity (50x), all exact",
    )
