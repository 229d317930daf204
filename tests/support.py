"""Shared helpers for the test suite.

The word-rewriting oracle here re-implements noncommutative multiplication
from scratch: elements are dictionaries of raw words (tuples of generator
index vectors), and out-of-order adjacent pairs are rewritten one at a time,
always at the *last* descent, with no memoization.  The engine under test
orders at the first descent and caches aggressively, so agreement between
the two is a real confluence check rather than the same code run twice.
"""

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from greenfan import (
    BadInput,
    ConsistencyReport,
    Crossing,
    CrossingSequence,
    FixedData,
    IncompleteGraph,
    InconsistencyFound,
    InternalError,
    InvalidWalk,
    OrientedExchangeGraph,
    PbwAlgebra,
    ScatteringDiagram,
    SeedKey,
    SignIncoherent,
    TropicalSeed,
    Wall,
    canonical_key,
    dual_pairing,
    enumerate_graph,
    graph_to_json,
    key_to_str,
    mutate_seed,
    root_seed,
    validate_fixed_data,
)
from greenfan import exchange, scattering
from greenfan.linalg import as_int_matrix, delta_exponent
from greenfan.liegroup import TorusAction, degree
from greenfan.scattering import LoopReport


def word_key(n):
    return (sum(n), tuple(-x for x in n))


def pairing(omega, n, m):
    return sum(
        Fraction(n[i]) * omega[i][j] * m[j]
        for i in range(len(n))
        for j in range(len(m))
    )


def oracle_straighten(word, omega, level):
    """Normal-form coefficients of one word, by exhaustive rewriting."""
    out = {}
    stack = [(tuple(word), Fraction(1))]
    while stack:
        w, coeff = stack.pop()
        if sum(sum(n) for n in w) > level:
            continue
        descent = None
        for i in range(len(w) - 1):
            if word_key(w[i]) > word_key(w[i + 1]):
                descent = i
        if descent is None:
            out[w] = out.get(w, Fraction(0)) + coeff
            continue
        a, b = w[descent], w[descent + 1]
        stack.append((w[:descent] + (b, a) + w[descent + 2 :], coeff))
        c = pairing(omega, a, b)
        if c:
            merged = tuple(x + y for x, y in zip(a, b))
            stack.append((w[:descent] + (merged,) + w[descent + 2 :], coeff * c))
    return {w: c for w, c in out.items() if c}


def oracle_multiply(a_terms, b_terms, omega, level):
    """Product of two word dictionaries, fully rewritten."""
    out = {}
    for wa, ca in a_terms.items():
        for wb, cb in b_terms.items():
            for w, c in oracle_straighten(wa + wb, omega, level).items():
                coeff = out.get(w, Fraction(0)) + ca * cb * c
                if coeff:
                    out[w] = coeff
                else:
                    out.pop(w, None)
    return out


def power_series_exp(alg, a):
    """exp(a) as the power series sum_k a^k / k!, multiplied out in PBW.

    ``PbwAlgebra.exp`` sums this series only off one ray; on one ray it
    yields the words of a partition formula in order instead, with no
    products, and is held against this oracle.
    """
    result = power = alg.one()
    for k in range(1, alg.level + 1):
        power = power * a * Fraction(1, k)
        if not power.terms:
            break
        result = result + power
    return result


def transpose(m):
    return tuple(zip(*m)) if m else ()


def matmul(a, b):
    cols = transpose(b)
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a
    )


def det(m):
    """Determinant by exact Gaussian elimination over Fraction."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            sign = -sign
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] / a[col][col]
                for c in range(col, n):
                    a[r][c] -= f * a[col][c]
    out = Fraction(sign)
    for i in range(n):
        out *= a[i][i]
    return out


def brute_force_symmetrizer(b):
    """The least-sum D in 1..9^r with D*B skew-symmetric, or None.

    Tries every D, entry by entry, and drops a partial one as soon as an
    entry d_i b_ik + d_k b_ki (i <= k) it fixes is nonzero.  Within each
    connected part of B the valid D are the multiples of the minimal one,
    which is the one of least sum as long as its entries are at most 9.
    """
    r = len(b)
    found = []

    def extend(d):
        k = len(d)
        if k == r:
            found.append(d)
            return
        for x in range(1, 10):
            e = d + (x,)
            if all(e[i] * b[i][k] == -x * b[k][i] for i in range(k + 1)):
                extend(e)

    extend(())
    return min(found, key=sum, default=None)


def solve_columns(columns, target):
    """Solve ``sum_i x_i * columns[i] = target`` exactly.

    The columns must be linearly independent.  Returns the coefficient list
    (Fractions) or None when the system is inconsistent.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [
        [Fraction(columns[j][i]) for j in range(ncols)] + [Fraction(target[i])]
        for i in range(nrows)
    ]
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, nrows) if aug[r][col]), None)
        if piv is None:
            raise ValueError("columns are linearly dependent")
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(nrows):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        row += 1
    for r in range(row, nrows):
        if aug[r][ncols]:
            return None
    return [aug[i][ncols] for i in range(ncols)]


def is_green(seed, k):
    """True when the c-vector of direction ``k`` is positive."""
    return exchange._column_sign(seed.c_column(k), k) == 1


def key_from_str(text):
    """Read a key string ``key_to_str`` wrote; BadInput when it is malformed."""
    try:
        doc = json.loads(text)
        g = as_int_matrix(doc["g"])
        b = as_int_matrix(doc["B"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise BadInput("malformed seed key: %s" % exc) from exc
    return SeedKey(g_columns=g, b=b)


def cluster_fingerprint(seed):
    """The unordered cluster of a symbolic seed with y -> 1, hashable.

    Two labeled seeds lie in the same unlabeled class exactly when their
    fingerprints agree, which is what the canonical-key cross-check uses.
    """
    r = seed.rank
    polys = []
    for v in seed.variables:
        collapsed: dict[tuple, int] = {}
        for exps, c in v.terms.items():
            xs = exps[:r]
            nc = collapsed.get(xs, 0) + c
            if nc:
                collapsed[xs] = nc
            elif xs in collapsed:
                del collapsed[xs]
        polys.append(frozenset(collapsed.items()))
    return frozenset(polys)


def relabel_seed(seed, perm):
    """Apply a direction relabeling: conjugate B, permute C/G columns."""
    r = len(seed.b)
    b = tuple(tuple(seed.b[perm[i]][perm[j]] for j in range(r)) for i in range(r))
    c = tuple(tuple(row[perm[j]] for j in range(r)) for row in seed.c)
    g = tuple(tuple(row[perm[j]] for j in range(r)) for row in seed.g)
    return TropicalSeed(b=b, c=c, g=g, path=())


def dense_mutate_seed(fd, seed, k):
    """Matrix mutation entry by entry from the textbook formulas.

    The engine's ``mutate_seed`` touches only the rows and columns that
    change; this rebuilds all three matrices densely and is kept as its
    oracle.
    """
    r = fd.rank
    b, c, g = seed.b, seed.c, seed.g
    col = [c[i][k] for i in range(r)]
    if any(x > 0 for x in col) == any(x < 0 for x in col):
        raise SignIncoherent("c-vector %r is zero or mixes signs" % (col,))
    eps = 1 if any(x > 0 for x in col) else -1

    def pos(x):
        return x if x > 0 else 0

    new_b = tuple(
        tuple(
            -b[i][j]
            if i == k or j == k
            else b[i][j] + pos(b[i][k]) * pos(b[k][j]) - pos(-b[i][k]) * pos(-b[k][j])
            for j in range(r)
        )
        for i in range(r)
    )
    new_c = tuple(
        tuple(
            -c[i][j]
            if j == k
            else c[i][j] + pos(c[i][k]) * pos(b[k][j]) - pos(-c[i][k]) * pos(-b[k][j])
            for j in range(r)
        )
        for i in range(r)
    )
    new_g = tuple(
        tuple(
            g[i][j]
            if j != k
            else -g[i][k] + sum(pos(-eps * b[jj][k]) * g[i][jj] for jj in range(r) if jj != k)
            for j in range(r)
        )
        for i in range(r)
    )
    return TropicalSeed(b=new_b, c=new_c, g=new_g, path=seed.path + (k,))


def full_mutation_enumerate_graph(fd, max_vertices=100000, max_depth=12):
    """Exchange-graph enumeration that mutates every neighbour in full.

    ``enumerate_graph`` identifies a neighbour by one new g-column and
    mutates only on discovery; this keys every mutated neighbour and decides
    a red edge by comparing all three matrices, and is kept as its oracle.
    """
    root = root_seed(fd)
    rkey = canonical_key(root)
    vertices = {rkey: root}
    id_of = {rkey: 0}
    depth_of = {rkey: 0}
    arcs = {}  # an ordered set of (src, dst, k) by vertex id
    queue = deque([rkey])
    truncated = False
    depth_reached = 0
    while queue:
        key = queue.popleft()
        seed = vertices[key]
        depth = depth_of[key]
        depth_reached = max(depth_reached, depth)
        if depth >= max_depth:
            truncated = True
            continue
        came_by = seed.path[-1] if seed.path else None
        # mutate_seed checks each c-vector's sign coherence, so a positive
        # entry is enough to show that a direction is green
        green = [max(col) > 0 for col in zip(*seed.c)]
        for k in range(fd.rank):
            if k == came_by:
                continue
            neighbor = mutate_seed(fd, seed, k)
            nkey = canonical_key(neighbor)
            if nkey not in vertices:
                if len(vertices) >= max_vertices:
                    truncated = True
                    continue
                vertices[nkey] = neighbor
                id_of[nkey] = len(id_of)
                depth_of[nkey] = depth + 1
                queue.append(nkey)
            if green[k]:
                arcs[id_of[key], id_of[nkey], k] = None
            elif vertices[nkey].same_matrices(neighbor):
                arcs[id_of[nkey], id_of[key], k] = None
    return OrientedExchangeGraph(
        vertices=vertices,
        arcs=tuple(arcs),
        status="truncated" if truncated else "complete",
        depth_reached=depth_reached,
    )


def _fundamental_cycles(graph: OrientedExchangeGraph):
    """Cycle basis of the underlying undirected graph via a BFS tree.

    Returns the cycles and the tree's parent map, whose keys are in BFS order.
    """
    index = {key: i for i, key in enumerate(graph.vertices)}
    adj: dict[SeedKey, list[SeedKey]] = {key: [] for key in graph.vertices}
    undirected = set()
    for src, dst, _ in graph.edges:
        pair = (src, dst) if index[src] <= index[dst] else (dst, src)
        if pair in undirected:
            continue
        undirected.add(pair)
        adj[src].append(dst)
        adj[dst].append(src)
    for key in adj:
        adj[key].sort(key=index.get)
    parent: dict[SeedKey, SeedKey | None] = {graph.root: None}
    queue = deque([graph.root])
    tree_edges = set()
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                pair = (u, v) if index[u] <= index[v] else (v, u)
                tree_edges.add(pair)
                queue.append(v)

    def root_path(x):
        path = [x]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        return path[::-1]  # root .. x

    cycles = []
    for u, v in sorted(undirected, key=lambda p: (index[p[0]], index[p[1]])):
        if (u, v) in tree_edges:
            continue
        ru, rv = root_path(u), root_path(v)
        common = 0
        while common < min(len(ru), len(rv)) and ru[common] == rv[common]:
            common += 1
        # u up to the meeting vertex, then down to v; edge (v, u) closes it
        cycle = list(reversed(ru[common - 1:])) + rv[common:]
        cycles.append(cycle)
    return cycles, parent


def _crossing_table(fd: FixedData, graph: OrientedExchangeGraph):
    """Per vertex, the crossing of the facet opposite each g-vector.

    Duality pairs every g-vector of a seed with one c-vector whatever the
    labels, so the stored seed of a vertex stands for every seed with its key.
    """
    table = {}
    exponents = {}  # many vertices share a normal
    for key, seed in graph.vertices.items():
        row = {}
        for k in range(fd.rank):
            sign, normal = scattering._crossing_normal(seed, k)
            if normal not in exponents:
                exponents[normal] = delta_exponent(normal, fd.delta)
            row[seed.g_column(k)] = Crossing(normal, sign, exponents[normal])
        if tuple(sorted(row)) != key.g_columns:
            raise InvalidWalk("stored seed does not match its key %s" % key_to_str(key))
        table[key] = row
    return table


def _cycle_crossings(graph: OrientedExchangeGraph, table, cycle):
    """The crossing sequence and the direction word of a key cycle, read off the graph.

    Tracks the g-vector of each label from the stored seed of ``cycle[0]``:
    a step mutates the one label whose g-vector the next key lacks, and
    crosses the facet opposite that g-vector.
    """
    labels = list(zip(*graph.vertices[cycle[0]].g))  # the g-vector of each label
    crossings = []
    directions = []
    for source, target in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        kept = set(target.g_columns)
        gone = [k for k, g in enumerate(labels) if g not in kept]
        fresh = kept.difference(labels)
        if len(gone) != 1 or len(fresh) != 1:
            raise InvalidWalk("cycle vertices are not adjacent in the pattern")
        k = gone[0]
        crossings.append(table[source][labels[k]])
        directions.append(k)
        labels[k] = fresh.pop()
    if tuple(sorted(labels)) != cycle[0].g_columns:
        raise InvalidWalk("cycle walk did not close up")
    return CrossingSequence(crossings=tuple(crossings)), tuple(directions)


def per_cycle_loop_consistency(fd, graph, level):
    """Loop consistency with one fresh torus product per fundamental cycle.

    ``verify_loop_consistency`` resolves each edge once on vertex ids and
    compares products along the BFS tree; this builds its own cycle basis on
    keys, reads every cycle's crossings off a per-vertex table, multiplies
    them out from the identity and is kept as its oracle.  The crossing
    reader ``scattering._crossing_normal`` is looked up at call time, so a
    test that patches it faults both checks.
    """
    if graph.status != "complete":
        raise IncompleteGraph("loop consistency needs a complete graph")
    table = _crossing_table(fd, graph)
    cycles, _ = _fundamental_cycles(graph)
    reports = []
    for cycle in cycles:
        cs, directions = _cycle_crossings(graph, table, cycle)
        action = TorusAction(fd.omega, level)
        for crossing in cs.crossings:
            action.apply_dilog(crossing.normal, crossing.sign * crossing.exponent)
        if not action.is_identity():
            raise InconsistencyFound(cycle, action.lowest_log_terms())
        reports.append(LoopReport(tuple(cycle), directions, level, True))
    return ConsistencyReport(level=level, loops=tuple(reports))


def signed_log_sweep(fd, walls, clockwise=False):
    """Signed logs of the crossings of a full sweep around the origin,
    counterclockwise from (1, 1) or clockwise from (-1, -1), first crossed first.

    ``walls`` holds ``(rays, normal, log)``.  Rays are ordered by exact angle
    comparisons from the basepoint, and a crossing's log is negated unless the
    sweep tangent leaves the side ``{m : <n, m> > 0}``.  It shares nothing
    with the crossing records of ``scattering`` and is kept as their oracle.
    """
    turn = -1 if clockwise else 1  # the sweep's sense of rotation
    start = (-turn, -turn)

    def cross(u, v):
        return turn * (u[0] * v[1] - u[1] * v[0])

    def before(u, v):
        """-1 when the sweep from ``start`` meets ray u before ray v."""
        half_u, half_v = cross(start, u) < 0, cross(start, v) < 0
        if half_u != half_v:
            return -1 if half_u < half_v else 1
        return -1 if cross(u, v) > 0 else 1 if cross(v, u) > 0 else 0

    crossings = [(ray, n, log) for rays, n, log in walls for ray in rays]
    crossings.sort(key=cmp_to_key(lambda x, y: before(x[0], y[0])))
    factors = []
    for ray, n, log in crossings:
        tangent = (-turn * ray[1], turn * ray[0])
        sign = 1 if dual_pairing(fd.delta, n, tangent) < 0 else -1
        factors.append({v: sign * c for v, c in log.items()})
    return factors


def pbw_sweep_product(fd, factors, level):
    """The PBW product of a sweep's signed wall logs, first crossed rightmost.

    ``scattering._require_trivial_sweep`` checks the same product through
    its torus action; this builds it in PBW and is kept as its oracle.
    """
    alg = PbwAlgebra(fd.omega, level)
    product = alg.identity()
    for log in factors:
        # lie_element drops the terms above this sweep's level
        product = alg.exp(alg.lie_element(log)) * product
    return product


def wall_factor_exponents(n, log, level):
    """The e_k with f(t) = prod_k (1 + t^k)^(e_k) up to t^(level // deg n).

    ``log`` is ``{jn: c_j}``, n primitive, and f(t) = exp(sum_j j c_j t^j)
    with t = y^n is the wall function: ``TorusAction.apply_wall`` multiplies
    y^m by f(y^n)^psi.  Comparing the t^j terms of log f gives
    j c_j = sum over k | j of e_k (-1)^(j/k + 1) k / j, solved for e_j by
    increasing j.
    """
    c = {degree(v) // degree(n): Fraction(x) for v, x in log.items()}
    e = {}
    for j in range(1, level // degree(n) + 1):
        e[j] = j * c.get(j, 0) - sum(
            e[k] * (-1) ** (j // k + 1) * Fraction(k, j) for k in e if j % k == 0
        )
    return e


def require_positive_wall(fd, wall):
    """Positivity (GHKK, arXiv:1411.1394, Thm 1.13): every exponent of the
    wall function, in units of ``delta_exponent`` of the wall's normal, is
    an integer >= 0.  Raises AssertionError naming the wall and k."""
    unit = delta_exponent(wall.normal, fd.delta)
    level = wall.element.algebra.level
    for k, e in wall_factor_exponents(wall.normal, wall.element.log_terms(), level).items():
        ratio = e / unit
        if ratio < 0 or ratio.denominator != 1:
            raise AssertionError(
                "wall %r on %r: e_%d / delta_exponent = %s is not an integer >= 0"
                % (wall.normal, wall.rays, k, ratio)
            )


@dataclass(frozen=True)
class Cone:
    """Simplicial cone given by linearly independent integer ray generators."""

    rays: tuple

    def coefficients(self, point):
        return solve_columns(self.rays, tuple(point))

    def contains(self, point) -> bool:
        coeffs = self.coefficients(point)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def interior_contains(self, point) -> bool:
        coeffs = self.coefficients(point)
        return coeffs is not None and all(c > 0 for c in coeffs)

    def interior_point(self):
        return tuple(sum(col) for col in zip(*self.rays))


def cluster_chamber(seed):
    """The cone spanned by the seed's g-vectors (rays sorted canonically)."""
    return Cone(rays=tuple(sorted(seed.g_column(j) for j in range(len(seed.b)))))


def facet_cone(seed, k):
    """The facet of the chamber omitting the direction-``k`` g-vector."""
    return Cone(rays=tuple(sorted(seed.g_column(j) for j in range(len(seed.b)) if j != k)))


def facet_wall(fd, seed, k, level):
    """The wall carried by the facet of direction ``k`` at a seed.

    The normal is the positive representative of the c-vector of ``k`` (a
    primitive vector, because the coefficient matrix is unimodular), the
    support is the facet cone, and the element is the dilogarithm raised to
    the minimal exponent making its index land in the rescaled lattice.  The
    crossing is read by ``scattering._crossing`` at call time, so a test that
    patches ``scattering._crossing_normal`` reaches the checks below.
    """
    crossing = scattering._crossing(fd, seed, k)
    normal = crossing.normal
    if gcd(*normal) != 1:
        raise InternalError("c-vector %r is not primitive" % (normal,))
    rays = facet_cone(seed, k).rays
    for ray in rays:
        if dual_pairing(fd.delta, normal, ray) != 0:
            raise InternalError(
                "facet normal %r not orthogonal to g-vector %r" % (normal, ray)
            )
    element = PbwAlgebra(fd.omega, level).dilog(normal, crossing.exponent)
    return Wall(normal=normal, rays=rays, element=element)


def cluster_fan_diagram(fd, graph, level):
    """All facet walls of a completely enumerated pattern, deduplicated.

    For a finite rank-2 type this is the consistent scattering diagram, and
    it is kept as the oracle for ``complete_rank2``.
    """
    if graph.status != "complete":
        raise IncompleteGraph("cluster fan needs a complete graph")
    walls = {}
    for seed in graph.vertices.values():
        for k in range(fd.rank):
            w = facet_wall(fd, seed, k, level)
            walls.setdefault((w.rays, w.normal), w)
    ordered = tuple(walls[key] for key in sorted(walls))
    return ScatteringDiagram(level=level, walls=ordered)


def tree_matrix(rank, edges):
    """Exchange matrix with ``b_ij = x`` and ``b_ji = -y`` for each ``(i, j, x, y)``."""
    b = [[0] * rank for _ in range(rank)]
    for i, j, x, y in edges:
        b[i][j], b[j][i] = x, -y
    return b


def path_edges(rank, last=(1, 1)):
    """The path 0 - 1 - ... - (rank-1); its last edge carries ``last``."""
    return [(i, i + 1, 1, 1) for i in range(rank - 2)] + [(rank - 2, rank - 1) + last]


# B, delta and the Fomin-Zelevinsky seed count of each finite type checked
FINITE_TYPES = {
    "A4": (tree_matrix(4, path_edges(4)), [1] * 4, 42),
    "A5": (tree_matrix(5, path_edges(5)), [1] * 5, 132),
    "A6": (tree_matrix(6, path_edges(6)), [1] * 6, 429),
    "B3": (tree_matrix(3, path_edges(3, (1, 2))), [1, 1, 2], 20),
    "C3": (tree_matrix(3, path_edges(3, (2, 1))), [2, 2, 1], 20),
    "B4": (tree_matrix(4, path_edges(4, (1, 2))), [1, 1, 1, 2], 70),
    "C4": (tree_matrix(4, path_edges(4, (2, 1))), [2, 2, 2, 1], 70),
    "D4": (tree_matrix(4, path_edges(3) + [(1, 3, 1, 1)]), [1] * 4, 50),
    "D5": (tree_matrix(5, path_edges(4) + [(2, 4, 1, 1)]), [1] * 5, 182),
    "F4": (tree_matrix(4, [(0, 1, 1, 1), (1, 2, 2, 1), (2, 3, 1, 1)]), [2, 2, 1, 1], 105),
    "E6": (tree_matrix(6, path_edges(5) + [(2, 5, 1, 1)]), [1] * 6, 833),
    "E7": (tree_matrix(7, path_edges(6) + [(2, 6, 1, 1)]), [1] * 7, 4160),
}


# finite types whose loops the mutation walk replays and the oracle checks
LOOP_PATTERNS = {
    "A2": ([[0, 1], [-1, 0]], [1, 1]),
    "B2": ([[0, 1], [-2, 0]], [1, 2]),
    "G2": ([[0, 1], [-3, 0]], [1, 3]),
    "A3": ([[0, 1, 0], [-1, 0, 1], [0, -1, 0]], [1, 1, 1]),
    "B3": ([[0, 1, 0], [-1, 0, 1], [0, -2, 0]], [1, 1, 2]),
    "A4": ([[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]], [1, 1, 1, 1]),
    "D4": ([[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]], [1, 1, 1, 1]),
}


def d4_cycle_graph_doc():
    """Exported D4 graph with a reversed copy of edge 16 (vertex 5 -> 8) added.

    The two edges form a directed 2-cycle away from the root, so ``certify``
    of this document fails with ``cycle_found``.
    """
    doc = graph_to_json(enumerate_graph(validate_fixed_data(*LOOP_PATTERNS["D4"])))
    edge = doc["edges"][16]
    doc["edges"].append(dict(edge, source=edge["target"], target=edge["source"]))
    return doc


def random_fixed_data(rng, rank=None):
    """A random valid (B, delta) pair: B = diag(delta) * S with S skew."""
    r = rank if rank is not None else rng.choice((2, 2, 3))
    delta = tuple(rng.choice((1, 1, 2, 3)) for _ in range(r))
    while True:
        s = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i + 1, r):
                s[i][j] = rng.randint(-2, 2)
                s[j][i] = -s[i][j]
        if any(any(row) for row in s):
            break
    b = [[delta[i] * s[i][j] for j in range(r)] for i in range(r)]
    return validate_fixed_data(b, delta)


def random_positive_vector(rng, rank, max_entry=3, primitive=False):
    while True:
        n = [rng.randint(0, max_entry) for _ in range(rank)]
        if any(n):
            break
    if primitive:
        g = 0
        for x in n:
            g = gcd(g, x)
        n = [x // g for x in n]
    return tuple(n)


def random_algebra_element(alg, rng, max_terms=3, max_letters=2):
    """Random element with composite PBW monomials (not only Lie elements)."""
    rank = len(alg.omega)
    total = alg.zero()
    for _ in range(rng.randint(1, max_terms)):
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if not coeff:
            continue
        term = alg.one()
        for _ in range(rng.randint(1, max_letters)):
            term = term * alg.lie_element({random_positive_vector(rng, rank, 2): 1})
        total = total + coeff * term
    return total


def element_words(element):
    """The raw term dictionary of an engine element, for oracle comparison."""
    return dict(element.terms)
