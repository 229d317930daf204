"""Walls, crossing sequences, and consistency of truncated diagrams.

Coordinates: normals live in the cocharacter lattice with basis e_1..e_r;
support cones live in the dual space written in the rescaled basis
f_i = delta_i^{-1} e_i^*, so the pairing of a normal ``n`` against a support
point ``m`` is ``sum_i n_i m_i / delta_i``.  In this basis the chamber of a
seed is the cone on its g-vector columns, and the facet of direction ``k``
has the c-vector of ``k`` (made positive) as its normal.

A crossing of a wall with normal ``n`` contributes the dilogarithm element
``Psi[n]^(sign * delta_exponent(n))`` to a path-ordered product, where the
sign is +1 when the path leaves the side ``{m : <n, m> > 0}``.  Products are
composed right-to-left: the first wall crossed sits rightmost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    BadInput,
    DefectNotParallel,
    IncompleteGraph,
    InconsistencyFound,
    InternalError,
    InvalidWalk,
    NotAllGreen,
    NotRankTwo,
)
# perfbench/spans.py wraps canonical_key here; fan_to_svg is re-exported
from .exchange import (  # noqa: F401
    FixedData,
    OrientedExchangeGraph,
    SeedKey,
    TropicalSeed,
    _column_sign,
    _svg_chamber_labels,
    _svg_label,
    _svg_open,
    _svg_ray,
    canonical_key,
    fan_to_svg,
    key_to_str,
    mutate_seed,
)
from .liegroup import (
    GroupElement,
    PbwAlgebra,
    TorusAction,
    _check_level,
    degree,
    delta_exponent,
    dilog_log_terms,
    element_to_json,
    group_from_json,
    letter_key,
)

Vector = tuple[int, ...]


def dual_pairing(delta, n, m) -> Fraction:
    """<n, m> with m written in the f-basis: sum n_i m_i / delta_i."""
    return sum((Fraction(a * b, d) for a, b, d in zip(n, m, delta)), Fraction(0))


# ---------------------------------------------------------------------------
# cones and chamber geometry


@dataclass(frozen=True)
class Cone:
    """Simplicial cone given by linearly independent integer ray generators."""

    rays: tuple[Vector, ...]

    def coefficients(self, point):
        return linalg.solve_columns(self.rays, tuple(point))

    def contains(self, point) -> bool:
        coeffs = self.coefficients(point)
        return coeffs is not None and all(c >= 0 for c in coeffs)

    def interior_contains(self, point) -> bool:
        coeffs = self.coefficients(point)
        return coeffs is not None and all(c > 0 for c in coeffs)

    def interior_point(self) -> Vector:
        return tuple(sum(col) for col in zip(*self.rays))


def cluster_chamber(seed: TropicalSeed) -> Cone:
    """The cone spanned by the seed's g-vectors (rays sorted canonically)."""
    r = seed.rank
    return Cone(rays=tuple(sorted(seed.g_column(j) for j in range(r))))


def facet_cone(seed: TropicalSeed, k: int) -> Cone:
    """The facet of the chamber omitting the direction-``k`` g-vector."""
    r = seed.rank
    return Cone(
        rays=tuple(sorted(seed.g_column(j) for j in range(r) if j != k))
    )


# ---------------------------------------------------------------------------
# walls


@dataclass(frozen=True)
class Wall:
    """Support rays inside ``normal``-perp carrying a grouplike element."""

    normal: Vector
    rays: tuple[Vector, ...]
    element: GroupElement


def validate_wall(fd: FixedData, wall: Wall) -> None:
    if not all(x >= 0 for x in wall.normal) or not any(wall.normal):
        raise ValueError("wall normal must be positive, got %r" % (wall.normal,))
    if linalg.gcd_vec(wall.normal) != 1:
        raise ValueError("wall normal must be primitive, got %r" % (wall.normal,))
    for ray in wall.rays:
        if dual_pairing(fd.delta, wall.normal, ray) != 0:
            raise ValueError("ray %r is not orthogonal to %r" % (ray, wall.normal))
    for n in wall.element.log_terms():
        if linalg.primitive(n) != wall.normal:
            raise ValueError(
                "wall element is not supported on multiples of %r" % (wall.normal,)
            )


def _crossing_normal(seed: TropicalSeed, k: int) -> tuple[int, Vector]:
    """Sign of the c-vector of direction ``k`` and its positive representative."""
    sign = _column_sign(seed.c, k)
    return sign, tuple(sign * x for x in seed.c_column(k))


def facet_wall(fd: FixedData, seed: TropicalSeed, k: int, level: int) -> Wall:
    """The wall carried by the facet of direction ``k`` at a seed.

    The normal is the positive representative of the c-vector of ``k`` (a
    primitive vector, because the coefficient matrix is unimodular), the
    support is the facet cone, and the element is the dilogarithm raised to
    the minimal exponent making its index land in the rescaled lattice.
    """
    crossing = _crossing(fd, seed, k)
    normal = crossing.normal
    if linalg.gcd_vec(normal) != 1:
        raise InternalError("c-vector %r is not primitive" % (normal,))
    rays = facet_cone(seed, k).rays
    for ray in rays:
        if dual_pairing(fd.delta, normal, ray) != 0:
            raise InternalError(
                "facet normal %r not orthogonal to g-vector %r" % (normal, ray)
            )
    element = PbwAlgebra(fd.omega, level).dilog(normal, crossing.exponent)
    return Wall(normal=normal, rays=rays, element=element)


def cluster_fan_diagram(
    fd: FixedData, graph: OrientedExchangeGraph, level: int
) -> "ScatteringDiagram":
    """All facet walls of a completely enumerated pattern, deduplicated."""
    if graph.status != "complete":
        raise IncompleteGraph("cluster fan needs a complete graph")
    walls = {}
    for seed in graph.vertices.values():
        for k in range(fd.rank):
            w = facet_wall(fd, seed, k, level)
            walls.setdefault((w.rays, w.normal), w)
    ordered = tuple(walls[key] for key in sorted(walls))
    return ScatteringDiagram(level=level, walls=ordered, origin="cluster-fan")


@dataclass(frozen=True)
class ScatteringDiagram:
    level: int
    walls: tuple[Wall, ...]
    origin: str  # "cluster-fan" | "rank2-completion"


# ---------------------------------------------------------------------------
# crossing sequences


@dataclass(frozen=True)
class Crossing:
    normal: Vector
    sign: int
    exponent: Fraction


@dataclass(frozen=True)
class CrossingSequence:
    crossings: tuple[Crossing, ...]
    #: directions of the generating walk; empty for hand-built sequences
    directions: tuple[int, ...] = ()


def _crossing(fd: FixedData, seed: TropicalSeed, k: int) -> Crossing:
    """The crossing of the facet of direction ``k`` out of the seed's chamber."""
    sign, normal = _crossing_normal(seed, k)
    return Crossing(normal=normal, sign=sign, exponent=delta_exponent(normal, fd.delta))


def walk(fd: FixedData, seed: TropicalSeed, directions) -> tuple:
    """Expand a direction list into the (seed, direction) pairs of a walk."""
    steps = []
    current = seed
    for k in directions:
        steps.append((current, k))
        current = mutate_seed(fd, current, k)
    return tuple(steps)


def crossing_sequence(fd: FixedData, steps) -> CrossingSequence:
    """Read off the wall crossings of a mutation walk.

    ``steps`` is a sequence of (seed, direction) pairs that must chain: each
    mutation has to produce the next seed's matrices.  Crossing direction
    ``k`` while its c-vector is positive is a green crossing (sign +1).
    """
    steps = list(steps)
    crossings = []
    directions = []
    for i, (seed, k) in enumerate(steps):
        if not 0 <= k < fd.rank:
            raise InvalidWalk("direction %d out of range at step %d" % (k, i))
        nxt = mutate_seed(fd, seed, k)
        if i + 1 < len(steps) and not nxt.same_matrices(steps[i + 1][0]):
            raise InvalidWalk("steps %d -> %d do not chain" % (i, i + 1))
        crossings.append(_crossing(fd, seed, k))
        directions.append(k)
    return CrossingSequence(crossings=tuple(crossings), directions=tuple(directions))


def _int_vector(v, what: str) -> Vector:
    if not isinstance(v, (list, tuple)) or not all(map(linalg.is_int, v)):
        raise BadInput("%s must be a list of integers, got %r" % (what, v))
    return tuple(v)


def crossing_sequence_from_normals(fd: FixedData, pairs) -> CrossingSequence:
    """Build a sequence directly from (normal, sign) pairs (no walk)."""
    crossings = []
    for n, sign in pairs:
        n = _int_vector(n, "crossing normal")
        if not linalg.is_int(sign) or sign not in (1, -1):
            raise BadInput("crossing sign must be the integer 1 or -1, got %r" % (sign,))
        if len(n) != fd.rank:
            raise BadInput(
                "crossing normal must have %d entries (the rank), got %r" % (fd.rank, n)
            )
        if not all(x >= 0 for x in n) or not any(n):
            raise BadInput("crossing normal must be positive, got %r" % (n,))
        crossings.append(
            Crossing(normal=n, sign=sign, exponent=delta_exponent(n, fd.delta))
        )
    return CrossingSequence(crossings=tuple(crossings))


def path_ordered_product(fd: FixedData, cs: CrossingSequence, level: int) -> GroupElement:
    """Compose the crossings right-to-left at the given truncation level."""
    alg = PbwAlgebra(fd.omega, level)
    acc = alg.identity()
    for crossing in cs.crossings:
        factor = alg.dilog(crossing.normal, crossing.sign * crossing.exponent)
        acc = factor * acc
    return acc


@dataclass(frozen=True)
class Obstruction:
    min_degree: int
    witness: dict[Vector, Fraction]

    def pretty(self) -> str:
        bits = []
        for n in sorted(self.witness, key=letter_key):
            bits.append("%s*X(%s)" % (self.witness[n], ",".join(str(x) for x in n)))
        return " + ".join(bits)


def minimal_degree_obstruction(fd: FixedData, cs: CrossingSequence) -> Obstruction:
    """Witness that an all-green product cannot be the identity.

    Let l be the minimal degree of the normals.  Modulo degree > l a factor
    of higher degree is 1, a factor of degree l is 1 + exponent * X_n, and
    every product of two letters vanishes, having degree >= 2l.  So the
    product projects to 1 + sum_n c_n X_n = exp(sum_n c_n X_n), where c_n
    sums the positive exponents of the crossings with normal n: not the
    identity.  l and the c_n are returned with no group arithmetic; the tests
    hold this closed form against PBW products.
    """
    if not cs.crossings:
        raise ValueError("empty crossing sequence has no minimal degree")
    if any(c.sign != 1 for c in cs.crossings):
        raise NotAllGreen("obstruction requires an all-green sequence")
    level = min(degree(c.normal) for c in cs.crossings)
    witness: dict[Vector, Fraction] = {}
    for c in cs.crossings:
        if degree(c.normal) == level:
            witness[c.normal] = witness.get(c.normal, Fraction(0)) + c.exponent
    return Obstruction(min_degree=level, witness=witness)


# ---------------------------------------------------------------------------
# loop consistency over an enumerated graph


@dataclass(frozen=True)
class LoopReport:
    vertices: tuple[SeedKey, ...]
    directions: tuple[int, ...]
    max_degree_checked: int
    identity: bool


@dataclass(frozen=True)
class ConsistencyReport:
    level: int
    loops: tuple[LoopReport, ...]


def verify_loop_consistency(
    fd: FixedData, graph: OrientedExchangeGraph, level: int
) -> ConsistencyReport:
    """Check that the path-ordered product of every basis loop is trivial.

    Reads the crossings of each fundamental cycle of the unoriented exchange
    graph off its stored seeds, with no mutation, and requires the product
    to be the identity at level ``l``.  Projection to a coarser level maps
    the identity to the identity, so every level <= l is covered by this
    check.

    Everything runs on vertex ids (discovery order).  Each undirected edge is
    resolved once, into the g-vector each end loses across it; duality pairs
    that g-vector with one c-vector whatever the labels, so the stored seed
    of a vertex stands for every seed with its key.  The cycles come from a
    BFS tree: each non-tree edge (u, v), u before v, closes the cycle from u
    up to the meeting vertex and down to v.

    Products are checked through their faithful torus action, with one apply
    per edge.  T_x, the product along the BFS-tree path from the root to x,
    costs one apply per tree edge.  Crossing an edge backwards inverts its
    factor, so the cycle u -> ... -> v -> u closed by the crossing E_vu has
    product E_vu T_v T_u^-1, and it is the identity exactly when E_vu T_v and
    T_u act alike: g z = h z gives h^-1 g = 1.  A failing loop's crossings
    are applied again, in walk order, to one fresh action, and the error
    carries that product's lowest-degree log terms; no PBW product is built.
    """
    _check_level(level)
    if graph.status != "complete":
        raise IncompleteGraph("loop consistency needs a complete graph")
    keys = list(graph.vertices)
    seeds = list(graph.vertices.values())
    g_cols = [tuple(zip(*seed.g)) for seed in seeds]  # labeled g-vectors by id
    for key, cols in zip(keys, g_cols):
        if tuple(sorted(cols)) != key.g_columns:
            raise InvalidWalk("stored seed does not match its key %s" % key_to_str(key))
    index = {key: i for i, key in enumerate(keys)}
    gone = {}  # (a, b) -> the g-vector a loses across the edge to b
    for src, dst, _ in graph.edges:
        a, b = index[src], index[dst]
        if (a, b) in gone:
            continue
        lost = set(src.g_columns).difference(dst.g_columns)
        if len(lost) != 1:
            raise InvalidWalk("cycle vertices are not adjacent in the pattern")
        (gone[a, b],) = lost
        (gone[b, a],) = set(dst.g_columns).difference(src.g_columns)
    pairs = sorted(pair for pair in gone if pair[0] < pair[1])
    adj = [[] for _ in keys]
    for a, b in pairs:  # each list comes out in ascending id order
        adj[a].append(b)
        adj[b].append(a)
    exponents = {}  # many edges share a normal

    def cross(action, a, b) -> TorusAction:
        """Apply the crossing out of chamber a into chamber b to ``action``."""
        sign, normal = _crossing_normal(seeds[a], g_cols[a].index(gone[a, b]))
        exponent = exponents.get(normal)
        if exponent is None:
            exponent = exponents[normal] = delta_exponent(normal, fd.delta)
        action.apply_dilog(normal, sign * exponent)
        return action

    root = index[graph.root]
    parent, depth = [None] * len(keys), [None] * len(keys)
    tree = [None] * len(keys)  # x -> T_x
    depth[root], tree[root] = 0, TorusAction(fd.omega, level)
    queue = deque([root])
    while queue:
        p = queue.popleft()
        for x in adj[p]:
            if depth[x] is None:
                parent[x], depth[x] = p, depth[p] + 1
                tree[x] = cross(tree[p].copy(), p, x)
                queue.append(x)
    reports = []
    for u, v in pairs:
        if parent[v] == u or parent[u] == v:
            continue
        up, down = [u], [v]
        while depth[up[-1]] > depth[down[-1]]:
            up.append(parent[up[-1]])
        while depth[down[-1]] > depth[up[-1]]:
            down.append(parent[down[-1]])
        while up[-1] != down[-1]:
            up.append(parent[up[-1]])
            down.append(parent[down[-1]])
        cycle = up + down[-2::-1]  # u up to the meeting vertex, then down to v
        steps = list(zip(cycle, cycle[1:] + cycle[:1]))
        if cross(tree[v].copy(), v, u).series != tree[u].series:
            action = TorusAction(fd.omega, level)
            for a, b in steps:
                cross(action, a, b)
            raise InconsistencyFound([keys[i] for i in cycle], action.lowest_log_terms())
        labels = list(g_cols[u])  # the g-vector of each label along the walk
        directions = []
        for a, b in steps:
            k = labels.index(gone[a, b])
            labels[k] = gone[b, a]
            directions.append(k)
        reports.append(
            LoopReport(
                vertices=tuple(keys[i] for i in cycle),
                directions=tuple(directions),
                max_degree_checked=level,
                identity=True,
            )
        )
    return ConsistencyReport(level=level, loops=tuple(reports))


# ---------------------------------------------------------------------------
# rank-2 completion


def _line_direction(delta, n) -> Vector:
    """Primitive direction of n-perp in the f-basis (rank 2)."""
    return linalg.primitive((delta[0] * n[1], -delta[1] * n[0]))


def _outgoing_ray(fd: FixedData, n: Vector) -> Vector:
    """The ray of n-perp not containing B*n (the outgoing side)."""
    v = _line_direction(fd.delta, n)
    bn = linalg.matvec(fd.b, n)
    if not any(bn):
        raise DefectNotParallel(
            "B * %r = 0 leaves the outgoing ray undetermined" % (n,)
        )
    i = 0 if v[0] else 1
    same_side = (bn[i] > 0) == (v[i] > 0)
    return linalg.vec_neg(v) if same_side else v


def _ccw_key(u0, v):
    """Sort key for the counterclockwise angle from direction u0 to v.

    The class is 0 left of u0, 1 exactly opposite and 2 right of it; within
    an open half-plane the cotangent dot/cross falls as the angle grows.
    """
    cross = u0[0] * v[1] - u0[1] * v[0]
    dot = u0[0] * v[0] + u0[1] * v[1]
    if cross == 0:
        if dot > 0:
            raise ValueError("ray %r passes through the basepoint direction" % (v,))
        return (1, 0)
    return (0 if cross > 0 else 2, -Fraction(dot, cross))


def _crossing_sign(delta, ray, normal, clockwise=False) -> int:
    """+1 when the sweep exits the positive side of the wall at this ray."""
    w = (-ray[1], ray[0])
    if clockwise:
        w = linalg.vec_neg(w)
    s = dual_pairing(delta, normal, w)
    if s == 0:
        raise ValueError("sweep tangent is parallel to the wall")
    return 1 if s < 0 else -1


def _sweep_factors(fd, walls, basepoint=(1, 1), clockwise=False):
    """Signed logs of the wall crossings of a full sweep around the origin.

    ``walls`` holds one ``(rays, normal, log)`` record per wall.  Returned in
    crossing order, first crossed first; the path-ordered product
    left-multiplies them in this order.
    """
    crossings = [(ray, normal, log) for rays, normal, log in walls for ray in rays]
    rays = sorted({ray for ray, _, _ in crossings}, key=lambda v: _ccw_key(basepoint, v))
    ray_order = {ray: -i if clockwise else i for i, ray in enumerate(rays)}
    crossings.sort(
        key=lambda item: (
            ray_order[item[0]],
            min((degree(n) for n in item[2]), default=0),
            item[1],
        )
    )
    factors = []
    for ray, normal, log in crossings:
        eps = _crossing_sign(fd.delta, ray, normal, clockwise)
        factors.append({n: eps * c for n, c in log.items()})
    return factors


def _sweep_action(fd, factors, level) -> TorusAction:
    """The sweep's product at ``level`` as a torus action."""
    action = TorusAction(fd.omega, level)
    for log in factors:
        action.apply_wall(log)
    return action


def _require_trivial_sweep(fd, factors, level, *message) -> None:
    """Raise InconsistencyFound unless the sweep's product is 1 at ``level``.

    The error carries the lowest-degree log terms of the product, read off
    its torus action; no PBW product is built.
    """
    action = _sweep_action(fd, factors, level)
    if not action.is_identity():
        raise InconsistencyFound((), action.lowest_log_terms(), *message)


def complete_rank2(fd: FixedData, level: int) -> ScatteringDiagram:
    """Consistent completion of the two initial walls up to ``level``.

    Degree by degree the log of the full counterclockwise loop product is
    measured; each degree-d defect term c * X_n is canceled by adding
    -eps * c * X_n to the log of the wall on the outgoing ray of n-perp, eps
    the crossing sign of that ray.  Degree-d insertions commute with
    everything modulo degree > d, so each stage settles its degree for good.
    The letters on one ray commute, so one wall per ray carries the sum of
    its terms and each sweep crosses every ray once.  Completion and its
    closing self-check run on logs alone; PBW builds only the emitted wall
    elements, each by the one-ray ``exp``, which straightens nothing.
    """
    if fd.rank != 2:
        raise NotRankTwo("completion is implemented for rank 2 only")
    _check_level(level)
    initial = []  # (rays, normal, log) of the two full lines
    for i in range(2):
        n = tuple(1 if j == i else 0 for j in range(2))
        direction = _line_direction(fd.delta, n)
        rays = (direction, linalg.vec_neg(direction))
        initial.append((rays, n, dilog_log_terms(n, fd.delta[i], level)))
    scattered: dict[tuple, dict] = {}  # (ray, normal) -> log of the wall there

    def sweep():
        walls = initial + [((ray,), n, log) for (ray, n), log in scattered.items()]
        return _sweep_factors(fd, walls)

    for d in range(2, level + 1):
        defect = _sweep_action(fd, sweep(), d).lowest_log_terms()
        for n in sorted(defect, key=letter_key):
            if degree(n) != d:
                raise InternalError(
                    "stage %d saw a defect of degree %d" % (d, degree(n))
                )
            n_pr = linalg.primitive(n)
            ray = _outgoing_ray(fd, n_pr)
            eps = _crossing_sign(fd.delta, ray, n_pr)
            scattered.setdefault((ray, n_pr), {})[n] = -eps * defect[n]
    _require_trivial_sweep(fd, sweep(), level, "completion failed to cancel all defects")
    order = sorted(scattered, key=lambda key: (_ccw_key((1, 1), key[0])[0],) + key)
    alg = PbwAlgebra(fd.omega, level)
    walls = [
        Wall(normal=n, rays=rays, element=alg.exp(alg.lie_element(log)))
        for rays, n, log in initial + [((ray,), n, scattered[ray, n]) for ray, n in order]
    ]
    return ScatteringDiagram(level=level, walls=tuple(walls), origin="rank2-completion")


def verify_rank2_consistency(
    fd: FixedData, diagram: ScatteringDiagram, level: int | None = None
) -> bool:
    """Re-check a rank-2 diagram with an independently oriented sweep.

    Uses a clockwise loop from the opposite basepoint, so the crossing order
    and all the signs differ from the ones the completion used.
    """
    if fd.rank != 2:
        raise NotRankTwo("rank-2 verification needs rank 2")
    level = diagram.level if level is None else level
    _check_level(level)
    walls = [(w.rays, w.normal, w.element.log_terms()) for w in diagram.walls]
    _require_trivial_sweep(
        fd, _sweep_factors(fd, walls, basepoint=(-1, -1), clockwise=True), level
    )
    return True


def factor_dilog_power(fd: FixedData, wall: Wall) -> str | None:
    """Write the wall element as Psi[m]^c when it is one, else None."""
    log = wall.element.log_terms()
    if not log:
        return None
    base = linalg.primitive(next(iter(log)))
    if any(linalg.primitive(n) != base for n in log):
        return None
    m = min(log, key=degree)
    c = log[m]
    if log != dilog_log_terms(m, c, wall.element.algebra.level):
        return None
    return "Psi[%s]^%s" % (",".join(str(x) for x in m), c)


# ---------------------------------------------------------------------------
# serialization


def diagram_to_json(fd: FixedData, diagram: ScatteringDiagram) -> dict:
    walls = []
    for wall in diagram.walls:
        walls.append(
            {
                "normal": list(wall.normal),
                "rays": [list(r) for r in wall.rays],
                "element": element_to_json(wall.element.carrier),
                "factored": factor_dilog_power(fd, wall),
            }
        )
    return {"level": diagram.level, "origin": diagram.origin, "walls": walls}


def diagram_from_json(doc, fd: FixedData) -> ScatteringDiagram:
    """Read a diagram document; every wall element must live at its level."""
    try:
        level = doc["level"]
        if not linalg.is_int(level) or level < 1:
            raise BadInput("diagram level must be an integer >= 1, got %r" % (level,))
        walls = []
        for i, rec in enumerate(doc["walls"]):
            if rec["element"]["level"] != level:
                raise BadInput("wall %d: element is not at the diagram level %d" % (i, level))
            wall = Wall(
                normal=_int_vector(rec["normal"], "wall normal"),
                rays=tuple(_int_vector(r, "wall ray") for r in rec["rays"]),
                element=group_from_json(rec["element"], fd.omega),
            )
            try:
                validate_wall(fd, wall)
            except ValueError as exc:
                raise BadInput("wall %d: %s" % (i, exc)) from exc
            walls.append(wall)
        return ScatteringDiagram(
            level=level,
            walls=tuple(walls),
            origin=str(doc.get("origin", "rank2-completion")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput("malformed diagram document: %s" % exc) from exc


def report_to_json(report: ConsistencyReport) -> dict:
    names = dict.fromkeys(k for loop in report.loops for k in loop.vertices)
    names = {k: key_to_str(k) for k in names}  # loops share most vertices
    return {
        "level": report.level,
        "loop_count": len(report.loops),
        "loops": [
            {
                "vertices": [names[k] for k in loop.vertices],
                "directions": list(loop.directions),
                "max_degree_checked": loop.max_degree_checked,
                "identity": loop.identity,
            }
            for loop in report.loops
        ],
    }


def diagram_to_svg(fd: FixedData, diagram: ScatteringDiagram, graph=None) -> str:
    """Static picture of a rank-2 diagram; deterministic bytes."""
    if fd.rank != 2:
        raise NotRankTwo("SVG output is rank-2 only")
    parts = _svg_open()
    for wall in diagram.walls:
        full_line = len(wall.rays) == 2
        for ray in wall.rays:
            parts.append(
                _svg_ray(ray, "#111111" if full_line else "#1f6fb4", 2.0 if full_line else 1.5)
            )
    for wall in diagram.walls:
        label = factor_dilog_power(fd, wall) or "n=(%s)" % ",".join(
            str(x) for x in wall.normal
        )
        parts.append(_svg_label(wall.rays[0], label))
    parts.extend(_svg_chamber_labels(graph))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
