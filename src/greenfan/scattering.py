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

import functools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    BadInput,
    DefectNotParallel,
    IncompleteGraph,
    InconsistencyFound,
    InvalidWalk,
    NotAllGreen,
    NotRankTwo,
)
from .exchange import (
    FixedData,
    OrientedExchangeGraph,
    SeedKey,
    TropicalSeed,
    _column_sign,
    canonical_key,
    key_to_str,
    mutate_seed,
)
from .liegroup import (
    GroupElement,
    PbwAlgebra,
    TorusAction,
    degree,
    delta_exponent,
    dilog_log_terms,
    element_from_json,
    element_to_json,
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
    _, normal = _crossing_normal(seed, k)
    if linalg.gcd_vec(normal) != 1:
        raise RuntimeError("c-vector %r is not primitive" % (normal,))
    rays = facet_cone(seed, k).rays
    for ray in rays:
        if dual_pairing(fd.delta, normal, ray) != 0:
            raise RuntimeError(
                "facet normal %r not orthogonal to g-vector %r" % (normal, ray)
            )
    element = PbwAlgebra(fd.omega, level).dilog(normal, delta_exponent(normal, fd.delta))
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
        sign, normal = _crossing_normal(seed, k)
        crossings.append(
            Crossing(
                normal=normal,
                sign=sign,
                exponent=delta_exponent(normal, fd.delta),
            )
        )
        directions.append(k)
    return CrossingSequence(crossings=tuple(crossings), directions=tuple(directions))


def crossing_sequence_from_normals(fd: FixedData, pairs) -> CrossingSequence:
    """Build a sequence directly from (normal, sign) pairs (no walk)."""
    crossings = []
    for n, sign in pairs:
        if not isinstance(n, (list, tuple)) or any(
            isinstance(x, bool) or not isinstance(x, int) for x in n
        ):
            raise BadInput("crossing normal must be a list of integers, got %r" % (n,))
        n = tuple(n)
        if isinstance(sign, bool) or not isinstance(sign, int) or sign not in (1, -1):
            raise BadInput("crossing sign must be the integer 1 or -1, got %r" % (sign,))
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

    Projected to the minimal degree l of the normals, every factor of degree
    > l dies and every factor of degree l contributes 1 + exponent * X_n, so
    the product equals exp of a strictly positive combination -- nonzero.
    The function checks that identity exactly and returns the combination.
    """
    if not cs.crossings:
        raise ValueError("empty crossing sequence has no minimal degree")
    if any(c.sign != 1 for c in cs.crossings):
        raise NotAllGreen("obstruction requires an all-green sequence")
    level = min(degree(c.normal) for c in cs.crossings)
    product = path_ordered_product(fd, cs, level)
    witness: dict[Vector, Fraction] = {}
    for c in cs.crossings:
        if degree(c.normal) == level:
            witness[c.normal] = witness.get(c.normal, Fraction(0)) + c.exponent
    alg = PbwAlgebra(fd.omega, level)
    expected = alg.exp(alg.lie_element(witness))
    if product != expected:
        raise RuntimeError("minimal-degree projection disagrees with its closed form")
    if expected.is_identity():
        raise RuntimeError("witness vanished despite positive exponents")
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


def _fundamental_cycles(graph: OrientedExchangeGraph):
    """Cycle basis of the underlying undirected graph via a BFS tree."""
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
    queue = [graph.root]
    tree_edges = set()
    while queue:
        u = queue.pop(0)
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                pair = (u, v) if index[u] <= index[v] else (v, u)
                tree_edges.add(pair)
                queue.append(v)
    cycles = []
    for u, v in sorted(undirected, key=lambda p: (index[p[0]], index[p[1]])):
        if (u, v) in tree_edges:
            continue

        def chain(x):
            path = [x]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path  # x .. root

        pu, pv = chain(u), chain(v)
        ru, rv = list(reversed(pu)), list(reversed(pv))  # root .. x
        common = 0
        while common < min(len(ru), len(rv)) and ru[common] == rv[common]:
            common += 1
        # u up to the meeting vertex, then down to v; edge (v, u) closes it
        cycle = list(reversed(ru[common - 1:])) + rv[common:]
        cycles.append(cycle)
    return cycles


def _walk_key_cycle(fd: FixedData, graph: OrientedExchangeGraph, cycle):
    """Trace a key cycle with labeled seeds, choosing minimal directions."""
    seed = graph.vertices[cycle[0]]
    steps = []
    directions = []
    for target in list(cycle[1:]) + [cycle[0]]:
        for k in range(fd.rank):
            nxt = mutate_seed(fd, seed, k)
            if canonical_key(nxt) == target:
                steps.append((seed, k))
                directions.append(k)
                seed = nxt
                break
        else:
            raise InvalidWalk("cycle vertices are not adjacent in the pattern")
    if canonical_key(seed) != cycle[0]:
        raise InvalidWalk("cycle walk did not close up")
    return steps, tuple(directions)


def verify_loop_consistency(
    fd: FixedData, graph: OrientedExchangeGraph, level: int
) -> ConsistencyReport:
    """Check that the path-ordered product of every basis loop is trivial.

    Walks each fundamental cycle of the unoriented exchange graph with
    labeled seeds, forms its crossing sequence, and requires the product to
    be the identity at level ``l``.  Projection to a coarser level maps the
    identity to the identity, so every level <= l is covered by this check.
    The product is checked through its faithful torus action; the PBW
    product is built only for the error of a failing loop.
    """
    if graph.status != "complete":
        raise IncompleteGraph("loop consistency needs a complete graph")
    reports = []
    for cycle in _fundamental_cycles(graph):
        steps, directions = _walk_key_cycle(fd, graph, cycle)
        cs = crossing_sequence(fd, steps)
        action = TorusAction(fd.omega, level)
        for crossing in cs.crossings:
            action.apply_dilog(crossing.normal, crossing.sign * crossing.exponent)
        if not action.is_identity():
            raise InconsistencyFound(cycle, path_ordered_product(fd, cs, level))
        reports.append(
            LoopReport(
                vertices=tuple(cycle),
                directions=directions,
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


def _ccw_position(u0, v):
    """Sort key for counterclockwise angle measured from direction u0."""
    cross = u0[0] * v[1] - u0[1] * v[0]
    dot = u0[0] * v[0] + u0[1] * v[1]
    if cross == 0:
        if dot > 0:
            raise ValueError("ray %r passes through the basepoint direction" % (v,))
        return (1, 0)  # exactly opposite u0
    return (0, 0) if cross > 0 else (2, 0)


def _sort_rays_ccw(rays, u0):
    def cmp(a, b):
        pa, pb = _ccw_position(u0, a), _ccw_position(u0, b)
        if pa != pb:
            return -1 if pa < pb else 1
        cross = a[0] * b[1] - a[1] * b[0]
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(rays, key=functools.cmp_to_key(cmp))


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

    Returned in crossing order, first crossed first; the path-ordered
    product left-multiplies them in this order.
    """
    crossings = []  # (ray, normal, log of the wall element)
    for wall in walls:
        log = wall.element.log_terms()
        for ray in wall.rays:
            crossings.append((ray, wall.normal, log))
    ray_order = {}
    for ray in _sort_rays_ccw({ray for ray, _, _ in crossings}, basepoint):
        ray_order.setdefault(ray, len(ray_order))
    if clockwise:
        n_rays = len(ray_order)
        ray_order = {ray: n_rays - 1 - i for ray, i in ray_order.items()}
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
    """Raise InconsistencyFound, carrying the PBW product, unless it is 1."""
    if _sweep_action(fd, factors, level).is_identity():
        return
    alg = PbwAlgebra(fd.omega, level)
    product = alg.identity()
    for log in factors:
        # lie_element drops the terms above this sweep's level
        product = alg.exp(alg.lie_element(log)) * product
    raise InconsistencyFound((), product, *message)


def complete_rank2(fd: FixedData, level: int) -> ScatteringDiagram:
    """Consistent completion of the two initial walls up to ``level``.

    Degree by degree the log of the full counterclockwise loop product is
    measured; each degree-d defect term c * X_n is canceled by a new wall on
    the outgoing ray of n-perp whose element is exp(-eps * c * X_n), eps the
    crossing sign of that ray.  Degree-d insertions commute with everything
    modulo degree > d, so each stage settles its degree for good.  The result
    is re-verified before being returned.
    """
    if fd.rank != 2:
        raise NotRankTwo("completion is implemented for rank 2 only")
    level = int(level)
    if level < 1:
        raise ValueError("level must be >= 1")
    alg = PbwAlgebra(fd.omega, level)
    walls = []
    for i in range(2):
        n = tuple(1 if j == i else 0 for j in range(2))
        direction = _line_direction(fd.delta, n)
        walls.append(
            Wall(
                normal=n,
                rays=(direction, linalg.vec_neg(direction)),
                element=alg.dilog(n, fd.delta[i]),
            )
        )
    for d in range(2, level + 1):
        defect = _sweep_action(fd, _sweep_factors(fd, walls), d).lowest_log_terms()
        for n in sorted(defect, key=letter_key):
            c = defect[n]
            if degree(n) != d:
                raise RuntimeError(
                    "stage %d saw a defect of degree %d" % (d, degree(n))
                )
            n_pr = linalg.primitive(n)
            ray = _outgoing_ray(fd, n_pr)
            eps = _crossing_sign(fd.delta, ray, n_pr)
            element = alg.exp(alg.lie_element({n: -eps * c}))
            walls.append(Wall(normal=n_pr, rays=(ray,), element=element))
    # merge scattered walls sharing a support ray and normal
    merged: dict[tuple, dict] = {}
    for wall in walls[2:]:
        log = merged.setdefault((wall.rays, wall.normal), {})
        for n, c in wall.element.log_terms().items():
            log[n] = log.get(n, Fraction(0)) + c
    final = walls[:2] + [
        Wall(normal=normal, rays=rays, element=alg.exp(alg.lie_element(log)))
        for (rays, normal), log in sorted(
            merged.items(),
            key=lambda item: (_ccw_position((1, 1), item[0][0][0]), item[0][0][0], item[0][1]),
        )
        if any(log.values())
    ]
    _require_trivial_sweep(
        fd, _sweep_factors(fd, final), level, "completion failed to cancel all defects"
    )
    return ScatteringDiagram(level=level, walls=tuple(final), origin="rank2-completion")


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
    factors = _sweep_factors(fd, diagram.walls, basepoint=(-1, -1), clockwise=True)
    _require_trivial_sweep(fd, factors, level)
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
    try:
        level = int(doc["level"])
        walls = []
        for rec in doc["walls"]:
            carrier = element_from_json(rec["element"], fd.omega)
            walls.append(
                Wall(
                    normal=tuple(int(x) for x in rec["normal"]),
                    rays=tuple(tuple(int(x) for x in r) for r in rec["rays"]),
                    element=GroupElement(carrier),
                )
            )
        return ScatteringDiagram(
            level=level,
            walls=tuple(walls),
            origin=str(doc.get("origin", "rank2-completion")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput("malformed diagram document: %s" % exc) from exc


def report_to_json(report: ConsistencyReport) -> dict:
    return {
        "level": report.level,
        "loop_count": len(report.loops),
        "loops": [
            {
                "vertices": [key_to_str(k) for k in loop.vertices],
                "directions": list(loop.directions),
                "max_degree_checked": loop.max_degree_checked,
                "identity": loop.identity,
            }
            for loop in report.loops
        ],
    }


# ---------------------------------------------------------------------------
# SVG output (rank 2)


_SVG_SIZE = 520
_SVG_SCALE = 180


def _svg_point(v):
    mag = max(abs(x) for x in v)
    x = Fraction(v[0], mag) * _SVG_SCALE
    y = -Fraction(v[1], mag) * _SVG_SCALE  # screen y points down
    return float(x), float(y)


def _svg_open():
    half = _SVG_SIZE // 2
    return [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="%d %d %d %d">' % (_SVG_SIZE, _SVG_SIZE, -half, -half, _SVG_SIZE, _SVG_SIZE),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="white"/>'
        % (-half, -half, _SVG_SIZE, _SVG_SIZE),
    ]


def _svg_ray(v, color, width):
    x, y = _svg_point(v)
    return '<line x1="0" y1="0" x2="%.2f" y2="%.2f" stroke="%s" stroke-width="%.1f"/>' % (
        x,
        y,
        color,
        width,
    )


def _svg_label(v, text, scale=1.12, size=11, color="#333"):
    x, y = _svg_point(v)
    return '<text x="%.2f" y="%.2f" font-size="%d" font-family="monospace" fill="%s" text-anchor="middle">%s</text>' % (
        x * scale,
        y * scale,
        size,
        color,
        text,
    )


def _svg_chamber_labels(graph):
    """``t<i>`` at the i-th chamber of a complete graph; nothing otherwise."""
    labels = []
    if graph is not None and graph.status == "complete":
        for i, seed in enumerate(graph.vertices.values()):
            center = linalg.vec_add(seed.g_column(0), seed.g_column(1))
            labels.append(_svg_label(center, "t%d" % i, scale=0.55, size=10, color="#777"))
    return labels


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


def fan_to_svg(fd: FixedData, graph: OrientedExchangeGraph) -> str:
    """The rank-2 cluster fan: every g-vector ray, chambers labeled."""
    if fd.rank != 2:
        raise NotRankTwo("fan output is rank-2 only")
    rays = []
    seen = set()
    for seed in graph.vertices.values():
        for j in range(2):
            ray = seed.g_column(j)
            if ray not in seen:
                seen.add(ray)
                rays.append(ray)
    parts = _svg_open()
    for ray in rays:
        parts.append(_svg_ray(ray, "#111111", 1.5))
        parts.append(
            _svg_label(ray, "(%s)" % ",".join(str(x) for x in ray), size=10)
        )
    parts.extend(_svg_chamber_labels(graph))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
