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

from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from . import exchange, linalg
from .crossings import Crossing, CrossingSequence, wall_crossing
from .errors import (
    BadInput,
    IncompleteGraph,
    InconsistencyFound,
    InternalError,
    InvalidWalk,
    NotRankTwo,
)
from .exchange import (
    FixedData,
    OrientedExchangeGraph,
    SeedKey,
    TropicalSeed,
    _column_sign,
    _KeyNamer,
    _svg_document,
    _svg_label,
    _svg_ray,
    key_to_str,
    mutate_seed,
    root_seed,
)
# unused here; perfbench/spans.py wraps scattering.canonical_key
from .exchange import canonical_key  # noqa: F401
from .liegroup import (
    GroupElement,
    PbwAlgebra,
    RaySeries,
    TorusAction,
    _check_level,
    _exact,
    _ray_words,
    _terms_to_json,
    dilog_log_terms,
    group_from_json,
    ray_coefficients,
)
from .linalg import degree, is_positive_vector, letter_key

Vector = tuple[int, ...]


def _pairing(delta, n, m) -> int:
    """<n, m> times lcm(delta), with m in the f-basis: sum n_i m_i (lcm / delta_i), in ints."""
    return sum(a * b * lcm(*delta) // d for a, b, d in zip(n, m, delta))


# ---------------------------------------------------------------------------
# walls


class Wall(NamedTuple):
    """Support rays inside ``normal``-perp carrying a grouplike element."""

    normal: Vector
    rays: tuple[Vector, ...]
    element: GroupElement


def validate_wall(fd: FixedData, wall: Wall) -> dict[int, object]:
    if len(wall.normal) != fd.rank or not is_positive_vector(wall.normal):
        raise ValueError("wall normal must be a positive %d-vector, got %r" % (fd.rank, wall.normal))
    if gcd(*wall.normal) != 1:
        raise ValueError("wall normal must be primitive, got %r" % (wall.normal,))
    if not wall.rays:
        raise ValueError("rays must not be empty")
    for ray in wall.rays:
        if len(ray) != fd.rank or not any(ray):
            raise ValueError("ray must be a nonzero %d-vector, got %r" % (fd.rank, ray))
        if _pairing(fd.delta, wall.normal, ray):
            raise ValueError("ray %r is not orthogonal to %r" % (ray, wall.normal))
    return ray_coefficients(wall.normal, wall.element.log_terms())  # its table; raises off the ray


def _crossing_normal(seed: TropicalSeed, k: int) -> tuple[int, Vector]:
    """Sign of the c-vector of direction ``k`` and its positive representative."""
    col = seed.c_column(k)
    sign = _column_sign(col, k)
    return sign, col if sign > 0 else tuple(-x for x in col)


class ScatteringDiagram(NamedTuple):
    level: int
    walls: tuple[Wall, ...]


def _checked_walls(fd: FixedData, diagram: ScatteringDiagram):
    """Each wall and its ``validate_wall`` table; the ValueError of a diagram the reader refuses."""
    _check_level(diagram.level)
    for wall in diagram.walls:
        table = validate_wall(fd, wall)
        if wall.element.algebra.level != diagram.level:
            raise ValueError("wall element is not at the diagram level %d" % diagram.level)
        yield wall, table


# ---------------------------------------------------------------------------
# crossing sequences


def _crossing(fd: FixedData, seed: TropicalSeed, k: int) -> Crossing:
    """The crossing of the facet of direction ``k`` out of the seed's chamber."""
    sign, normal = _crossing_normal(seed, k)
    return wall_crossing(fd, normal, sign)


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
    for i, (seed, k) in enumerate(steps):
        if not linalg.is_int(k) or not 0 <= k < fd.rank:
            raise InvalidWalk("direction %r out of range at step %d" % (k, i))
        nxt = mutate_seed(fd, seed, k)
        if i + 1 < len(steps) and not nxt.same_matrices(steps[i + 1][0]):
            raise InvalidWalk("steps %d -> %d do not chain" % (i, i + 1))
        crossings.append(_crossing(fd, seed, k))
    return CrossingSequence(crossings=tuple(crossings))


def path_ordered_product(fd: FixedData, cs: CrossingSequence, level: int) -> GroupElement:
    """Compose the crossings right-to-left at the given truncation level."""
    alg = PbwAlgebra(fd.omega, level)
    acc = alg.identity()
    for crossing in cs.crossings:
        factor = alg.dilog(crossing.normal, crossing.sign * crossing.exponent)
        acc = factor * acc
    return acc


# ---------------------------------------------------------------------------
# loop consistency over an enumerated graph


class LoopReport(NamedTuple):
    vertices: tuple[SeedKey, ...]
    directions: tuple[int, ...]
    max_degree_checked: int
    identity: bool


class ConsistencyReport(NamedTuple):
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
    check.  A graph whose root seed is not ``root_seed(fd)`` was enumerated
    from other data, and raises InvalidWalk before any product.

    Everything runs on the graph's vertex ids.  Each undirected edge is
    resolved once, into the label at each end's stored seed of the g-vector
    it loses across the edge: the arc's direction at its source, and the one
    label of its target whose g-vector the source lacks.  Duality pairs that
    g-vector with one c-vector whatever the labels, so the stored seed of a
    vertex stands for every seed with its key.  Each non-tree edge (u, v) of
    a BFS tree, u before v, closes the cycle read off the root paths of its
    two ends: from u up to the last vertex they share, then down to v.

    Products are checked through their faithful torus action, with one apply
    per edge.  T_x, the product along the BFS-tree path from the root to x,
    costs one apply per tree edge.  Crossing an edge backwards inverts its
    factor, so the cycle u -> ... -> v -> u closed by the crossing E_vu has
    product E_vu T_v T_u^-1, and it is the identity exactly when E_vu T_v and
    T_u act alike: g z = h z gives h^-1 g = 1.  A failing loop's error
    carries the lowest log terms of its product g h^-1 = h (h^-1 g) h^-1,
    read off those two actions as those of h^-1 g: conjugation changes a log
    only by brackets, which raise its degree.  No PBW product is built.
    """
    _check_level(level)
    if graph.status != "complete":
        raise IncompleteGraph("loop consistency needs a complete graph")
    keys = list(graph.vertices)
    seeds = list(graph.vertices.values())
    if not seeds[0].same_matrices(root_seed(fd)):
        raise InvalidWalk("the graph was not enumerated from this fixed data")
    g_cols = [tuple(zip(*seed.g)) for seed in seeds]  # labeled g-vectors by id
    for key, cols in zip(keys, g_cols):
        if tuple(sorted(cols)) != key.g_columns:
            raise InvalidWalk("stored seed does not match its key %s" % key_to_str(key))
    side = {}  # (a, b) -> the label of the g-vector a loses across the edge to b
    for a, b, k in graph.arcs:
        ends = set(g_cols[a])
        lost = [j for j, g in enumerate(g_cols[b]) if g not in ends]
        if len(lost) != 1 or g_cols[a][k] in g_cols[b]:
            raise InvalidWalk("cycle vertices are not adjacent in the pattern")
        side[a, b], (side[b, a],) = k, lost
    pairs = sorted(pair for pair in side if pair[0] < pair[1])
    adj = [[] for _ in keys]
    for a, b in pairs:  # each list comes out in ascending id order
        adj[a].append(b)
        adj[b].append(a)
    exponents = {}  # many edges share a normal; an int when integral

    def cross(action, a, b) -> TorusAction:
        """Apply the crossing out of chamber a into chamber b to ``action``."""
        sign, normal = _crossing_normal(seeds[a], side[a, b])
        exponent = exponents.get(normal)
        if exponent is None:
            exponent = exponents[normal] = _exact(wall_crossing(fd, normal, sign).exponent)
        action.apply_dilog(normal, sign * exponent)
        return action

    path = [None] * len(keys)  # x -> the BFS-tree path from the root to x
    tree = [None] * len(keys)  # x -> T_x
    path[0], tree[0] = (0,), TorusAction(fd.omega, level)
    order = [0]  # breadth-first from the root; the loop visits what it appends
    for p in order:
        for x in adj[p]:
            if path[x] is None:
                path[x] = path[p] + (x,)
                tree[x] = cross(tree[p].copy(), p, x)
                order.append(x)
    reports = []
    for u, v in pairs:
        pu, pv = path[u], path[v]
        i = min(len(pu), len(pv)) - 1  # adjacent ends are at most one BFS level apart
        while pu[i] != pv[i]:
            i -= 1
        cycle = pu[i:][::-1] + pv[i + 1:]  # u up to the meeting vertex, then down to v
        if len(cycle) == 2:  # a tree edge closes no cycle
            continue
        closed = cross(tree[v].copy(), v, u)
        if closed.series != tree[u].series:
            raise InconsistencyFound([keys[i] for i in cycle], closed.lowest_log_terms(tree[u]))
        label = {g: j for j, g in enumerate(g_cols[u])}  # of each g-vector along the walk
        directions = []
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            k = label.pop(g_cols[a][side[a, b]])
            label[g_cols[b][side[b, a]]] = k
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
    """The ray of n-perp not containing B*n (the outgoing side; see ``_sweep_factors``)."""
    v = _line_direction(fd.delta, n)
    bn = linalg.matvec(fd.b, n)
    i = 0 if v[0] else 1
    same_side = (bn[i] > 0) == (v[i] > 0)
    return linalg.vec_neg(v) if same_side else v


def _ccw_key(u0, v):
    """Sort key for the counterclockwise angle from direction u0 to v.

    The class is 0 left of u0 and 1 right of it, as no wall ray is parallel
    to u0; within each the cotangent dot/cross falls as the angle grows.
    """
    cross = u0[0] * v[1] - u0[1] * v[0]
    dot = u0[0] * v[0] + u0[1] * v[1]
    return (0 if cross > 0 else 1, -Fraction(dot, cross))


def _crossing_sign(delta, ray, normal) -> int:
    """+1 when the counterclockwise sweep leaves the wall's positive side: <n, (-r1, r0)> < 0."""
    return 1 if _pairing(delta, normal, (-ray[1], ray[0])) < 0 else -1


def _crossing_record(fd, ray, normal, table, clockwise=False):
    """``(key, normal, series)`` of the crossing at ``ray`` of the wall with log
    ``ray_coefficients`` ``table``, in a full sweep around the origin that
    crosses its records in ascending ``key``: counterclockwise from (1, 1), or
    clockwise from (-1, -1), the counterclockwise order of the mirrored rays
    (y, x).  The series is the ``RaySeries`` of the signed table, so a record
    swept again at a higher level extends the factor series it built before.

    A ray of n-perp, n positive, is t * (d1 n2, -d2 n1) with t != 0, so its
    entries never share a strict sign: it misses the line of the basepoints
    +-(1, 1), and the sweep tangent pairs with n to t * (n1^2 d2/d1 + n2^2
    d1/d2) != 0.  Walls on one ray share its normal, so their factors commute
    in any order.  A defect n of completion has B * n != 0: a rank-2 B != 0
    has both off-diagonal entries nonzero, and B = 0 leaves sweeps trivial.
    """
    eps = _crossing_sign(fd.delta, ray, normal)
    if clockwise:
        key, eps = _ccw_key((-1, -1), ray[::-1]), -eps
    else:
        key = _ccw_key((1, 1), ray)
    return key, normal, RaySeries({j: eps * c for j, c in table.items()})


def _sweep_defect(tables: TorusAction, records, level) -> dict:
    """Lowest-degree log terms of the sweep's product at ``level``, first
    crossed rightmost, read off ``tables.identity_at(level)``; empty when it
    is 1.  Sweeps on one ``tables`` at any levels build each step entry once."""
    action = tables.identity_at(level)
    for _, n, series in sorted(records, key=itemgetter(0)):
        action.apply_ray(n, series)
    return action.lowest_log_terms()


def complete_rank2(fd: FixedData, level: int) -> ScatteringDiagram:
    """Consistent completion of the two initial walls up to ``level``.

    Degree by degree the log of the full counterclockwise loop product is
    measured; each degree-d defect term c * X_n is canceled by adding
    -eps * c * X_n to the log of the wall on the outgoing ray of n-perp, eps
    the crossing sign of that ray.  Degree-d insertions commute with
    everything modulo degree > d, so each stage settles its degree for good.
    The letters on one ray commute, so one wall per ray carries the sum of
    its terms and each sweep crosses every ray once.  Completion and its
    closing self-check run on logs alone.  A crossing record keeps its factor
    series from stage to stage and is rebuilt only when its wall gains a
    term.  Every stage and the closing check sweep on one action's tables,
    built once per completion.  Each emitted wall element is a one-ray
    ``exp``, which holds its log and builds no PBW carrier until one is read.
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
    # (ray, normal) -> crossing record of the wall there, rebuilt when it gains a term
    records = {(ray, n): _crossing_record(fd, ray, n, ray_coefficients(n, log))
               for rays, n, log in initial for ray in rays}
    scattered: dict[tuple, dict] = {}  # (ray, normal) -> log of the wall there
    tables = TorusAction(fd.omega, level)
    for d in range(2, level + 1):
        defect = _sweep_defect(tables, records.values(), d)
        for n in sorted(defect, key=letter_key):
            if degree(n) != d:
                raise InternalError(
                    "stage %d saw a defect of degree %d" % (d, degree(n))
                )
            n_pr = linalg.primitive(n)
            ray = _outgoing_ray(fd, n_pr)
            log = scattered.setdefault((ray, n_pr), {})
            log[n] = -_crossing_sign(fd.delta, ray, n_pr) * defect[n]
            records[ray, n_pr] = _crossing_record(fd, ray, n_pr, ray_coefficients(n_pr, log))
    defect = _sweep_defect(tables, records.values(), level)
    if defect:
        raise InconsistencyFound((), defect, "completion failed to cancel all defects")
    order = sorted(scattered, key=lambda key: (records[key][0][0],) + key)
    alg = PbwAlgebra(fd.omega, level)
    walls = [
        Wall(normal=n, rays=rays, element=alg.exp(alg.lie_element(log)))
        for rays, n, log in initial + [((ray,), n, scattered[ray, n]) for ray, n in order]
    ]
    return ScatteringDiagram(level=level, walls=tuple(walls))


def verify_rank2_consistency(fd: FixedData, diagram: ScatteringDiagram) -> bool:
    """Re-check a rank-2 diagram with an independently oriented sweep.

    Uses a clockwise loop from the opposite basepoint, so the crossing order
    and all the signs differ from the ones the completion used.  A diagram
    that ``diagram_to_json`` refuses raises its ValueError first.
    """
    if fd.rank != 2:
        raise NotRankTwo("rank-2 verification needs rank 2")
    records = []
    for wall, table in _checked_walls(fd, diagram):
        records += [_crossing_record(fd, ray, wall.normal, table, clockwise=True) for ray in wall.rays]
    defect = _sweep_defect(TorusAction(fd.omega, diagram.level), records, diagram.level)
    if defect:
        raise InconsistencyFound((), defect)
    return True


def factor_dilog_power(fd: FixedData, wall: Wall) -> str | None:
    """Write the wall element as Psi[m]^c when it is one, else None."""
    log = wall.element.log_terms()
    if not log:
        return None
    m = min(log, key=degree)
    c = log[m]
    if log != dilog_log_terms(m, c, wall.element.algebra.level):
        return None
    return "Psi[%s]^%s" % (",".join(str(x) for x in m), c)


# ---------------------------------------------------------------------------
# serialization


_ORIGIN = "rank2-completion"  # every diagram comes from complete_rank2


def diagram_to_json(fd: FixedData, diagram: ScatteringDiagram) -> dict:
    walls, level = [], diagram.level
    for wall, _ in _checked_walls(fd, diagram):
        walls.append(
            {
                "normal": list(wall.normal),
                "rays": [list(r) for r in wall.rays],
                "element": _terms_to_json(level, _ray_words(wall.element.log_terms(), level)),
                "factored": factor_dilog_power(fd, wall),
            }
        )
    return {"level": level, "origin": _ORIGIN, "walls": walls}


def diagram_from_json(doc, fd: FixedData) -> ScatteringDiagram:
    """Read a diagram document; every wall element must live at its level."""
    try:
        level = doc["level"]
        if not linalg.is_int(level) or level < 1:
            raise BadInput("diagram level must be an integer >= 1, got %r" % (level,))
        if doc.get("origin", _ORIGIN) != _ORIGIN:
            raise BadInput("diagram origin must be %r, got %r" % (_ORIGIN, doc["origin"]))
        walls = []
        for i, rec in enumerate(linalg.require_list(doc["walls"], "walls")):
            if rec["element"]["level"] != level:
                raise BadInput("wall %d: element is not at the diagram level %d" % (i, level))
            rays = linalg.require_list(rec["rays"], "wall rays")
            wall = Wall(
                normal=linalg.int_vector(rec["normal"], "wall normal"),
                rays=tuple(linalg.int_vector(r, "wall ray") for r in rays),
                element=group_from_json(rec["element"], fd.omega),
            )
            try:
                validate_wall(fd, wall)
            except ValueError as exc:
                raise BadInput("wall %d: %s" % (i, exc)) from exc
            walls.append(wall)
        return ScatteringDiagram(level=level, walls=tuple(walls))
    except (KeyError, TypeError, ValueError) as exc:
        raise BadInput("malformed diagram document: %s" % exc) from exc


def report_to_json(report: ConsistencyReport) -> dict:
    """The report document; its key names are built from shared parts by one
    ``_KeyNamer``, which lasts this call.  Loops share most key objects: each
    is named once, through its id, as a key tuple does not cache its hash."""
    name = _KeyNamer()
    names = {}
    for loop in report.loops:
        for k in loop.vertices:
            if id(k) not in names:
                names[id(k)] = name(k)
    return {
        "level": report.level,
        "loop_count": len(report.loops),
        "loops": [
            {
                "vertices": [names[i] for i in map(id, loop.vertices)],
                "directions": list(loop.directions),
                "max_degree_checked": loop.max_degree_checked,
                "identity": loop.identity,
            }
            for loop in report.loops
        ],
    }


def diagram_to_svg(fd: FixedData, diagram: ScatteringDiagram) -> str:
    """Static picture of a rank-2 diagram, chambers labeled when finite; deterministic bytes."""
    if fd.rank != 2:
        raise NotRankTwo("SVG output is rank-2 only")
    parts = []
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
    # the default budgets enumerate every finite rank-2 type (at most 8 seeds)
    return _svg_document(parts, exchange.enumerate_graph(fd))
