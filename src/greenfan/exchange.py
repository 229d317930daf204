"""Exact mutation data for cluster patterns and the oriented exchange graph.

A pattern is fixed by a skew-symmetrizable integer matrix ``B`` together with
a positive integer diagonal ``delta`` such that ``diag(delta)^-1 * B`` is
skew-symmetric.  Every seed carries the triple ``(B_t, C_t, G_t)`` of exchange,
coefficient and degree matrices taken relative to the root seed, where the
root has ``C = G = I``.

Conventions used throughout:

* matrices are tuples of row tuples of python ints (arbitrary precision);
* mutation directions ``k`` are 0-based;
* the c-vector of direction ``k`` at a seed is column ``k`` of ``C_t``, and a
  mutation is *green* when that column is entrywise >= 0;
* oriented edges of the exchange graph point along green mutations.

The coefficient matrix mutates by the extended-matrix rule (entrywise, no
sign assumptions); the degree matrix mutates by the column recurrence driven
by the sign of the current c-vector.  The two are tied together by the exact
duality ``G^T * D * C = D``; enumeration relies on it to identify seeds by G,
and the test-suite checks it on every enumerated seed.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter
from typing import NamedTuple

from . import linalg
from .errors import (
    BadDecomposition,
    BadInput,
    CycleFound,
    InternalError,
    NotRankTwo,
    NotSkewSymmetrizable,
    SignIncoherent,
)

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


@dataclass(frozen=True)
class FixedData:
    """Validated root data shared by every seed of a pattern."""

    rank: int
    b: Matrix
    delta: tuple[int, ...]
    omega: tuple[tuple[Fraction, ...], ...]
    d: tuple[int, ...]


def _minimal_skew_symmetrizer(b):
    """Smallest positive integer diagonal D with D*B skew-symmetric, or None.

    The ratios d_j/d_i are forced along every edge of the nonzero pattern of
    B, so a breadth-first propagation either produces a consistent positive
    rational assignment per connected component (then scaled to minimal
    integers) or proves none exists.
    """
    r = len(b)
    for i in range(r):
        if b[i][i] != 0:
            return None
        for j in range(r):
            if (b[i][j] == 0) != (b[j][i] == 0):
                return None
            if b[i][j] * b[j][i] > 0:
                return None
    ratio = [None] * r
    for start in range(r):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        component = [start]
        queue = deque([start])
        while queue:
            i = queue.popleft()
            for j in range(r):
                if b[i][j] == 0:
                    continue
                # d_i * b_ij = -d_j * b_ji  =>  d_j = d_i * (-b_ij / b_ji)
                forced = ratio[i] * Fraction(-b[i][j], b[j][i])
                if ratio[j] is None:
                    ratio[j] = forced
                    component.append(j)
                    queue.append(j)
                elif ratio[j] != forced:
                    return None
        scale = lcm(*(ratio[i].denominator for i in component))
        ints = [ratio[i] * scale for i in component]
        shrink = gcd(*(int(x) for x in ints))
        for i, v in zip(component, ints):
            ratio[i] = int(v) // shrink
    return tuple(ratio)


def _int_list(field: str, value) -> tuple:
    if not isinstance(value, (list, tuple)):
        raise BadInput("%s must be a list of integers, got %r" % (field, value))
    return tuple(value)


def validate_fixed_data(b, delta, d=None) -> FixedData:
    """Check the root data and return it in canonical form.

    Raises NotSkewSymmetrizable when no positive skew-symmetrizer exists and
    BadDecomposition when ``diag(delta)^-1 * B`` fails to be skew-symmetric.
    When ``d`` is omitted the minimal positive skew-symmetrizer is computed.
    A ``B`` that is not a square integer matrix, or a ``delta`` or ``d``
    that is not a list, raises BadInput.
    """
    try:
        bm = linalg.as_int_matrix(b)
    except (TypeError, ValueError) as exc:
        raise BadInput("B: %s" % exc) from exc
    r = len(bm)
    delta = _int_list("delta", delta)
    if len(delta) != r or not all(linalg.is_int(x) and x > 0 for x in delta):
        raise BadDecomposition("delta must consist of %d positive integers" % r)
    found = _minimal_skew_symmetrizer(bm)
    if found is None:
        raise NotSkewSymmetrizable("B admits no positive skew-symmetrizer")
    if d is None:
        d = found
    else:
        d = _int_list("D", d)
        if len(d) != r or not all(linalg.is_int(x) and x > 0 for x in d):
            raise NotSkewSymmetrizable("provided D must be positive integers")
        for i in range(r):
            for j in range(r):
                if d[i] * bm[i][j] != -d[j] * bm[j][i]:
                    raise NotSkewSymmetrizable("provided D does not skew-symmetrize B")
    omega = tuple(
        tuple(Fraction(bm[i][j], delta[i]) for j in range(r)) for i in range(r)
    )
    for i in range(r):
        for j in range(r):
            if omega[i][j] != -omega[j][i]:
                raise BadDecomposition(
                    "diag(delta)^-1 * B is not skew-symmetric at (%d, %d)" % (i, j)
                )
    return FixedData(rank=r, b=bm, delta=delta, omega=omega, d=d)


@dataclass(frozen=True)
class TropicalSeed:
    """The (B, C, G) triple at one vertex of the mutation tree.

    ``path`` records the mutation directions leading here from the root; it
    is bookkeeping only and does not enter equality of unlabeled seeds.
    """

    b: Matrix
    c: Matrix
    g: Matrix
    path: tuple[int, ...] = ()

    @property
    def rank(self) -> int:
        return len(self.b)

    def c_column(self, k) -> Vector:
        return tuple(self.c[i][k] for i in range(len(self.c)))

    def g_column(self, k) -> Vector:
        return tuple(self.g[i][k] for i in range(len(self.g)))

    def same_matrices(self, other) -> bool:
        return self.b == other.b and self.c == other.c and self.g == other.g


def root_seed(fd: FixedData) -> TropicalSeed:
    eye = linalg.identity(fd.rank)
    return TropicalSeed(b=fd.b, c=eye, g=eye, path=())


def _column_sign(c: Matrix, k: int) -> int:
    col = [row[k] for row in c]
    hi, lo = max(col), min(col)
    if hi > 0 > lo:
        raise SignIncoherent("c-vector %r mixes signs" % (col,))
    if hi == lo == 0:
        raise SignIncoherent("c-vector of direction %d is zero" % k)
    return 1 if hi > 0 else -1


def is_green(seed: TropicalSeed, k: int) -> bool:
    """True when the c-vector of direction ``k`` is positive."""
    return _column_sign(seed.c, k) == 1


def mutate_seed(fd: FixedData, seed: TropicalSeed, k: int) -> TropicalSeed:
    """Mutate the seed in direction ``k`` (0-based); an exact involution."""
    r = fd.rank
    if not 0 <= k < r:
        raise IndexError("direction %d out of range for rank %d" % (k, r))
    b, c, g = seed.b, seed.c, seed.g
    eps = _column_sign(c, k)
    bk = b[k]
    # off row and column k, x_ij of B or C moves by |x_ik| * b_kj where x_ik * b_kj > 0,
    # so a row with x_ik = 0 is reused; G changes only in column k
    same_sign = ([j for j, x in enumerate(bk) if x < 0], [j for j, x in enumerate(bk) if x > 0])

    def shear(m):
        out = []
        for row in m:
            x = row[k]
            if x:
                row = list(row)
                row[k] = -x
                size = x if x > 0 else -x
                for j in same_sign[x > 0]:
                    row[j] += size * bk[j]
                row = tuple(row)
            out.append(row)
        return out

    new_b = shear(b)
    new_b[k] = tuple(-x for x in bk)
    g_cols = list(zip(*g))
    g_cols[k] = _mutated_g_column(b, g_cols, k, eps)
    return TropicalSeed(
        b=tuple(new_b), c=tuple(shear(c)), g=tuple(zip(*g_cols)), path=seed.path + (k,)
    )


def _mutated_g_column(b: Matrix, g_cols, k: int, eps: int) -> Vector:
    """Column k of G after mutation in direction k: -g_k + sum_j pos(-eps * b_jk) g_j.

    ``g_cols`` are the columns of G before the mutation and ``eps`` the sign
    of the c-vector of direction ``k``; the other columns do not change.
    """
    g_k = [-x for x in g_cols[k]]
    for row, g_j in zip(b, g_cols):
        w = -eps * row[k]
        if w > 0:
            g_k = [x + w * y for x, y in zip(g_k, g_j)]
    return tuple(g_k)


class SeedKey(NamedTuple):
    """Canonical fingerprint of a seed up to simultaneous relabeling.

    ``g_columns`` holds the g-vectors sorted lexicographically and ``b`` the
    exchange matrix conjugated by the sorting permutation.  Distinct columns of
    a determinant +-1 matrix make the sort unambiguous, and the coefficient
    matrix is recoverable from duality, so these two components identify the
    unlabeled seed.
    """

    g_columns: tuple[Vector, ...]
    b: Matrix


def canonical_key(seed: TropicalSeed) -> SeedKey:
    cols = tuple(zip(*seed.g))
    if len(cols) < 2:
        return SeedKey(g_columns=cols, b=tuple(map(tuple, seed.b)))
    take = itemgetter(*sorted(range(len(cols)), key=cols.__getitem__))
    return SeedKey(g_columns=take(cols), b=tuple(map(take, take(seed.b))))


@dataclass(frozen=True)
class OrientedExchangeGraph:
    """Unlabeled seeds with edges oriented along green mutations.

    ``vertices`` maps each canonical key to the first labeled representative
    discovered; insertion order is breadth-first discovery order and is relied
    on for deterministic output.  ``status`` is "complete" when the breadth
    first closure finished within budget, else "truncated".
    """

    root: SeedKey
    vertices: dict[SeedKey, TropicalSeed]
    edges: tuple[tuple[SeedKey, SeedKey, int], ...]
    status: str
    depth_reached: int

    @property
    def rank(self) -> int:
        return len(self.root.b)


def enumerate_graph(
    fd: FixedData, max_vertices: int = 100000, max_depth: int = 12
) -> OrientedExchangeGraph:
    """Breadth-first closure of the unlabeled exchange graph from the root.

    Directions are explored in ascending order, which makes vertex discovery
    order (and hence all serialized output) reproducible.  Every edge is
    recorded from its green side relative to the stored representative; on a
    truncated run frontier vertices may be missing incident edges.  A vertex
    skips the direction it was discovered by: the involution leads back to
    the stored parent, and that edge was recorded at discovery.

    A neighbour is identified by its g-vectors alone, so each direction costs
    one new g-column and a lookup of the sorted columns; only a vertex seen
    for the first time is mutated in full and keyed.  G fixes the rest of a
    seed: C = D^-1 (G^T)^-1 D by duality and B = G^-1 B_0 C (Nakanishi-
    Zelevinsky), so equal sorted g-columns mean equal keys, and equal
    labeled g-columns mean equal labeled seeds.  The sign coherence of every
    c-vector is checked at each expanded vertex.
    """
    root = root_seed(fd)
    seeds = [root]  # by vertex id, in discovery order
    keys = [canonical_key(root)]
    g_cols = [tuple(zip(*root.g))]  # labeled g-columns
    depth_of = [0]
    id_of = {keys[0].g_columns: 0}  # sorted g-columns -> vertex id
    edges: list[tuple[int, int, int]] = []
    seen_edges: set[tuple[int, int, int]] = set()
    queue = deque([0])
    truncated = False
    depth_reached = 0
    while queue:
        v = queue.popleft()
        seed = seeds[v]
        depth = depth_of[v]
        depth_reached = max(depth_reached, depth)
        if depth >= max_depth:
            truncated = True
            continue
        came_by = seed.path[-1] if seed.path else None
        cols = g_cols[v]
        for k in range(fd.rank):
            eps = _column_sign(seed.c, k)
            if k == came_by:
                continue
            ncols = cols[:k] + (_mutated_g_column(seed.b, cols, k, eps),) + cols[k + 1 :]
            u = id_of.get(tuple(sorted(ncols)))
            if u is None:
                if len(seeds) >= max_vertices:
                    truncated = True
                    continue
                u = len(seeds)
                neighbor = mutate_seed(fd, seed, k)
                key = canonical_key(neighbor)
                id_of[key.g_columns] = u
                seeds.append(neighbor)
                keys.append(key)
                g_cols.append(ncols)
                depth_of.append(depth + 1)
                queue.append(u)
            if eps > 0:
                edge = (v, u, k)
            elif g_cols[u] == ncols:
                # Red from here means green from the neighbor; direction k is
                # meaningful there only when the stored representative is the
                # labeled seed mutation leads to.
                edge = (u, v, k)
            else:
                continue  # the green side will record it when expanded
            if edge not in seen_edges:
                seen_edges.add(edge)
                edges.append(edge)
    return OrientedExchangeGraph(
        root=keys[0],
        vertices=dict(zip(keys, seeds)),
        edges=tuple((keys[s], keys[t], k) for s, t, k in edges),
        status="truncated" if truncated else "complete",
        depth_reached=depth_reached,
    )


def certify_acyclic(graph: OrientedExchangeGraph) -> tuple[SeedKey, ...]:
    """Topological order of the vertices, root first.

    Raises CycleFound carrying an explicit directed cycle when one exists.
    Ties are broken by discovery index, so the certificate is deterministic.
    Keys are hashed once, into discovery indices; the sort runs on those.
    """
    keys = list(graph.vertices)
    index = {key: i for i, key in enumerate(keys)}
    edges = [(index[src], index[dst]) for src, dst, _ in graph.edges]
    indegree = [0] * len(keys)
    out: list[list[int]] = [[] for _ in keys]
    for src, dst in edges:
        out[src].append(dst)
        indegree[dst] += 1
    ready = [i for i, d in enumerate(indegree) if d == 0]  # sorted: a heap already
    order: list[int] = []
    remaining = list(indegree)
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for dst in out[i]:
            remaining[dst] -= 1
            if remaining[dst] == 0:
                heapq.heappush(ready, dst)
    if len(order) < len(keys):
        raise CycleFound([keys[i] for i in _extract_cycle(edges, remaining)])
    if indegree[index[graph.root]] != 0:
        raise InternalError("root has an incoming green edge; enumeration is broken")
    return tuple(keys[i] for i in order)


def _extract_cycle(edges, remaining):
    stuck = {i for i, v in enumerate(remaining) if v > 0}
    preds: dict[int, int] = {}
    for src, dst in edges:
        if src in stuck and dst in stuck and dst not in preds:
            preds[dst] = src
    # every stuck vertex has a stuck predecessor, so the walk back from the
    # first stuck vertex in discovery order closes up
    start = min(stuck)
    trail = [start]
    seen = {start: 0}
    cur = start
    while True:
        cur = preds[cur]
        if cur in seen:
            cycle = trail[seen[cur]:]
            cycle.reverse()
            return cycle
        seen[cur] = len(trail)
        trail.append(cur)


# ---------------------------------------------------------------------------
# serialization


_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))  # writes tuples as lists


def key_to_str(key: SeedKey) -> str:
    return _KEY_ENCODER.encode({"g": key.g_columns, "B": key.b})


def key_from_str(text: str) -> SeedKey:
    try:
        doc = json.loads(text)
        g = linalg.as_int_matrix(doc["g"])
        b = linalg.as_int_matrix(doc["B"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise BadInput("malformed seed key: %s" % exc) from exc
    return SeedKey(g_columns=g, b=b)


def _seed_to_json(seed: TropicalSeed) -> dict:
    return {
        "B": [list(row) for row in seed.b],
        "C": [list(row) for row in seed.c],
        "G": [list(row) for row in seed.g],
        "path": list(seed.path),
    }


def _seed_from_json(doc) -> TropicalSeed:
    try:
        path = tuple(doc["path"])
        if not all(map(linalg.is_int, path)):
            raise ValueError("path entries must be integers, got %r" % (doc["path"],))
        seed = TropicalSeed(
            b=linalg.as_int_matrix(doc["B"]),
            c=linalg.as_int_matrix(doc["C"]),
            g=linalg.as_int_matrix(doc["G"]),
            path=path,
        )
        if not len(seed.b) == len(seed.c) == len(seed.g):
            raise ValueError("B, C and G must have one size")
        return seed
    except (ValueError, KeyError, TypeError) as exc:
        raise BadInput("malformed seed record: %s" % exc) from exc


def graph_to_json(graph: OrientedExchangeGraph, topological_order=None) -> dict:
    names = {k: key_to_str(k) for k in graph.vertices}  # root and edges name vertices
    doc = {
        "rank": graph.rank,
        "status": graph.status,
        "depth_reached": graph.depth_reached,
        "root": names[graph.root],
        "vertices": {names[k]: _seed_to_json(s) for k, s in graph.vertices.items()},
        "edges": [
            {"source": names[s], "target": names[t], "direction": k}
            for s, t, k in graph.edges
        ],
        "topological_order": None
        if topological_order is None
        else [names[k] for k in topological_order],
    }
    return doc


def graph_from_json(doc) -> OrientedExchangeGraph:
    """Parse a graph document; edges and root must name listed vertices.

    Each vertex's key is derived from its seed and must render to the name
    the vertex is listed under, so a seed record cannot stand under another
    vertex's name.  Root and edges are looked up among those names, no edge
    may point into the root, every direction lies in ``range(rank)``, and the
    status is ``"complete"`` or ``"truncated"``.
    """
    try:
        keys, vertices = {}, {}
        for name, record in doc["vertices"].items():
            seed = _seed_from_json(record)
            keys[name] = key = canonical_key(seed)
            if key_to_str(key) != name:
                raise BadInput("vertex %s holds the seed of %s" % (name, key_to_str(key)))
            vertices[key] = seed
        if doc["root"] not in keys:
            raise BadInput("root %s is not a vertex" % doc["root"])
        root = keys[doc["root"]]
        rank = len(root.b)
        edges = []
        for e in doc["edges"]:
            k = e["direction"]
            if not linalg.is_int(k):
                raise BadInput("edge direction must be an integer, got %r" % (k,))
            if not 0 <= k < rank:
                raise BadInput("edge direction %d is outside range(%d)" % (k, rank))
            if e["source"] not in keys or e["target"] not in keys:
                raise BadInput(
                    "edge %s -> %s names an unknown vertex" % (e["source"], e["target"])
                )
            src, dst = keys[e["source"]], keys[e["target"]]
            if dst == root:
                raise BadInput("edge %s -> %s points into the root" % (e["source"], e["target"]))
            edges.append((src, dst, k))
        depth = doc["depth_reached"]
        if not linalg.is_int(depth):
            raise BadInput("depth_reached must be an integer, got %r" % (depth,))
        status = doc["status"]
        if status not in ("complete", "truncated"):
            raise BadInput('status must be "complete" or "truncated", got %r' % (status,))
        return OrientedExchangeGraph(
            root=root,
            vertices=vertices,
            edges=tuple(edges),
            status=status,
            depth_reached=depth,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise BadInput("malformed graph document: %s" % exc) from exc


def graph_to_dot(graph: OrientedExchangeGraph) -> str:
    """GraphViz rendering; vertices labeled by their sorted g-vectors."""
    index = {key: i for i, key in enumerate(graph.vertices)}
    lines = ["digraph oriented_exchange_graph {", "  rankdir=LR;"]
    for key, i in index.items():
        label = " ".join("(%s)" % ",".join(str(x) for x in col) for col in key.g_columns)
        lines.append('  s%d [label="%s"];' % (i, label))
    for src, dst, k in graph.edges:
        lines.append('  s%d -> s%d [label="%d"];' % (index[src], index[dst], k))
    lines.append("}")
    return "\n".join(lines) + "\n"


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
