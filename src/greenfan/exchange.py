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


class FixedData(NamedTuple):
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
    integers) or proves none exists.  Every nonzero b_ij is visited, and
    needs b_ji nonzero of the opposite sign, so a nonzero b_ii fails.
    """
    r = len(b)
    ratio = [None] * r
    for start in range(r):
        if ratio[start] is not None:
            continue
        ratio[start] = Fraction(1)
        component = [start]
        for i in component:  # breadth-first: visits what it appends
            for j in range(r):
                if b[i][j] == 0:
                    continue
                if b[i][j] * b[j][i] >= 0:  # a zero b_ij under b_ji != 0 is met from j
                    return None
                # d_i * b_ij = -d_j * b_ji  =>  d_j = d_i * (-b_ij / b_ji)
                forced = ratio[i] * Fraction(-b[i][j], b[j][i])
                if ratio[j] is None:
                    ratio[j] = forced
                    component.append(j)
                elif ratio[j] != forced:
                    return None
        scale = lcm(*(ratio[i].denominator for i in component))
        ints = [ratio[i] * scale for i in component]
        shrink = gcd(*(int(x) for x in ints))
        for i, v in zip(component, ints):
            ratio[i] = int(v) // shrink
    return tuple(ratio)


def validate_fixed_data(b, delta) -> FixedData:
    """Check the root data and return it in canonical form.

    Raises NotSkewSymmetrizable when no positive skew-symmetrizer exists and
    BadDecomposition when ``diag(delta)^-1 * B`` fails to be skew-symmetric.
    ``d`` is the minimal positive skew-symmetrizer, which ``B`` determines.
    A ``B`` that is not a square integer matrix, or a ``delta`` that is not
    a list, raises BadInput.
    """
    try:
        bm = linalg.as_int_matrix(b)
    except (TypeError, ValueError) as exc:
        raise BadInput("B: %s" % exc) from exc
    r = len(bm)
    if not isinstance(delta, (list, tuple)):
        raise BadInput("delta must be a list of integers, got %r" % (delta,))
    delta = tuple(delta)
    if len(delta) != r or not all(linalg.is_int(x) and x > 0 for x in delta):
        raise BadDecomposition("delta must consist of %d positive integers" % r)
    d = _minimal_skew_symmetrizer(bm)
    if d is None:
        raise NotSkewSymmetrizable("B admits no positive skew-symmetrizer")
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


class TropicalSeed(NamedTuple):
    """The (B, C, G) triple at one vertex of the mutation tree.

    ``path`` records the mutation directions leading here from the root; it
    is bookkeeping only and does not enter equality of unlabeled seeds.
    """

    b: Matrix
    c: Matrix
    g: Matrix
    path: tuple[int, ...] = ()

    def c_column(self, k) -> Vector:
        return tuple([row[k] for row in self.c])

    def g_column(self, k) -> Vector:
        return tuple(self.g[i][k] for i in range(len(self.g)))

    def same_matrices(self, other) -> bool:
        return self.b == other.b and self.c == other.c and self.g == other.g


def root_seed(fd: FixedData) -> TropicalSeed:
    eye = linalg.identity(fd.rank)
    return TropicalSeed(b=fd.b, c=eye, g=eye, path=())


def _column_sign(col: Vector, k: int) -> int:
    """The sign of ``col``, the c-vector of direction ``k``."""
    hi, lo = max(col), min(col)
    if hi > 0 > lo:
        raise SignIncoherent("c-vector %r mixes signs" % (list(col),))
    if hi == lo == 0:
        raise SignIncoherent("c-vector of direction %d is zero" % k)
    return 1 if hi > 0 else -1


def mutate_seed(fd: FixedData, seed: TropicalSeed, k: int) -> TropicalSeed:
    """Mutate the seed in direction ``k`` (0-based); an exact involution."""
    if not linalg.is_int(k) or not 0 <= k < fd.rank:
        raise IndexError("direction %r out of range for rank %d" % (k, fd.rank))
    g_cols = list(zip(*seed.g))
    g_cols[k] = _mutated_g_column(seed.b, g_cols, k, _column_sign(seed.c_column(k), k))
    return TropicalSeed(*_shear(seed.b, seed.c, k), tuple(zip(*g_cols)), seed.path + (k,))


def _shear(b: Matrix, c: Matrix, k: int) -> tuple[Matrix, Matrix]:
    """B and C mutated in direction ``k``: off row and column k, x_ij moves by
    |x_ik| * b_kj where x_ik * b_kj > 0, so a row with x_ik = 0 is reused."""
    bk = b[k]
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
    return tuple(new_b), tuple(shear(c))


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
    return _seed_key(cols, tuple(sorted(cols)), seed.b)


def _seed_key(cols, g_columns, b: Matrix) -> SeedKey:
    """The key of labeled g-columns ``cols`` and B, ``g_columns`` sorting ``cols``."""
    if len(cols) < 2:  # itemgetter of one index returns a scalar
        return SeedKey(g_columns, tuple(map(tuple, b)))
    take = itemgetter(*map(cols.index, g_columns))  # a seed's g-columns differ
    return SeedKey(g_columns, tuple(map(take, take(b))))


class OrientedExchangeGraph(NamedTuple):
    """Unlabeled seeds with edges oriented along green mutations.

    ``vertices`` maps canonical keys to stored seeds; a vertex's id is its
    position there, the root's 0.  An arc ``(src, dst, k)`` joins ids along
    ``k``, green at ``src``'s seed; ``edges`` names them by key.  ``status``
    is "complete" when the closure finished within budget, else "truncated".
    """

    vertices: dict[SeedKey, TropicalSeed]
    arcs: tuple[tuple[int, int, int], ...]
    status: str
    depth_reached: int

    @property
    def root(self) -> SeedKey:
        return next(iter(self.vertices))

    @property
    def edges(self) -> tuple[tuple[SeedKey, SeedKey, int], ...]:
        keys = list(self.vertices)
        return tuple((keys[s], keys[t], k) for s, t, k in self.arcs)

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
    truncated run frontier vertices may be missing incident edges.

    Each edge is resolved once, from the end expanded first.  Mutation is an
    involution that commutes with relabeling, so when direction k of v
    reaches u, direction j of u leads back to v, where j is the position of
    the new g-column among u's labeled columns, and u skips j.  The arc is
    recorded at once when it is green at v, or red at v with u's labeled
    columns equal to the mutated ones.  Otherwise only u's direction j, green
    there, names it: the arc waits until u reaches j, which keeps the arc
    order of a visit from both ends, and a u at ``max_depth`` never records it.

    A neighbour is identified by its g-vectors alone, so each edge costs one
    new g-column and a lookup of the sorted columns.  A first-seen vertex
    keeps both as its G and its key's g-columns; only its B and C are sheared.
    G fixes the rest of a seed: C = D^-1 (G^T)^-1 D by duality and B = G^-1
    B_0 C (Nakanishi-Zelevinsky), so equal sorted g-columns mean equal keys,
    and equal labeled g-columns mean equal labeled seeds.  The sign coherence
    of every c-vector is checked at each expanded vertex.

    ``max_vertices`` must be an int >= 1 and ``max_depth`` an int >= 0;
    anything else raises ValueError before any work.
    """
    linalg.require_int(max_vertices, "max_vertices", 1)
    linalg.require_int(max_depth, "max_depth", 0)
    root = root_seed(fd)
    seeds = [root]  # by vertex id, in discovery order
    g_cols = [tuple(zip(*root.g))]  # labeled g-columns
    keys = [_seed_key(g_cols[0], tuple(sorted(g_cols[0])), root.b)]
    id_of = {keys[0].g_columns: 0}  # sorted g-columns -> vertex id
    arcs: list[tuple[int, int, int]] = []
    # (u, j) resolved from its far end -> the arc u records on reaching j, or None
    resolved: dict[tuple[int, int], tuple[int, int, int] | None] = {}
    truncated = False
    depth_reached = 0
    for v, seed in enumerate(seeds):  # breadth-first: visits what it appends
        depth = depth_reached = len(seed.path)  # one longer than its parent's
        if depth >= max_depth:
            truncated = True
            continue
        cols, c_cols = g_cols[v], tuple(zip(*seed.c))
        for k in range(fd.rank):
            eps = _column_sign(c_cols[k], k)
            if (v, k) in resolved:
                arc = resolved.pop((v, k))
                if arc is not None:
                    arcs.append(arc)
                continue
            new = _mutated_g_column(seed.b, cols, k, eps)
            ncols = cols[:k] + (new,) + cols[k + 1 :]
            sorted_cols = tuple(sorted(ncols))
            u = id_of.get(sorted_cols)
            if u is None:
                if len(seeds) >= max_vertices:
                    truncated = True
                    continue
                u = id_of[sorted_cols] = len(seeds)
                b, c = _shear(seed.b, seed.c, k)
                seeds.append(TropicalSeed(b, c, tuple(zip(*ncols)), seed.path + (k,)))
                keys.append(_seed_key(ncols, sorted_cols, b))
                g_cols.append(ncols)
            j = g_cols[u].index(new)  # direction j of u leads back to v
            if eps < 0 and g_cols[u] != ncols:
                resolved[u, j] = (u, v, j)  # green at u, but only along its own label j
                continue
            arcs.append((v, u, k) if eps > 0 else (u, v, k))
            resolved[u, j] = None
    return OrientedExchangeGraph(
        vertices=dict(zip(keys, seeds)),
        arcs=tuple(arcs),
        status="truncated" if truncated else "complete",
        depth_reached=depth_reached,
    )


def certify_acyclic(graph: OrientedExchangeGraph) -> tuple[SeedKey, ...]:
    """Topological order of the vertices, root first.

    Raises CycleFound carrying an explicit directed cycle when one exists.
    Ties are broken by vertex id, so the certificate is deterministic.
    """
    keys = list(graph.vertices)
    indegree = [0] * len(keys)
    out: list[list[int]] = [[] for _ in keys]
    for src, dst, _ in graph.arcs:
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
        raise CycleFound([keys[i] for i in _extract_cycle(graph.arcs, remaining)])
    if indegree[0] != 0:
        raise InternalError("root has an incoming green edge; enumeration is broken")
    return tuple(keys[i] for i in order)


def _extract_cycle(arcs, remaining):
    stuck = {i for i, v in enumerate(remaining) if v > 0}
    preds: dict[int, int] = {}
    for src, dst, _ in arcs:
        if src in stuck and dst in stuck and dst not in preds:
            preds[dst] = src
    # every stuck vertex has a stuck predecessor, so the walk back from the
    # first stuck vertex by id closes up; ``seen`` holds the walk in order
    cur, seen = min(stuck), {}
    while cur not in seen:
        seen[cur] = len(seen)
        cur = preds[cur]
    return list(seen)[seen[cur]:][::-1]


# ---------------------------------------------------------------------------
# serialization


_KEY_ENCODER = json.JSONEncoder(separators=(",", ":"))  # writes tuples as lists
_KEY_TEMPLATE = '{"g":[%s],"B":[%s]}'  # a key's text, given each matrix's rows


class _KeyNamer(dict):
    """The one renderer of key names, for the keys of one document, which
    share most g-columns and B rows: each distinct vector is encoded once and
    kept as long as the namer, which lasts one call.  Entries must be ints, as
    in every key greenfan builds: a bool would take the text of an equal int."""

    def __missing__(self, vector):
        text = self[vector] = _KEY_ENCODER.encode(vector)
        return text

    def __call__(self, key: SeedKey) -> str:
        part = self.__getitem__
        return _KEY_TEMPLATE % (",".join(map(part, key.g_columns)), ",".join(map(part, key.b)))


def key_to_str(key: SeedKey) -> str:
    """A key's compact JSON name, a document's vertex name; entries must be ints."""
    return _KeyNamer()(key)


def _seed_to_json(seed: TropicalSeed) -> dict:
    return {
        "B": [list(row) for row in seed.b],
        "C": [list(row) for row in seed.c],
        "G": [list(row) for row in seed.g],
        "path": list(seed.path),
    }


def _seed_from_json(doc) -> TropicalSeed:
    try:
        seed = TropicalSeed(
            b=linalg.as_int_matrix(doc["B"]),
            c=linalg.as_int_matrix(doc["C"]),
            g=linalg.as_int_matrix(doc["G"]),
            path=linalg.int_vector(doc["path"], "path"),
        )
        if not len(seed.b) == len(seed.c) == len(seed.g):
            raise ValueError("B, C and G must have one size")
        return seed
    except (ValueError, KeyError, TypeError) as exc:
        raise BadInput("malformed seed record: %s" % exc) from exc


def graph_to_json(graph: OrientedExchangeGraph, topological_order=None) -> dict:
    """The graph document; its key names are built from shared parts by one
    ``_KeyNamer``, which lasts this call."""
    key_name = _KeyNamer()
    names = {k: key_name(k) for k in graph.vertices}  # the topological order names keys
    by_id = list(names.values())
    return {
        "rank": graph.rank,
        "status": graph.status,
        "depth_reached": graph.depth_reached,
        "root": by_id[0],
        "vertices": {name: _seed_to_json(s) for name, s in zip(by_id, graph.vertices.values())},
        "edges": [
            {"source": by_id[s], "target": by_id[t], "direction": k} for s, t, k in graph.arcs
        ],
        "topological_order": None
        if topological_order is None
        else [names[k] for k in topological_order],
    }


def graph_from_json(doc) -> OrientedExchangeGraph:
    """Parse a graph document; edges and root must name listed vertices.

    Each vertex record is read once: the root's first, since its size must
    be ``rank``, then the rest in listed order, their ids after the root's
    0.  A seed's g-columns must differ, the key derived from them must render
    to the name it is listed under, and it must be rank x rank with its path
    in ``range(rank)``.  No edge may point into the root or repeat, its
    direction lies in ``range(rank)``, ``depth_reached`` is the longest path
    and the status is ``"complete"`` or ``"truncated"``.  One ``_KeyNamer``,
    lasting this call, builds names from shared parts; every seed entry is
    still type-checked.
    """
    try:
        key_name, vertices, root, rank = _KeyNamer(), {}, doc["root"], doc["rank"]
        records = sorted(doc["vertices"].items(), key=lambda item: item[0] != root)  # root first
        if root not in doc["vertices"]:
            raise BadInput("root %s is not a vertex" % root)
        for name, record in records:
            seed = _seed_from_json(record)
            cols = tuple(zip(*seed.g))
            if len(set(cols)) != len(cols):  # so _seed_key's cols.index is exact
                raise BadInput("vertex %s has a repeated g-column" % name)
            key = _seed_key(cols, tuple(sorted(cols)), seed.b)
            if (rendered := key_name(key)) != name:
                raise BadInput("vertex %s holds the seed of %s" % (name, rendered))
            if not vertices and (not linalg.is_int(rank) or rank != len(seed.b)):
                raise BadInput("rank must be the root's size %d, got %r" % (len(seed.b), rank))
            if len(seed.b) != rank or not all(0 <= k < rank for k in seed.path):
                raise BadInput("vertex %s: a %d x %d seed with path %s does not fit rank %d"
                               % (name, len(seed.b), len(seed.b), [*seed.path], rank))
            vertices[key] = seed
        ids = {name: i for i, (name, _) in enumerate(records)}
        arcs: dict[tuple[int, int, int], None] = {}  # an ordered set of (src, dst, k)
        for e in linalg.require_list(doc["edges"], "edges"):
            k = e["direction"]
            if not linalg.is_int(k):
                raise BadInput("edge direction must be an integer, got %r" % (k,))
            if not 0 <= k < rank:
                raise BadInput("edge direction %d is outside range(%d)" % (k, rank))
            if e["source"] not in ids or e["target"] not in ids:
                raise BadInput(
                    "edge %s -> %s names an unknown vertex" % (e["source"], e["target"])
                )
            dst = ids[e["target"]]
            if dst == 0:
                raise BadInput("edge %s -> %s points into the root" % (e["source"], e["target"]))
            arc = (ids[e["source"]], dst, k)
            if arc in arcs:
                raise BadInput(
                    "edge %s -> %s along %d is repeated" % (e["source"], e["target"], k)
                )
            arcs[arc] = None
        depth = doc["depth_reached"]
        longest = max(len(seed.path) for seed in vertices.values())
        if not linalg.is_int(depth) or depth != longest:
            raise BadInput("depth_reached must be the longest path %d, got %r" % (longest, depth))
        status = doc["status"]
        if status not in ("complete", "truncated"):
            raise BadInput('status must be "complete" or "truncated", got %r' % (status,))
        return OrientedExchangeGraph(
            vertices=vertices,
            arcs=tuple(arcs),
            status=status,
            depth_reached=depth,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise BadInput("malformed graph document: %s" % exc) from exc


def graph_to_dot(graph: OrientedExchangeGraph) -> str:
    """GraphViz rendering; vertices labeled by their sorted g-vectors."""
    lines = ["digraph oriented_exchange_graph {", "  rankdir=LR;"]
    for i, key in enumerate(graph.vertices):
        label = " ".join("(%s)" % ",".join(str(x) for x in col) for col in key.g_columns)
        lines.append('  s%d [label="%s"];' % (i, label))
    for src, dst, k in graph.arcs:
        lines.append('  s%d -> s%d [label="%d"];' % (src, dst, k))
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


def _svg_document(parts, graph) -> str:
    """The canvas around ``parts``, with ``t<i>`` at the i-th chamber of a complete graph."""
    half = _SVG_SIZE // 2
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="%d %d %d %d">' % (_SVG_SIZE, _SVG_SIZE, -half, -half, _SVG_SIZE, _SVG_SIZE),
        '<rect x="%d" y="%d" width="%d" height="%d" fill="white"/>'
        % (-half, -half, _SVG_SIZE, _SVG_SIZE),
        *parts,
    ]
    if graph.status == "complete":
        for i, seed in enumerate(graph.vertices.values()):
            center = linalg.vec_add(seed.g_column(0), seed.g_column(1))
            lines.append(_svg_label(center, "t%d" % i, scale=0.55, size=10, color="#777"))
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def fan_to_svg(fd: FixedData, graph: OrientedExchangeGraph) -> str:
    """The rank-2 cluster fan: every g-vector ray, chambers labeled."""
    if fd.rank != 2:
        raise NotRankTwo("fan output is rank-2 only")
    rays = dict.fromkeys(
        seed.g_column(j) for seed in graph.vertices.values() for j in range(2)
    )
    parts = []
    for ray in rays:
        parts.append(_svg_ray(ray, "#111111", 1.5))
        parts.append(
            _svg_label(ray, "(%s)" % ",".join(str(x) for x in ray), size=10)
        )
    return _svg_document(parts, graph)
