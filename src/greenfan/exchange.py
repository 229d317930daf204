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
duality ``G^T * D * C = D``, which the test-suite checks on every enumerated
seed rather than assuming.
"""

from __future__ import annotations

import heapq
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from . import linalg
from .errors import (
    BadDecomposition,
    BadInput,
    CycleFound,
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
    if len(delta) != r or any(
        isinstance(x, bool) or not isinstance(x, int) or x <= 0 for x in delta
    ):
        raise BadDecomposition("delta must consist of %d positive integers" % r)
    found = _minimal_skew_symmetrizer(bm)
    if found is None:
        raise NotSkewSymmetrizable("B admits no positive skew-symmetrizer")
    if d is None:
        d = found
    else:
        d = _int_list("D", d)
        if len(d) != r or any(
            isinstance(x, bool) or not isinstance(x, int) or x <= 0 for x in d
        ):
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
    col = [c[i][k] for i in range(len(c))]
    has_pos = any(x > 0 for x in col)
    has_neg = any(x < 0 for x in col)
    if has_pos and has_neg:
        raise SignIncoherent("c-vector %r mixes signs" % (col,))
    if not (has_pos or has_neg):
        raise SignIncoherent("c-vector of direction %d is zero" % k)
    return 1 if has_pos else -1


def is_green(seed: TropicalSeed, k: int) -> bool:
    """True when the c-vector of direction ``k`` is positive."""
    return _column_sign(seed.c, k) == 1


def _pos(x):
    return x if x > 0 else 0


def mutate_seed(fd: FixedData, seed: TropicalSeed, k: int) -> TropicalSeed:
    """Mutate the seed in direction ``k`` (0-based); an exact involution."""
    r = fd.rank
    if not 0 <= k < r:
        raise IndexError("direction %d out of range for rank %d" % (k, r))
    b, c, g = seed.b, seed.c, seed.g
    eps = _column_sign(c, k)
    new_b = tuple(
        tuple(
            -b[i][j]
            if i == k or j == k
            else b[i][j] + _pos(b[i][k]) * _pos(b[k][j]) - _pos(-b[i][k]) * _pos(-b[k][j])
            for j in range(r)
        )
        for i in range(r)
    )
    new_c = tuple(
        tuple(
            -c[i][j]
            if j == k
            else c[i][j] + _pos(c[i][k]) * _pos(b[k][j]) - _pos(-c[i][k]) * _pos(-b[k][j])
            for j in range(r)
        )
        for i in range(r)
    )
    new_g = tuple(
        tuple(
            g[i][j]
            if j != k
            else -g[i][k] + sum(_pos(-eps * b[jj][k]) * g[i][jj] for jj in range(r) if jj != k)
            for j in range(r)
        )
        for i in range(r)
    )
    return TropicalSeed(b=new_b, c=new_c, g=new_g, path=seed.path + (k,))


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
    r = seed.rank
    cols = [seed.g_column(j) for j in range(r)]
    perm = sorted(range(r), key=lambda j: cols[j])
    g_sorted = tuple(cols[p] for p in perm)
    b_perm = tuple(tuple(seed.b[perm[i]][perm[j]] for j in range(r)) for i in range(r))
    return SeedKey(g_columns=g_sorted, b=b_perm)


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
    truncated run frontier vertices may be missing incident edges.
    """
    root = root_seed(fd)
    rkey = canonical_key(root)
    vertices: dict[SeedKey, TropicalSeed] = {rkey: root}
    depth_of = {rkey: 0}
    edges: list[tuple[SeedKey, SeedKey, int]] = []
    seen_edges: set[tuple[SeedKey, SeedKey, int]] = set()
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
        for k in range(fd.rank):
            neighbor = mutate_seed(fd, seed, k)
            nkey = canonical_key(neighbor)
            if nkey not in vertices:
                if len(vertices) >= max_vertices:
                    truncated = True
                    continue
                vertices[nkey] = neighbor
                depth_of[nkey] = depth + 1
                queue.append(nkey)
            if is_green(seed, k):
                edge = (key, nkey, k)
            elif vertices[nkey].same_matrices(neighbor):
                # Red from here means green from the neighbor; direction k is
                # meaningful there only when the stored representative is the
                # labeled seed we just computed.
                edge = (nkey, key, k)
            else:
                continue  # the green side will record it when expanded
            if edge not in seen_edges:
                seen_edges.add(edge)
                edges.append(edge)
    return OrientedExchangeGraph(
        root=rkey,
        vertices=vertices,
        edges=tuple(edges),
        status="truncated" if truncated else "complete",
        depth_reached=depth_reached,
    )


def certify_acyclic(graph: OrientedExchangeGraph) -> tuple[SeedKey, ...]:
    """Topological order of the vertices, root first.

    Raises CycleFound carrying an explicit directed cycle when one exists.
    Ties are broken by discovery index, so the certificate is deterministic.
    """
    index = {key: i for i, key in enumerate(graph.vertices)}
    indegree = {key: 0 for key in graph.vertices}
    out: dict[SeedKey, list[SeedKey]] = {key: [] for key in graph.vertices}
    for src, dst, _ in graph.edges:
        out[src].append(dst)
        indegree[dst] += 1
    ready = [index[k] for k in graph.vertices if indegree[k] == 0]
    heapq.heapify(ready)
    keys = list(graph.vertices)
    order: list[SeedKey] = []
    remaining = dict(indegree)
    while ready:
        key = keys[heapq.heappop(ready)]
        order.append(key)
        for dst in out[key]:
            remaining[dst] -= 1
            if remaining[dst] == 0:
                heapq.heappush(ready, index[dst])
    if len(order) < len(graph.vertices):
        raise CycleFound(_extract_cycle(graph, remaining))
    if indegree[graph.root] != 0:
        raise RuntimeError("root has an incoming green edge; enumeration is broken")
    return tuple(order)


def _extract_cycle(graph, remaining):
    stuck = {k for k, v in remaining.items() if v > 0}
    preds: dict[SeedKey, SeedKey] = {}
    for src, dst, _ in graph.edges:
        if src in stuck and dst in stuck and dst not in preds:
            preds[dst] = src
    start = next(iter(stuck))
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


def key_to_str(key: SeedKey) -> str:
    return json.dumps(
        {"g": [list(v) for v in key.g_columns], "B": [list(row) for row in key.b]},
        separators=(",", ":"),
    )


def key_from_str(text: str) -> SeedKey:
    try:
        doc = json.loads(text)
        g = tuple(tuple(int(x) for x in col) for col in doc["g"])
        b = tuple(tuple(int(x) for x in row) for row in doc["B"])
    except (ValueError, KeyError, TypeError) as exc:
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
        return TropicalSeed(
            b=linalg.as_int_matrix(doc["B"]),
            c=linalg.as_int_matrix(doc["C"]),
            g=linalg.as_int_matrix(doc["G"]),
            path=tuple(int(k) for k in doc["path"]),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise BadInput("malformed seed record: %s" % exc) from exc


def graph_to_json(graph: OrientedExchangeGraph, topological_order=None) -> dict:
    doc = {
        "rank": graph.rank,
        "status": graph.status,
        "depth_reached": graph.depth_reached,
        "root": key_to_str(graph.root),
        "vertices": {key_to_str(k): _seed_to_json(s) for k, s in graph.vertices.items()},
        "edges": [
            {"source": key_to_str(s), "target": key_to_str(t), "direction": k}
            for s, t, k in graph.edges
        ],
        "topological_order": None
        if topological_order is None
        else [key_to_str(k) for k in topological_order],
    }
    return doc


def graph_from_json(doc) -> OrientedExchangeGraph:
    """Parse a graph document; edges and root must name listed vertices."""
    try:
        vertices = {
            key_from_str(ks): _seed_from_json(sv) for ks, sv in doc["vertices"].items()
        }
        edges = []
        for e in doc["edges"]:
            src, dst, k = key_from_str(e["source"]), key_from_str(e["target"]), e["direction"]
            if isinstance(k, bool) or not isinstance(k, int):
                raise BadInput("edge direction must be an integer, got %r" % (k,))
            if src not in vertices or dst not in vertices:
                raise BadInput(
                    "edge %s -> %s names an unknown vertex" % (e["source"], e["target"])
                )
            edges.append((src, dst, k))
        root = key_from_str(doc["root"])
        if root not in vertices:
            raise BadInput("root %s is not a vertex" % doc["root"])
        return OrientedExchangeGraph(
            root=root,
            vertices=vertices,
            edges=tuple(edges),
            status=str(doc["status"]),
            depth_reached=int(doc["depth_reached"]),
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
