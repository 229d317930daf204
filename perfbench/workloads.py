"""The four benchmark workloads: seeded inputs, one pass, output checks.

Every workload is a closed loop with one client that issues its requests one
at a time.  ``build`` turns the seed into inputs; the seed only picks labels
and orientations of fixed pattern families, so the work of a pass stays
comparable across seeds.  ``run`` executes one pass and returns its
operations; ``check`` verifies their outputs against independent facts and
never runs inside a timed region.  Every operation is timed through the
worker's ``calibration.Scaler``, which probes the machine's speed around it.

An operation is one request of the workload's client:

* finite-enum: one call of the pipeline (enumerate, certify, write, read,
  certify the read graph);
* loop-products: one pattern instance (enumerate, then verify its loops);
* rank2-completion: one pattern (complete, verify, serialize);
* cli-mix: one ``python -m greenfan`` invocation.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from io import StringIO
from math import gcd, lcm
from pathlib import Path

from greenfan import cli, exchange, laurent, scattering

BENCH_DIR = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 60.0


@dataclass
class Op:
    name: str
    seconds: float  # at the reference speed
    output: object = None
    text: str = ""  # the emitted document, digested and compared across passes
    extra: dict = field(default_factory=dict)
    raw_s: float = 0.0  # as measured

    def digest(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()


def json_text(doc) -> str:
    """The CLI's JSON rendering, so digests match the documented artifacts."""
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pattern families and their seeded variants

A2 = [[0, 1], [-1, 0]]
A3 = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
A4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]
D4 = [[0, 1, 0, 0], [-1, 0, 1, 1], [0, -1, 0, 0], [0, -1, 0, 0]]
E6 = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 1, 0, 0, 0],
    [0, -1, 0, 1, 0, 1],
    [0, 0, -1, 0, 1, 0],
    [0, 0, 0, -1, 0, 0],
    [0, 0, -1, 0, 0, 0],
]
# Fomin-Zelevinsky seed counts of the finite types used here
SEED_COUNT = {"A2": 5, "B2": 6, "G2": 8, "A3": 14, "A4": 42, "D4": 50, "E6": 833}

# rank-2 patterns: B and delta
RANK2 = {
    "A2": ([[0, 1], [-1, 0]], [1, 1]),
    "B2": ([[0, 1], [-2, 0]], [1, 2]),
    "G2": ([[0, 1], [-3, 0]], [1, 3]),
    "K2": ([[0, 2], [-2, 0]], [1, 1]),
    "K3": ([[0, 3], [-3, 0]], [1, 1]),
}


def simply_laced_variant(base, rng):
    """Reorient every edge of a tree quiver at random, then relabel."""
    r = len(base)
    b = [list(row) for row in base]
    for i in range(r):
        for j in range(i + 1, r):
            if b[i][j] and rng.random() < 0.5:
                b[i][j], b[j][i] = -b[i][j], -b[j][i]
    perm = list(range(r))
    rng.shuffle(perm)
    return [[b[perm[i]][perm[j]] for j in range(r)] for i in range(r)]


def rank2_order(name, swapped):
    """A rank-2 pattern in one index order; returns (B, delta, swapped)."""
    b, delta = RANK2[name]
    if swapped:
        return [[b[1][1], b[1][0]], [b[0][1], b[0][0]]], [delta[1], delta[0]], True
    return [list(row) for row in b], list(delta), False


def rank2_variant(name, rng):
    return rank2_order(name, rng.random() < 0.5)


def relabel(n, swapped):
    return (n[1], n[0]) if swapped else tuple(n)


def timed(scaler, name, fn, *args):
    result, raw, scaled = scaler.time(fn, *args)
    return Op(name, scaled, result, raw_s=raw)


def cycle_rank(graph) -> int:
    pairs = {frozenset((s, t)) for s, t, _ in graph.edges}
    return len(pairs) - len(graph.vertices) + 1


# ---------------------------------------------------------------------------
# finite-enum: enumerate a seeded E6, certify it, write and read its document

E6_MAX_DEPTH = 64  # far above the depth of 10 that E6 reaches, so enumeration completes
LAURENT_SAMPLE = 8
LAURENT_MAX_DEPTH = 6


def build_finite_enum(rng, workdir):
    return {"B": simply_laced_variant(E6, rng), "delta": [1] * 6, "rng": rng.random()}


def run_finite_enum(inputs, scaler, tracer=None):
    fd = exchange.validate_fixed_data(inputs["B"], inputs["delta"])
    enum = timed(scaler, "enumerate_graph", exchange.enumerate_graph, fd, 100000, E6_MAX_DEPTH)
    graph = enum.output
    cert = timed(scaler, "certify_acyclic", exchange.certify_acyclic, graph)
    write = timed(scaler, "write", lambda: json_text(exchange.graph_to_json(graph, cert.output)))
    text = write.text = write.output
    read = timed(scaler, "read", lambda: exchange.graph_from_json(json.loads(text)))
    read_graph = read.output
    recert = timed(scaler, "certify_read", exchange.certify_acyclic, read_graph)
    if tracer is not None:
        tracer.count("exchange.graph_json.bytes", len(text))
    order_text = "\n".join(exchange.key_to_str(k) for k in cert.output)
    enum.text = "%d %d %s" % (len(graph.vertices), len(graph.edges), graph.status)
    cert.text = order_text
    read.text = "%d %d" % (len(read_graph.vertices), len(read_graph.edges))
    recert.text = "\n".join(exchange.key_to_str(k) for k in recert.output)
    enum.extra["fd"] = fd
    return [enum, cert, write, read, recert]


def check_finite_enum(inputs, ops):
    enum, cert, write, read, recert = ops
    fd = enum.extra["fd"]
    graph, order = enum.output, cert.output
    problems = {op.name: [] for op in ops}
    if graph.status != "complete" or len(graph.vertices) != SEED_COUNT["E6"]:
        problems["enumerate_graph"].append(
            "%s with %d seeds, expected complete with %d"
            % (graph.status, len(graph.vertices), SEED_COUNT["E6"])
        )
    r = fd.rank
    for seed in graph.vertices.values():
        gtdc = [
            [sum(seed.g[i][a] * fd.d[i] * seed.c[i][b] for i in range(r)) for b in range(r)]
            for a in range(r)
        ]
        if gtdc != [[fd.d[a] if a == b else 0 for b in range(r)] for a in range(r)]:
            problems["enumerate_graph"].append("G^T D C != D at path %r" % (seed.path,))
            break
    position = {key: i for i, key in enumerate(order)}
    if len(order) != len(graph.vertices) or set(position) != set(graph.vertices):
        problems["certify_acyclic"].append("order does not cover every vertex once")
    elif order[0] != graph.root:
        problems["certify_acyclic"].append("order does not start at the root")
    elif any(position[s] >= position[t] for s, t, _ in graph.edges):
        problems["certify_acyclic"].append("an edge points backwards in the order")
    back = read.output
    same = (
        list(back.vertices) == list(graph.vertices)
        and all(back.vertices[k].same_matrices(s) and back.vertices[k].path == s.path
                for k, s in graph.vertices.items())
        and back.edges == graph.edges
        and back.root == graph.root
        and back.status == graph.status
    )
    if not same:
        problems["read"].append("JSON round trip changed the graph")
    if json.loads(write.text)["topological_order"] != [
        exchange.key_to_str(k) for k in order
    ]:
        problems["write"].append("document order differs from the certificate")
    if recert.output != order:
        problems["certify_read"].append("read graph certifies to another order")
    # tropical C and g against the Laurent oracle on a seeded sample
    rng = random.Random(inputs["rng"])
    shallow = [s for s in graph.vertices.values() if len(s.path) <= LAURENT_MAX_DEPTH]
    for seed in rng.sample(shallow, min(LAURENT_SAMPLE, len(shallow))):
        symbolic = laurent.root_symbolic_seed(fd)
        for k in seed.path:
            symbolic = laurent.symbolic_mutate(symbolic, k)
        g_cols = tuple(laurent.extract_g_vector(v, fd) for v in symbolic.variables)
        if laurent.extract_c_matrix(symbolic) != seed.c or g_cols != tuple(
            seed.g_column(j) for j in range(r)
        ):
            problems["enumerate_graph"].append("Laurent oracle disagrees at %r" % (seed.path,))
    return [problems[op.name] for op in ops]


# ---------------------------------------------------------------------------
# loop-products: loop consistency of seeded A3, A4 and D4 orientations

# (family, level, instances per pass): one instance costs up to 1.5x another
# of its family, depending on orientation and labeling, so ten instances
# average that out and keep the work of a pass comparable across seeds
LOOP_FAMILIES = (("A3", 6, 4), ("A4", 4, 3), ("D4", 4, 3))
LOOP_BASES = {"A3": A3, "A4": A4, "D4": D4}


def build_loop_products(rng, workdir):
    """Distinct matrices only: a repeated one would run on the algebra that
    greenfan cached for its first instance, at half the cost, and whether
    the seed drew a repeat moved wall_s by a spread of 0.095."""
    jobs = []
    for family, level, copies in LOOP_FAMILIES:
        drawn = []
        while len(drawn) < copies:
            b = simply_laced_variant(LOOP_BASES[family], rng)
            if b not in drawn:
                drawn.append(b)
        jobs += [(family, level, b) for b in drawn]
    return jobs


def _loop_job(b, level):
    fd = exchange.validate_fixed_data(b, [1] * len(b))
    graph = exchange.enumerate_graph(fd)
    report = scattering.verify_loop_consistency(fd, graph, level)
    return graph, report, json_text(scattering.report_to_json(report))


def run_loop_products(inputs, scaler, tracer=None):
    ops = []
    for family, level, b in inputs:
        op = timed(scaler, "%s@%d" % (family, level), _loop_job, b, level)
        op.text = op.output[2]
        ops.append(op)
    return ops


def check_loop_products(inputs, ops):
    out = []
    for (family, level, b), op in zip(inputs, ops):
        graph, report, _ = op.output
        problems = []
        if graph.status != "complete" or len(graph.vertices) != SEED_COUNT[family]:
            problems.append("%s has %d seeds" % (family, len(graph.vertices)))
        if len(report.loops) != cycle_rank(graph):
            problems.append("%d loops, cycle rank %d" % (len(report.loops), cycle_rank(graph)))
        if report.level != level or not all(
            loop.identity and loop.max_degree_checked == level for loop in report.loops
        ):
            problems.append("a loop is not the identity through level %d" % level)
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# rank2-completion: complete, re-verify and serialize five rank-2 patterns

RANK2_LEVEL = 7


def build_rank2_completion(rng, workdir):
    """Every pattern in both index orders; the seed picks which runs first.

    The order changes a pattern's cost (2x for B2), and a pattern whose
    algebra an earlier one in the process already built runs from the
    cache, so running both orders keeps the work of a pass the same for
    every seed.
    """
    jobs = []
    for name in RANK2:
        first = rng.random() < 0.5
        jobs += [(name,) + rank2_order(name, swapped) for swapped in (first, not first)]
    return jobs


def _rank2_job(b, delta, tracer):
    fd = exchange.validate_fixed_data(b, delta)
    diagram = scattering.complete_rank2(fd, RANK2_LEVEL)
    verified = scattering.verify_rank2_consistency(fd, diagram)
    text = json_text(scattering.diagram_to_json(fd, diagram))
    if tracer is not None:
        tracer.count("scattering.diagram_json.bytes", len(text))
    return fd, diagram, verified, text


def run_rank2_completion(inputs, scaler, tracer=None):
    ops = []
    for name, b, delta, swapped in inputs:
        op = timed(scaler, name + ("-swapped" if swapped else ""), _rank2_job, b, delta, tracer)
        op.text = op.output[3]
        ops.append(op)
    return ops


def _expected_scattered(name, swapped, level):
    """Known scattered walls, as normal -> factored name, or None if unknown."""
    known = {
        "A2": {(1, 1): (1,)},
        "B2": {(1, 2): (1,), (1, 1): (2,)},
    }.get(name)
    if known is None:
        return None
    return {
        relabel(n, swapped): "Psi[%s]^%d" % (",".join(map(str, relabel(n, swapped))), c)
        for n, (c,) in known.items()
        if sum(n) <= level
    }


def check_rank2_completion(inputs, ops):
    out = []
    for (name, b, delta, swapped), op in zip(inputs, ops):
        fd, diagram, verified, text = op.output
        problems = []
        if verified is not True:
            problems.append("re-verification did not return True")
        initial = [w for w in diagram.walls if len(w.rays) == 2]
        scattered = {w.normal: w for w in diagram.walls if len(w.rays) == 1}
        if [w.normal for w in initial] != [(1, 0), (0, 1)]:
            problems.append("initial walls are not the two coordinate lines")
        factored = {n: scattering.factor_dilog_power(fd, w) for n, w in scattered.items()}
        expected = _expected_scattered(name, swapped, RANK2_LEVEL)
        if expected is not None and factored != expected:
            problems.append("%s walls %r, expected %r" % (name, factored, expected))
        if name == "G2" and (len(scattered) != 4 or None in factored.values()):
            problems.append("G2 needs four scattered walls, each a dilog power")
        if name == "K2":
            central = scattered.get((1, 1))
            want = {(k, k): Fraction(2, k * k) for k in range(1, RANK2_LEVEL // 2 + 1)}
            if central is None or central.element.log_terms() != want:
                problems.append("Kronecker central wall log is not 2 sum X_k(1,1)/k^2")
            for n, f in factored.items():
                if n != (1, 1) and (abs(n[0] - n[1]) != 1 or f != "Psi[%d,%d]^1" % n):
                    problems.append("Kronecker wall %r is %r, not Psi[n]^1" % (n, f))
        if json.loads(text)["walls"][0]["normal"] != [1, 0]:
            problems.append("diagram document does not start with the initial wall")
        out.append(problems)
    return out


# ---------------------------------------------------------------------------
# cli-mix: a seeded sequence of python -m greenfan invocations


def delta_exponent(n, delta) -> Fraction:
    """Smallest t > 0 with t * n_i / delta_i integral on the support of n."""
    num, den = 1, 0
    for ni, di in zip(n, delta):
        if ni:
            f = Fraction(di, ni)
            num, den = lcm(num, f.numerator), gcd(den, f.denominator)
    return Fraction(num, den)


def _random_normal(rng, r):
    while True:
        n = tuple(rng.randint(0, 3) for _ in range(r))
        if any(n) and gcd(*n) == 1:
            return n


def _crossings(rng, r, red=False):
    normals = [_random_normal(rng, r) for _ in range(rng.randint(1, 5))]
    signs = [1] * len(normals)
    if red:
        signs[rng.randrange(len(signs))] = -1
    return [{"normal": list(n), "sign": s} for n, s in zip(normals, signs)]


def build_cli_mix(rng, workdir):
    """Write the input documents and return the invocation list.

    Each entry is (subcommand, argv, expectation).  The composition is fixed;
    the seed picks orientations, labels, crossing lists and error inputs.
    """
    def doc(base):
        b = simply_laced_variant(base, rng)
        return {"B": b, "delta": [1] * len(b)}

    def rank2(name):
        b, delta, swapped = rank2_variant(name, rng)
        return {"B": b, "delta": delta}, swapped

    a3, a3b, a4 = doc(A3), doc(A3), doc(A4)
    d4 = doc(D4)
    fd = exchange.validate_fixed_data(d4["B"], d4["delta"])
    graph = exchange.enumerate_graph(fd)
    exported = json_text(exchange.graph_to_json(graph, exchange.certify_acyclic(graph)))
    (workdir / "d4-graph.json").write_text(exported)
    a2, _ = rank2("A2")
    b2, b2_swapped = rank2("B2")
    g2, _ = rank2("G2")
    k2, _ = rank2("K2")
    obstruct = [dict(p, crossings=_crossings(rng, r)) for p, r in ((a2, 2), (b2, 2), (a3, 3))]
    bad_delta = {"B": rank2(rng.choice(("B2", "G2")))[0]["B"], "delta": [1, 1]}
    # both off-diagonal entries positive: no positive skew-symmetrizer exists
    not_skew = {"B": [[0, rng.randint(1, 3)], [rng.randint(1, 3), 0]], "delta": [1, 1]}
    red = dict(b2, crossings=_crossings(rng, 2, red=True))

    def path(name, content):
        (workdir / name).write_text(json.dumps(content))
        return str(workdir / name)

    ok = {"exit": 0}
    calls = [
        ("explore", [path("a3.json", a3)], dict(ok, kind="graph", seeds=14)),
        ("explore", ["--matrix", json.dumps(b2["B"]), "--delta", json.dumps(b2["delta"]),
                     "--format", "dot"], dict(ok, kind="dot", seeds=6)),
        ("explore", [path("g2.json", g2), "--format", "svg"], dict(ok, kind="svg")),
        ("explore", [path("a4.json", a4)], dict(ok, kind="graph", seeds=42)),
        ("certify", [str(workdir / "d4-graph.json")], dict(ok, kind="cert", seeds=50)),
        ("certify", [path("a3b.json", a3b)], dict(ok, kind="cert", seeds=14)),
        ("consistency", [path("a2.json", a2), "--level", "6"], dict(ok, kind="report", loops=1, level=6)),
        ("consistency", [path("a3c.json", a3), "--level", "4"], dict(ok, kind="report", loops=8, level=4)),
    ]
    for i, d in enumerate(obstruct):
        calls.append(("obstruct", [path("cs%d.json" % i, d)], dict(ok, kind="obstruct", doc=d)))
    calls += [
        ("scatter2", [path("b2.json", b2), "--level", "6"],
         dict(ok, kind="diagram", walls=_expected_scattered("B2", b2_swapped, 6))),
        ("scatter2", [path("k2.json", k2), "--level", "5", "--format", "svg"], dict(ok, kind="svg")),
        ("emit-fan", [path("g2f.json", g2)], dict(ok, kind="fan", seeds=8)),
        ("emit-fan", [path("a2f.json", a2)], dict(ok, kind="fan", seeds=5)),
        ("explore", [path("bad-delta.json", bad_delta)], {"exit": 1, "error": "bad_decomposition"}),
        ("certify", [path("not-skew.json", not_skew)], {"exit": 1, "error": "not_skew_symmetrizable"}),
        ("obstruct", [path("red.json", red)], {"exit": 1, "error": "not_all_green"}),
    ]
    return [(cmd, [cmd] + argv, expect) for cmd, argv, expect in calls]


def _spawn(argv, workdir, index):
    """Run one child to completion; returns (exit, stdout, stderr, rss_mb)."""
    out_path, err_path = workdir / ("out%d" % index), workdir / ("err%d" % index)
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        guard = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        guard.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            guard.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_text(), err_path.read_text(),
            usage.ru_maxrss / 1024.0)


def run_cli_mix(inputs, workdir, scaler, traced=False):
    """Cold pass: every invocation is a fresh interpreter."""
    ops = []
    for i, (cmd, argv, expect) in enumerate(inputs):
        if traced:
            child = [sys.executable, str(BENCH_DIR / "cli_child.py"),
                     str(workdir / ("spans%d.json" % i))] + argv
        else:
            child = [sys.executable, "-m", "greenfan"] + argv
        op = timed(scaler, cmd, _spawn, child, workdir, i)
        code, stdout, stderr, rss = op.output
        op.output, op.text, op.extra["rss_mb"] = (code, stdout, stderr), stdout + stderr, rss
        ops.append(op)
    return ops


def run_cli_mix_in_process(inputs, scaler):
    """Warm pass: the same invocations through ``cli.main`` in this process."""
    ops = []
    for cmd, argv, expect in inputs:
        op = timed(scaler, cmd, _call_cli, argv)
        op.text = op.output[1] + op.output[2]
        ops.append(op)
    return ops


def _call_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_cli_output(expect, code, stdout, stderr):
    if code != expect["exit"]:
        return ["exit %d, expected %d: %s" % (code, expect["exit"], stderr.strip()[:200])]
    if code != 0:
        payload = json.loads(stderr)
        if set(payload) != {"error", "detail"} or payload["error"] != expect["error"]:
            return ["error payload %r, expected %s" % (payload, expect["error"])]
        return ["unexpected stdout on error"] if stdout else []
    kind = expect["kind"]
    if kind in ("svg", "fan"):
        if not (stdout.startswith("<svg") and stdout.endswith("</svg>\n")):
            return ["not an SVG document"]
        if kind == "fan" and not all(">t%d<" % i in stdout for i in range(expect["seeds"])):
            return ["fan does not label %d chambers" % expect["seeds"]]
        return []
    if kind == "dot":
        nodes = sum(1 for line in stdout.splitlines() if "[label=" in line and "->" not in line)
        ok = stdout.startswith("digraph") and nodes == expect["seeds"]
        return [] if ok else ["DOT output has %d vertices" % nodes]
    doc = json.loads(stdout)
    if kind == "graph":
        ok = (doc["status"] == "complete" and len(doc["vertices"]) == expect["seeds"]
              and doc["topological_order"][0] == doc["root"])
        return [] if ok else ["graph document is wrong"]
    if kind == "cert":
        order = doc["topological_order"]
        ok = (doc["vertex_count"] == expect["seeds"] == len(set(order))
              and order[0] == doc["root"] and doc["status"] == "complete")
        return [] if ok else ["certificate is wrong"]
    if kind == "report":
        ok = (doc["level"] == expect["level"] and doc["loop_count"] == expect["loops"]
              and all(loop["identity"] for loop in doc["loops"]))
        return [] if ok else ["consistency report is wrong"]
    if kind == "obstruct":
        crossings = expect["doc"]["crossings"]
        low = min(sum(c["normal"]) for c in crossings)
        witness = {}
        for c in crossings:
            n = tuple(c["normal"])
            if sum(n) == low:
                witness[n] = witness.get(n, 0) + delta_exponent(n, expect["doc"]["delta"])
        want = [{"vector": list(n), "coeff": str(c)} for n, c in sorted(witness.items())]
        ok = doc["min_degree"] == low and doc["witness"] == want
        return [] if ok else ["obstruction witness %r, expected %r" % (doc["witness"], want)]
    if kind == "diagram":
        got = {tuple(w["normal"]): w["factored"] for w in doc["walls"] if len(w["rays"]) == 1}
        return [] if got == expect["walls"] else ["scattered walls %r" % (got,)]
    raise ValueError("unknown expectation %r" % kind)


def check_cli_mix(inputs, ops):
    out = []
    for (cmd, argv, expect), op in zip(inputs, ops):
        code, stdout, stderr = op.output
        try:
            out.append(_check_cli_output(expect, code, stdout, stderr))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            out.append(["output does not parse: %s" % exc])
    return out


# ---------------------------------------------------------------------------

# name -> (build, run, check); cli-mix runs through run_cli_mix and
# run_cli_mix_in_process instead, since its passes spawn processes
WORKLOADS = {
    "finite-enum": (build_finite_enum, run_finite_enum, check_finite_enum),
    "loop-products": (build_loop_products, run_loop_products, check_loop_products),
    "rank2-completion": (build_rank2_completion, run_rank2_completion, check_rank2_completion),
    "cli-mix": (build_cli_mix, None, check_cli_mix),
}


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random("%s:%d" % (workload, seed))


def clean(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
