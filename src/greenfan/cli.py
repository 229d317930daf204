"""Command-line front end.

Usage sketch::

    greenfan explore input.json
    greenfan explore --matrix "[[0,1],[-1,0]]" --delta "[1,1]" --format dot
    greenfan certify input.json
    greenfan consistency input.json --level 8
    greenfan obstruct crossings.json
    greenfan scatter2 input.json --level 6 --out-svg diagram.svg
    greenfan emit-fan input.json --out fan.svg

Input documents carry ``{"B": [[...]], "delta": [...]}`` with an optional
``"D"`` skew-symmetrizer; ``obstruct`` additionally takes ``"crossings":
[{"normal": [...], "sign": 1}]``.  ``certify`` also accepts a previously
exported graph document (recognized by its ``"vertices"`` key).

Direction indices in all output are 0-based.  Exit status is 0 on success,
1 on a domain error (a ``{"error": code, "detail": ...}`` record goes to
stderr), and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exchange, scattering
from .errors import BadInput, CycleFound, GreenfanError, InconsistencyFound, NotRankTwo
from .exchange import key_to_str, validate_fixed_data


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenfan",
        description="mutation graphs, loop products, and rank-2 scattering diagrams",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, help_text in (
        ("explore", "enumerate the oriented exchange graph"),
        ("certify", "topologically sort the graph, proving it acyclic"),
        ("consistency", "check loop products over a complete graph"),
        ("obstruct", "minimal-degree witness for an all-green crossing sequence"),
        ("scatter2", "complete the rank-2 scattering diagram"),
        ("emit-fan", "draw the rank-2 cluster fan as SVG"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input", nargs="?", help="input JSON document")
        p.add_argument("--matrix", help="inline B matrix, JSON list of rows")
        p.add_argument("--delta", help="inline delta vector, JSON list")
        p.add_argument("--symmetrizer", help="inline D diagonal, JSON list")
        p.add_argument("--level", type=int, default=8)
        p.add_argument("--max-depth", type=int, default=12)
        p.add_argument("--max-vertices", type=int, default=100000)
        p.add_argument("--format", choices=("json", "dot", "svg"), default="json")
        p.add_argument("--out", help="write the primary artifact here instead of stdout")
        p.add_argument("--out-json", help="also write the JSON artifact to this path")
        p.add_argument("--out-dot", help="also write the DOT artifact to this path")
        p.add_argument("--out-svg", help="also write the SVG artifact to this path")
    return parser


def parse_args(argv) -> argparse.Namespace:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.input is None and ns.matrix is None:
        parser.error("provide an input document or --matrix/--delta")
    if ns.input is not None and ns.matrix is not None:
        parser.error("input document and --matrix are mutually exclusive")
    if ns.matrix is not None and ns.delta is None:
        parser.error("--matrix requires --delta")
    if ns.level < 1:
        parser.error("--level must be >= 1")
    if ns.max_depth < 0 or ns.max_vertices < 1:
        parser.error("budgets must be positive")
    return ns


def _load_document(job: argparse.Namespace) -> dict:
    if job.matrix is not None:
        try:
            doc = {"B": json.loads(job.matrix), "delta": json.loads(job.delta)}
            if job.symmetrizer is not None:
                doc["D"] = json.loads(job.symmetrizer)
            return doc
        except json.JSONDecodeError as exc:
            raise BadInput("inline JSON did not parse: %s" % exc) from exc
    try:
        with open(job.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput("cannot read %s: %s" % (job.input, exc)) from exc
    except json.JSONDecodeError as exc:
        raise BadInput("%s is not JSON: %s" % (job.input, exc)) from exc


def _fixed_data(doc) -> exchange.FixedData:
    if not isinstance(doc, dict) or "B" not in doc or "delta" not in doc:
        raise BadInput('input document needs "B" and "delta" fields')
    return validate_fixed_data(doc["B"], doc["delta"], doc.get("D"))


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _explored(job: argparse.Namespace, fd) -> exchange.OrientedExchangeGraph:
    return exchange.enumerate_graph(
        fd, max_vertices=job.max_vertices, max_depth=job.max_depth
    )


def _graph_artifacts(job: argparse.Namespace, fd, graph) -> int:
    order = None
    if graph.status == "complete":
        order = exchange.certify_acyclic(graph)
    doc = exchange.graph_to_json(graph, topological_order=order)
    dot = exchange.graph_to_dot(graph)
    if job.format == "json":
        primary = _json_text(doc)
    elif job.format == "dot":
        primary = dot
    else:
        primary = scattering.fan_to_svg(fd, graph)
    _emit(primary, job.out)
    if job.out_json:
        _emit(_json_text(doc), job.out_json)
    if job.out_dot:
        _emit(dot, job.out_dot)
    if job.out_svg:
        _emit(scattering.fan_to_svg(fd, graph), job.out_svg)
    return 0


def _run_certify(job: argparse.Namespace, doc) -> int:
    if isinstance(doc, dict) and "vertices" in doc:
        graph = exchange.graph_from_json(doc)
    else:
        graph = _explored(job, _fixed_data(doc))
    order = exchange.certify_acyclic(graph)  # raises CycleFound on failure
    out = {
        "status": graph.status,
        "vertex_count": len(graph.vertices),
        "root": key_to_str(graph.root),
        "topological_order": [key_to_str(k) for k in order],
    }
    _emit(_json_text(out), job.out)
    return 0


def _run_consistency(job: argparse.Namespace, doc) -> int:
    fd = _fixed_data(doc)
    graph = _explored(job, fd)
    report = scattering.verify_loop_consistency(fd, graph, job.level)
    _emit(_json_text(scattering.report_to_json(report)), job.out)
    return 0


def _run_obstruct(job: argparse.Namespace, doc) -> int:
    fd = _fixed_data(doc)
    if not isinstance(doc.get("crossings"), list):
        raise BadInput('obstruct needs a "crossings" list')
    pairs = []
    for rec in doc["crossings"]:
        try:
            pairs.append((rec["normal"], rec["sign"]))
        except (KeyError, TypeError) as exc:
            raise BadInput("malformed crossing record: %r" % (rec,)) from exc
    cs = scattering.crossing_sequence_from_normals(fd, pairs)
    obstruction = scattering.minimal_degree_obstruction(fd, cs)
    out = {
        "min_degree": obstruction.min_degree,
        "witness": [
            {"vector": list(n), "coeff": str(c)}
            for n, c in sorted(obstruction.witness.items())
        ],
        "pretty": obstruction.pretty(),
    }
    _emit(_json_text(out), job.out)
    return 0


def _run_scatter2(job: argparse.Namespace, doc) -> int:
    fd = _fixed_data(doc)
    diagram = scattering.complete_rank2(fd, job.level)
    scattering.verify_rank2_consistency(fd, diagram)
    json_text = _json_text(scattering.diagram_to_json(fd, diagram))

    def svg():
        # label chambers when the pattern is finite and fits the budgets
        graph = _explored(job, fd)
        return scattering.diagram_to_svg(
            fd, diagram, graph if graph.status == "complete" else None
        )

    if job.format == "svg":
        _emit(svg(), job.out)
    else:
        _emit(json_text, job.out)
    if job.out_json:
        _emit(json_text, job.out_json)
    if job.out_svg:
        _emit(svg(), job.out_svg)
    return 0


def _run_emit_fan(job: argparse.Namespace, doc) -> int:
    fd = _fixed_data(doc)
    if fd.rank != 2:
        raise NotRankTwo("emit-fan needs a rank-2 input")
    graph = _explored(job, fd)
    _emit(scattering.fan_to_svg(fd, graph), job.out)
    return 0


def run(job: argparse.Namespace) -> int:
    doc = _load_document(job)
    if job.command == "explore":
        fd = _fixed_data(doc)
        return _graph_artifacts(job, fd, _explored(job, fd))
    if job.command == "certify":
        return _run_certify(job, doc)
    if job.command == "consistency":
        return _run_consistency(job, doc)
    if job.command == "obstruct":
        return _run_obstruct(job, doc)
    if job.command == "scatter2":
        return _run_scatter2(job, doc)
    if job.command == "emit-fan":
        return _run_emit_fan(job, doc)
    raise AssertionError("unreachable command %r" % (job.command,))


def _error_payload(exc: GreenfanError) -> dict:
    payload = {"error": exc.code, "detail": str(exc)}
    if isinstance(exc, CycleFound):
        payload["cycle"] = [key_to_str(k) for k in exc.cycle]
    if isinstance(exc, InconsistencyFound) and exc.loop:
        payload["loop"] = [key_to_str(k) for k in exc.loop]
    return payload


def main(argv=None) -> int:
    job = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(job)
    except GreenfanError as exc:
        sys.stderr.write(json.dumps(_error_payload(exc)) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
