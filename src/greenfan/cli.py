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

``COMMANDS`` is the only table of what each subcommand takes and writes;
a flag a command does not take is a usage error.  Each handler returns a
``{format: render}`` map, and ``_write`` renders every requested artifact
once before it writes any: the ``--out`` file first, then ``--out-json``,
``--out-dot`` and ``--out-svg``, and stdout last, so a failed run leaves
stdout empty.  Only the handlers that need the scattering layer import it,
so ``explore``, ``certify`` and ``emit-fan`` load neither it nor the
structure group.

Direction indices in all output are 0-based.  Exit status is 0 on success,
1 on a domain error (a ``{"error": code, "detail": ...}`` record goes to
stderr; a path that cannot be written is ``bad_input``, and running out of
memory is ``out_of_memory``), and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import exchange
from .errors import (
    BadInput,
    CycleFound,
    GreenfanError,
    InconsistencyFound,
    NotRankTwo,
    OutOfMemory,
)
from .exchange import key_to_str, validate_fixed_data


def _load_document(job: argparse.Namespace) -> dict:
    if job.matrix is not None:
        try:
            doc = {"B": json.loads(job.matrix), "delta": json.loads(job.delta)}
            if job.symmetrizer is not None:
                doc["D"] = json.loads(job.symmetrizer)
            return doc
        except (json.JSONDecodeError, RecursionError) as exc:
            raise BadInput("inline JSON did not parse: %s" % exc) from exc
    try:
        with open(job.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput("cannot read %s: %s" % (job.input, exc)) from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise BadInput("%s is not JSON: %s" % (job.input, exc)) from exc


def _fixed_data(doc) -> exchange.FixedData:
    if not isinstance(doc, dict) or "B" not in doc or "delta" not in doc:
        raise BadInput('input document needs "B" and "delta" fields')
    return validate_fixed_data(doc["B"], doc["delta"], doc.get("D"))


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _explored(job: argparse.Namespace, fd) -> exchange.OrientedExchangeGraph:
    return exchange.enumerate_graph(
        fd, max_vertices=job.max_vertices, max_depth=job.max_depth
    )


def _explore(job: argparse.Namespace, doc) -> dict:
    """enumerate the oriented exchange graph"""
    fd = _fixed_data(doc)
    graph = _explored(job, fd)
    order = exchange.certify_acyclic(graph) if graph.status == "complete" else None
    return {
        "json": lambda: _json_text(exchange.graph_to_json(graph, topological_order=order)),
        "dot": lambda: exchange.graph_to_dot(graph),
        "svg": lambda: exchange.fan_to_svg(fd, graph),
    }


def _certify(job: argparse.Namespace, doc) -> dict:
    """topologically sort the graph, proving it acyclic"""
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
    return {"json": lambda: _json_text(out)}


def _consistency(job: argparse.Namespace, doc) -> dict:
    """check loop products over a complete graph"""
    from . import scattering

    fd = _fixed_data(doc)
    report = scattering.verify_loop_consistency(fd, _explored(job, fd), job.level)
    return {"json": lambda: _json_text(scattering.report_to_json(report))}


def _terms_json(terms) -> list:
    """Log terms ``{vector: coeff}`` as records, in vector order."""
    return [{"vector": list(n), "coeff": str(c)} for n, c in sorted(terms.items())]


def _obstruct(job: argparse.Namespace, doc) -> dict:
    """minimal-degree witness for an all-green crossing sequence"""
    from . import scattering

    fd = _fixed_data(doc)
    if not isinstance(doc.get("crossings"), list) or not doc["crossings"]:
        raise BadInput('obstruct needs a non-empty "crossings" list')
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
        "witness": _terms_json(obstruction.witness),
        "pretty": obstruction.pretty(),
    }
    return {"json": lambda: _json_text(out)}


def _scatter2(job: argparse.Namespace, doc) -> dict:
    """complete the rank-2 scattering diagram"""
    from . import scattering

    fd = _fixed_data(doc)
    diagram = scattering.complete_rank2(fd, job.level)
    scattering.verify_rank2_consistency(fd, diagram)

    def svg():
        # label chambers when the pattern is finite and fits the budgets
        graph = _explored(job, fd)
        return scattering.diagram_to_svg(
            fd, diagram, graph if graph.status == "complete" else None
        )

    return {
        "json": lambda: _json_text(scattering.diagram_to_json(fd, diagram)),
        "svg": svg,
    }


def _emit_fan(job: argparse.Namespace, doc) -> dict:
    """draw the rank-2 cluster fan as SVG"""
    fd = _fixed_data(doc)
    if fd.rank != 2:
        raise NotRankTwo("emit-fan needs a rank-2 input")
    graph = _explored(job, fd)
    return {"svg": lambda: exchange.fan_to_svg(fd, graph)}


_DEFAULTS = {"--level": 8, "--max-depth": 12, "--max-vertices": 100000}
_BUDGETS = ("--max-depth", "--max-vertices")

# name -> (handler, whose docstring is the help, its extra options, the
# artifact formats it writes, the first being the --format default)
COMMANDS = {
    "explore": (_explore, _BUDGETS, ("json", "dot", "svg")),
    "certify": (_certify, _BUDGETS, ("json",)),
    "consistency": (_consistency, ("--level",) + _BUDGETS, ("json",)),
    "obstruct": (_obstruct, (), ("json",)),
    "scatter2": (_scatter2, ("--level",) + _BUDGETS, ("json", "svg")),
    "emit-fan": (_emit_fan, _BUDGETS, ("svg",)),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenfan",
        description="mutation graphs, loop products, and rank-2 scattering diagrams",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (handler, options, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=handler.__doc__)
        p.add_argument("input", nargs="?", help="input JSON document")
        p.add_argument("--matrix", help="inline B matrix, JSON list of rows")
        p.add_argument("--delta", help="inline delta vector, JSON list")
        p.add_argument("--symmetrizer", help="inline D diagonal, JSON list")
        for option in options:
            p.add_argument(option, type=int, default=_DEFAULTS[option])
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--out", help="write the --format artifact here instead of stdout")
        if len(formats) > 1:
            for fmt in formats:
                p.add_argument("--out-" + fmt, help="also write the %s artifact here" % fmt)
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
    if getattr(ns, "level", 1) < 1:
        parser.error("--level must be >= 1")
    if getattr(ns, "max_depth", 0) < 0 or getattr(ns, "max_vertices", 1) < 1:
        parser.error("budgets must be positive")
    return ns


def _write(job: argparse.Namespace, formats, renderers: dict) -> None:
    """Render each requested artifact once, then write the files and stdout last.

    A failed render writes nothing; a failed write keeps the files written
    before it and leaves stdout empty.
    """
    outputs = [(job.format, job.out)] + [
        (fmt, path) for fmt in formats if (path := getattr(job, "out_" + fmt, None))
    ]
    texts = {fmt: renderers[fmt]() for fmt in dict.fromkeys(fmt for fmt, _ in outputs)}
    for fmt, path in outputs:
        if path is None:
            continue
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(texts[fmt])
        except OSError as exc:
            raise BadInput("cannot write %s: %s" % (path, exc)) from exc
    if job.out is None:
        sys.stdout.write(texts[job.format])


def run(job: argparse.Namespace) -> int:
    handler, _, formats = COMMANDS[job.command]
    _write(job, formats, handler(job, _load_document(job)))
    return 0


def _error_payload(exc: GreenfanError) -> dict:
    payload = {"error": exc.code, "detail": str(exc)}
    if isinstance(exc, CycleFound):
        payload["cycle"] = [key_to_str(k) for k in exc.cycle]
    if isinstance(exc, InconsistencyFound):
        if exc.loop:
            payload["loop"] = [key_to_str(k) for k in exc.loop]
        if exc.lowest:
            payload["min_degree"] = sum(next(iter(exc.lowest)))
            payload["terms"] = _terms_json(exc.lowest)
    return payload


def main(argv=None) -> int:
    job = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return run(job)
    except GreenfanError as exc:
        error = exc
    except MemoryError:
        error = OutOfMemory("out of memory; lower --level or the budgets")
    sys.stderr.write(json.dumps(_error_payload(error)) + "\n")
    return 1


if __name__ == "__main__":
    sys.exit(main())
