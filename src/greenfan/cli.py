"""Command-line front end.

Usage sketch::

    greenfan explore input.json
    greenfan explore --matrix "[[0,1],[-1,0]]" --delta "[1,1]" --format dot
    greenfan certify input.json
    greenfan consistency input.json --level 8
    greenfan obstruct crossings.json
    greenfan scatter2 input.json --level 6 --out-svg diagram.svg
    greenfan emit-fan input.json --out fan.svg

Input documents carry ``{"B": [[...]], "delta": [...]}``; ``obstruct``
additionally takes ``"crossings": [{"normal": [...], "sign": 1}]``.
``certify`` also accepts a previously exported graph document (recognized
by its ``"vertices"`` key).

``COMMANDS`` is the only table of what each subcommand takes and writes,
and of its help line; ``emit-fan`` is ``explore`` with only the ``svg``
artifact.  A flag a command does not take is a usage error.  Each handler
returns a ``{format: render}`` map of text batches (``_json_batches`` for
JSON), and ``_write`` renders every requested artifact once before it writes
any: the ``--out`` file first, then ``--out-json``, ``--out-dot`` and
``--out-svg``, and stdout last, so a failed run leaves stdout empty.
``explore`` checks the rank-2 rule of a requested ``svg`` before it
enumerates.  Only the handlers that need the scattering layer import it, so
``explore``, ``certify``, ``emit-fan`` and ``obstruct`` load neither it nor
the structure group.  A process builds the parser once, on its first
``parse_args``.

Direction indices in all output are 0-based.  Exit status is 0 on success,
1 on a domain error (a ``{"error": code, "detail": ...}`` record goes to
stderr; a path or stdout that cannot be written, ``--help`` included, and an
integer, read or computed, past Python's int-string limit are ``bad_input``,
and running out of memory is ``out_of_memory``; a closed or full stderr
drops the record, not the status), and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
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
            return {"B": json.loads(job.matrix), "delta": json.loads(job.delta)}
        except (ValueError, RecursionError) as exc:
            raise BadInput("inline JSON did not parse: %s" % exc) from exc
    try:
        with open(job.input, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BadInput("cannot read %s: %s" % (job.input, exc)) from exc
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or an overlong integer
        raise BadInput("%s is not JSON: %s" % (job.input, exc)) from exc


def _fixed_data(doc) -> exchange.FixedData:
    if not isinstance(doc, dict) or "B" not in doc or "delta" not in doc:
        raise BadInput('input document needs "B" and "delta" fields')
    if "D" in doc:
        raise BadInput('"D" is not read: B determines its minimal skew-symmetrizer')
    return validate_fixed_data(doc["B"], doc["delta"])


_BATCH = 4096  # pieces joined into one batch of text
_encode_str = json.encoder.encode_basestring_ascii
# a scalar's text by its exact type; json.dumps writes any other scalar, a
# float or a subclass, and raises TypeError for what is not JSON
_SCALARS = {str: _encode_str, int: int.__repr__, type(None): lambda o: "null",
            bool: lambda o: "true" if o else "false"}


def _json_batches(doc) -> list:
    """``json.dumps(doc, indent=2) + "\\n"`` as a list of text batches.

    A list of one scalar type is one ``str.join`` and one piece.  A batch is
    cut only where a container opens, after about ``_BATCH`` pieces, so its
    size in bytes has no bound.  Dict keys must be ``str``.
    """
    batches, out = [], []

    def put(o, nl):  # nl: a newline and the indent of the line o starts on
        if not isinstance(o, (list, tuple, dict)):
            out.append(_SCALARS.get(type(o), json.dumps)(o))
            return
        is_dict, inner = isinstance(o, dict), nl + "  "
        types = () if is_dict else set(map(type, o))
        if len(types) == 1 and (text := _SCALARS.get(*types)):
            out.append("[" + inner + ("," + inner).join(map(text, o)) + nl + "]")
            return
        if len(out) >= _BATCH:
            batches.append("".join(out))
            out.clear()
        out.append("{" if is_dict else "[")
        lead, sep = inner, "," + inner
        keys = [_encode_str(k) + ": " for k in o] if is_dict else ("",) * len(o)
        for key, v in zip(keys, o.values() if is_dict else o):
            out.append(lead + key)
            put(v, inner)
            lead = sep
        out.append((nl if o else "") + ("}" if is_dict else "]"))

    put(doc, "\n")
    out.append("\n")
    return [*batches, "".join(out)]


def _explored(job: argparse.Namespace, fd) -> exchange.OrientedExchangeGraph:
    return exchange.enumerate_graph(
        fd, max_vertices=job.max_vertices, max_depth=job.max_depth
    )


def _explore(job: argparse.Namespace, doc) -> dict:
    fd = _fixed_data(doc)
    if fd.rank != 2 and any(fmt == "svg" for fmt, _ in _requested(job)):
        raise NotRankTwo("fan output is rank-2 only")
    graph = _explored(job, fd)
    order = exchange.certify_acyclic(graph) if graph.status == "complete" else None
    return {
        "json": lambda: _json_batches(exchange.graph_to_json(graph, topological_order=order)),
        "dot": lambda: [exchange.graph_to_dot(graph)],
        "svg": lambda: [exchange.fan_to_svg(fd, graph)],
    }


def _certify(job: argparse.Namespace, doc) -> dict:
    if isinstance(doc, dict) and "vertices" in doc:
        graph = exchange.graph_from_json(doc)
    else:
        graph = _explored(job, _fixed_data(doc))
    order = exchange.certify_acyclic(graph)  # raises CycleFound on failure
    name = exchange._KeyNamer()
    out = {
        "status": graph.status,
        "vertex_count": len(graph.vertices),
        "root": name(graph.root),
        "topological_order": list(map(name, order)),
    }
    return {"json": lambda: _json_batches(out)}


def _consistency(job: argparse.Namespace, doc) -> dict:
    from . import scattering

    fd = _fixed_data(doc)
    report = scattering.verify_loop_consistency(fd, _explored(job, fd), job.level)
    return {"json": lambda: _json_batches(scattering.report_to_json(report))}


def _terms_json(terms) -> list:
    """Log terms ``{vector: coeff}`` as records, in vector order."""
    return [{"vector": list(n), "coeff": str(c)} for n, c in sorted(terms.items())]


def _obstruct(job: argparse.Namespace, doc) -> dict:
    from . import crossings

    fd = _fixed_data(doc)
    if not isinstance(doc.get("crossings"), list) or not doc["crossings"]:
        raise BadInput('obstruct needs a non-empty "crossings" list')
    pairs = []
    for rec in doc["crossings"]:
        try:
            pairs.append((rec["normal"], rec["sign"]))
        except (KeyError, TypeError) as exc:
            raise BadInput("malformed crossing record: %r" % (rec,)) from exc
    cs = crossings.crossing_sequence_from_normals(fd, pairs)
    obstruction = crossings.minimal_degree_obstruction(cs)
    out = {
        "min_degree": obstruction.min_degree,
        "witness": _terms_json(obstruction.witness),
        "pretty": obstruction.pretty(),
    }
    return {"json": lambda: _json_batches(out)}


def _scatter2(job: argparse.Namespace, doc) -> dict:
    from . import scattering

    fd = _fixed_data(doc)
    diagram = scattering.complete_rank2(fd, job.level)
    scattering.verify_rank2_consistency(fd, diagram)
    return {
        "json": lambda: _json_batches(scattering.diagram_to_json(fd, diagram)),
        "svg": lambda: [scattering.diagram_to_svg(fd, diagram)],
    }


# option -> (default, least value)
_OPTIONS = {"--level": (8, 1), "--max-depth": (12, 0), "--max-vertices": (100000, 1)}
_BUDGETS = ("--max-depth", "--max-vertices")

# name -> (help line, handler, its extra options, the artifact formats it
# writes, the first being the default stdout artifact; only a command with
# more than one takes --format and --out-<fmt>)
COMMANDS = {
    "explore": ("enumerate the oriented exchange graph",
                _explore, _BUDGETS, ("json", "dot", "svg")),
    "certify": ("topologically sort the graph, proving it acyclic",
                _certify, _BUDGETS, ("json",)),
    "consistency": ("check loop products over a complete graph",
                    _consistency, ("--level",) + _BUDGETS, ("json",)),
    "obstruct": ("minimal-degree witness for an all-green crossing sequence",
                 _obstruct, (), ("json",)),
    "scatter2": ("complete the rank-2 scattering diagram",
                 _scatter2, ("--level",), ("json", "svg")),
    "emit-fan": ("draw the rank-2 cluster fan as SVG", _explore, _BUDGETS, ("svg",)),
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves no state on it, and the
    help width and output streams are read when it prints."""
    parser = argparse.ArgumentParser(
        prog="greenfan",
        description="mutation graphs, loop products, and rank-2 scattering diagrams",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    for name, (help_line, _, options, formats) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("input", nargs="?", help="input JSON document")
        p.add_argument("--matrix", help="inline B matrix, JSON list of rows")
        p.add_argument("--delta", help="inline delta vector, JSON list")
        for option in options:
            p.add_argument(option, type=int, default=_OPTIONS[option][0])
        p.set_defaults(format=formats[0], usage_error=p.error)
        p.add_argument("--out", help="write the artifact here instead of stdout")
        if len(formats) > 1:
            p.add_argument("--format", choices=formats, help="the artifact for stdout or --out")
            for fmt in formats:
                p.add_argument("--out-" + fmt, help="also write the %s artifact here" % fmt)
    return parser


def parse_args(argv) -> argparse.Namespace:
    ns = _parser().parse_args(argv)
    if ns.input is None and ns.matrix is None:
        ns.usage_error("provide an input document or --matrix/--delta")
    if ns.input is not None and ns.matrix is not None:
        ns.usage_error("input document and --matrix are mutually exclusive")
    if ns.matrix is not None and ns.delta is None:
        ns.usage_error("--matrix requires --delta")
    if ns.delta is not None and ns.matrix is None:
        ns.usage_error("--delta requires --matrix")
    for option in COMMANDS[ns.command][2]:
        if getattr(ns, option[2:].replace("-", "_")) < (least := _OPTIONS[option][1]):
            ns.usage_error("%s must be >= %d" % (option, least))
    return ns


def _requested(job: argparse.Namespace) -> list:
    """The ``(format, path)`` artifacts a run writes, a path of None being stdout."""
    formats = COMMANDS[job.command][3]
    return [(job.format, job.out)] + [
        (fmt, path) for fmt in formats if (path := getattr(job, "out_" + fmt, None))
    ]


def _write(job: argparse.Namespace, renderers: dict) -> None:
    """Render each requested artifact once, as text batches, then write the
    files and stdout last.

    A failed render writes nothing; a failed write, on any batch, keeps the
    files written before it and leaves stdout empty.
    """
    outputs = _requested(job)
    texts = {fmt: renderers[fmt]() for fmt in dict.fromkeys(fmt for fmt, _ in outputs)}
    for fmt, path in outputs:
        if path is None:
            continue
        try:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(texts[fmt])
        except OSError as exc:
            raise BadInput("cannot write %s: %s" % (path, exc)) from exc
    if job.out is None:
        _to_stdout(texts[job.format])


def _write_through(stream, batches: list) -> None:
    """Write ``batches`` to ``stream`` and flush it; on ``OSError`` point its
    fd, if it has one, at the null device, since the buffer keeps what failed
    and the flush at exit would fail again, and re-raise that error."""
    try:
        for batch in batches:  # not writelines, which a stand-in stream may lack
            stream.write(batch)
        stream.flush()
    except OSError:
        try:
            target = stream.fileno()
        except (AttributeError, OSError, ValueError):  # an in-process stand-in has no fd
            pass
        else:
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), target)
        raise


def _to_stdout(batches: list) -> None:
    """Write and flush stdout; a closed or failing stdout is ``bad_input``."""
    if sys.stdout is None:  # closed when the process started
        raise BadInput("cannot write stdout: it is closed")
    try:
        _write_through(sys.stdout, batches)
    except OSError as exc:
        raise BadInput("cannot write stdout: %s" % exc) from exc


def run(job: argparse.Namespace) -> int:
    _write(job, COMMANDS[job.command][1](job, _load_document(job)))
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
    try:
        try:
            job = parse_args(sys.argv[1:] if argv is None else argv)
        except SystemExit as exc:
            if exc.code == 0:  # --help, which argparse wrote to stdout unflushed
                _to_stdout([""])  # an unbuffered failed help write fails again
            raise
        return run(job)
    except GreenfanError as exc:
        error = exc
    except MemoryError:
        error = OutOfMemory("out of memory; lower --level or the budgets")
    except ValueError as exc:
        if "integer string conversion" not in str(exc):  # sys.get_int_max_str_digits()
            raise
        error = BadInput("a result integer is too long to write: %s" % exc)
    if sys.stderr is not None:  # else closed when the process started
        try:
            _write_through(sys.stderr, [json.dumps(_error_payload(error)) + "\n"])
        except OSError:  # nowhere left to report it; the exit status still does
            pass
    return 1


if __name__ == "__main__":
    sys.exit(main())
