"""Traced stand-in for ``python -m greenfan`` in traced cli-mix passes.

Usage: ``python cli_child.py SPANS_OUT <greenfan arguments>``.  Installs the
span wrappers, runs ``greenfan.cli.main`` on the arguments, writes the spans
and their raw totals to SPANS_OUT and exits with the CLI's exit status.
"""

import json
import sys

import spans
from greenfan import cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = spans.Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"raw": tracer.raw(), "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
