"""Re-measure the single-run "Baseline" rows of ROADMAP.md.

    python3 perfbench/baseline.py

Run from the root of a greenfan checkout.  Each row runs REPEATS times, each time
in a fresh interpreter, and the script prints one JSON line per row with the
median, the quartiles and the ROADMAP figure, so a difference can be set
against the measured spread.  The benchmark workloads are smaller than these
rows (see README.md); this script exists only for the cross-check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPEATS = 5

E7 = [[0, 1, 0, 0, 0, 0, 0], [-1, 0, 1, 0, 0, 0, 0], [0, -1, 0, 1, 0, 0, 1],
      [0, 0, -1, 0, 1, 0, 0], [0, 0, 0, -1, 0, 1, 0], [0, 0, 0, 0, -1, 0, 0],
      [0, 0, -1, 0, 0, 0, 0]]
A3 = [[0, 1, 0], [-1, 0, 1], [0, -1, 0]]
A4 = [[0, 1, 0, 0], [-1, 0, 1, 0], [0, -1, 0, 1], [0, 0, -1, 0]]

# row -> ROADMAP figure in seconds
ROWS = {
    "E7 enumerate + certify": 4.9,
    "A3 loop consistency l=8": 2.87,
    "A4 loop consistency l=6": 1.87,
    "CLI explore A2": 0.19,
    "python -c pass": 0.08,
}


def in_process(row: str) -> float:
    """Time one library row in this interpreter."""
    from greenfan import exchange, scattering

    if row == "E7 enumerate + certify":
        fd = exchange.validate_fixed_data(E7, [1] * 7)
        start = time.perf_counter()
        exchange.certify_acyclic(exchange.enumerate_graph(fd, max_depth=20))
        return time.perf_counter() - start
    b, level = (A3, 8) if row.startswith("A3") else (A4, 6)
    fd = exchange.validate_fixed_data(b, [1] * len(b))
    start = time.perf_counter()
    scattering.verify_loop_consistency(fd, exchange.enumerate_graph(fd), level)
    return time.perf_counter() - start


def fresh(row: str, env) -> float:
    if row == "CLI explore A2":
        cmd = [sys.executable, "-m", "greenfan", "explore", "--matrix", "[[0,1],[-1,0]]",
               "--delta", "[1,1]"]
    elif row == "python -c pass":
        cmd = [sys.executable, "-c", "pass"]
    else:
        out = subprocess.run([sys.executable, __file__, "--row", row], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        return float(out)
    start = time.perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--row", choices=ROWS, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.row:
        print(in_process(args.row))
        return 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for row, roadmap_s in ROWS.items():
        samples = [fresh(row, env) for _ in range(REPEATS)]
        q1, med, q3 = statistics.quantiles(samples, n=4)
        print(json.dumps({"row": row, "roadmap_s": roadmap_s, "median_s": med, "q1_s": q1,
                          "q3_s": q3, "samples": samples}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
