"""One measured pass of one workload, in a fresh interpreter.

Started by ``run.py``.  It imports greenfan, builds the seeded inputs, prints
``ready`` (the parent times set-up up to that line), runs the cold pass and,
untraced, the same pass again at once in this process (the warm pass).  Then
it checks the outputs, which is never timed, and prints one JSON line.  Pass
times are sums of operation times at the reference speed (see
``calibration.py``); the first speed probe, taken right after ``ready``, lets
the parent scale the set-up time as well.

With ``--trace 1`` the cold pass runs under the span wrappers of
``spans.py`` and no warm pass follows.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path

import calibration
import spans
import workloads as wl

WARM_MIN_S = 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and the first speed probe")
    args = parser.parse_args(argv)

    build, run, check = wl.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cli_mix = args.workload == "cli-mix"
    scaler = calibration.Scaler()
    try:
        inputs = build(wl.seeded_rng(args.workload, args.seed), workdir)
        print("ready", flush=True)
        if args.setup_only:
            print(json.dumps({"first_probe_s": scaler.probe()}))
            return 0

        tracer = spans.Tracer() if args.trace and not cli_mix else None
        if cli_mix:
            cold = wl.run_cli_mix(inputs, workdir, scaler, traced=bool(args.trace))
        else:
            if tracer:
                tracer.install()
            try:
                cold = run(inputs, scaler, tracer)
            finally:
                if tracer:
                    tracer.uninstall()
        wall_s = sum(op.seconds for op in cold)
        if cli_mix:
            peak_rss_mb = max(op.extra["rss_mb"] for op in cold)
        else:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # a warm pass shorter than WARM_MIN_S (cli-mix takes 0.23 s) repeats
        # until that much warm time is measured, each repeat one more sample
        warm, warm_s = [], []
        while not args.trace and sum(warm_s) < WARM_MIN_S:
            ops = (wl.run_cli_mix_in_process(inputs, scaler) if cli_mix
                   else run(inputs, scaler))
            warm_s.append(sum(op.seconds for op in ops))
            warm += ops

        problems = check(inputs, cold)
        for i, op in enumerate(warm):
            if op.digest() != cold[i % len(cold)].digest():
                problems.append(["warm %s output differs from the cold pass" % op.name])
        result = {
            "wall_s": wall_s,
            "raw_wall_s": sum(op.raw_s for op in cold),
            "first_probe_s": scaler.probes[0],
            "probes_s": scaler.probes,
            "warm_s": warm_s,
            "op_s": [op.seconds for op in cold],
            "op_names": [op.name for op in cold],
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(cold) + len(warm),
            "failed": sum(1 for ps in problems if ps),
            "problems": [p for ps in problems for p in ps][:20],
            "op_digests": [op.digest() for op in cold],
        }
        if cli_mix:
            result["cli"] = [
                {"command": op.name, "seconds": op.seconds, "stdout_bytes": len(op.output[1]),
                 "rss_mb": op.extra["rss_mb"]}
                for op in cold
            ]
        if args.trace:
            if cli_mix:
                parts = [json.loads((workdir / ("spans%d.json" % i)).read_text())
                         for i in range(len(cold))]
                raw = spans.merge_raw(p["raw"] for p in parts)
                span_records = [p["spans"] for p in parts]
            else:
                raw = tracer.raw()
                span_records = tracer.spans
            result["layers"] = spans.layer_metrics(raw, scaler.factor())
            if args.spans_out:
                Path(args.spans_out).write_text(json.dumps(span_records))
    except Exception:  # noqa: BLE001 - the parent reports a crashed pass
        traceback.print_exc()
        return 1
    finally:
        wl.clean(workdir)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
