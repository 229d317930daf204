"""greenfan benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a greenfan checkout.  Every measured pass runs in a
fresh worker process (``worker.py``), one at a time, so each cold pass starts
with empty caches as a CLI user's process does.  Passes repeat until the next
one would end after ``--seconds``; the metrics are medians over the passes.
Every timing is scaled to one reference machine speed by the probe of
``calibration.py``, since the speed of a shared machine drifts by up to 1.8x
between and within runs; the raw seconds stay in the run record.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics; with ``--trace 1`` untraced and traced passes alternate and it
carries the per-layer metrics, the tracing overhead among them.  Each run
also writes its full record (environment, every pass, output digests) to
``.perfbench/results/`` and the spans of traced passes to
``.perfbench/spans/``.  See ``perfbench/README.md`` for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median, quantiles

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKLOADS = ("finite-enum", "loop-products", "rank2-completion", "cli-mix")
RUN_LIMIT_S = 170.0  # a run must end within 180 s
FLOOR_REPEATS = 5
# set-up-only workers at the start of every run; their set-up times join
# those of the measured passes in the median of setup_s
SETUP_SAMPLES = 8
# fixed, so that it does not move with the sample count; every run has 40
# or more operation samples, which leaves at least twelve beyond it.  p75
# fell on the upper edge of one cluster of finite-enum's five operation
# kinds, where a few slow calls moved it by 9% between seeds.
TAIL_PERCENTILE = 70

CLI_COMMANDS = ("explore", "certify", "consistency", "obstruct", "scatter2", "emit-fan")


def run_pass(args, env, index, traced, run_start, setup_only=False):
    """One worker process; returns its result dict, or None if it crashed."""
    tag = "%s-seed%d-trace%d-%s%d" % (args.workload, args.seed, args.trace,
                                      "setup" if setup_only else "pass", index)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", "1" if traced else "0",
           "--workdir", str(OUT / "work" / ("%s-%d" % (tag, os.getpid())))]
    if traced:
        cmd += ["--spans-out", str(OUT / "spans" / (tag + ".json"))]
    if setup_only:
        cmd.append("--setup-only")
    remaining = RUN_LIMIT_S - (time.perf_counter() - run_start)
    probe_s = calibration.probe()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    guard = threading.Timer(max(remaining, 1.0), proc.kill)
    guard.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        guard.cancel()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0 or not rest.strip():
        print("pass %s failed with exit %s" % (tag, proc.returncode), file=sys.stderr)
        return None
    result = json.loads(rest.strip().splitlines()[-1])
    # set-up lies between this process's probe and the worker's first one
    result["raw_setup_s"] = setup_s
    result["setup_s"] = setup_s * calibration.REF_S * 2.0 / (probe_s + result["first_probe_s"])
    result["traced"] = traced
    result["elapsed_s"] = time.perf_counter() - start
    return result


def interpreter_floor(env):
    """Median ms of ``python -c pass`` and of ``import greenfan`` above it."""
    floor, imported = [], []
    scaler = calibration.Scaler()
    for _ in range(FLOOR_REPEATS):
        for code, sink in (("pass", floor), ("import greenfan", imported)):
            _, _, seconds = scaler.time(
                subprocess.run, [sys.executable, "-c", code], env=env, cwd=ROOT,
                check=True, stdin=subprocess.DEVNULL)
            sink.append(seconds * 1000.0)
    return median(floor), median(imported) - median(floor)


def tail(samples):
    """The TAIL_PERCENTILE of the samples and the number of samples beyond it."""
    if len(samples) < 2:
        return samples[0], 0
    value = quantiles(samples, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return value, sum(1 for x in samples if x > value)


def end_to_end(untraced, setups):
    ops = [s for p in untraced for s in p["op_s"]]
    tail_s, beyond = tail(ops)
    metrics = {
        "setup_s": median([p["setup_s"] for p in untraced] + setups),
        "wall_s": median(p["wall_s"] for p in untraced),
        "warm_s": median(s for p in untraced for s in p["warm_s"]),
        "op_p50_ms": median(ops) * 1000.0,
        "op_tail_ms": tail_s * 1000.0,
        "peak_rss_mb": median(p["peak_rss_mb"] for p in untraced),
    }
    return metrics, {"op_samples": len(ops), "op_tail_percentile": TAIL_PERCENTILE,
                     "op_samples_beyond_tail": beyond}


def per_layer(untraced, traced, floor_ms, import_ms):
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = median(p["layers"][name] for p in traced)
    for command in CLI_COMMANDS:
        samples = [c["seconds"] * 1000.0 for p in untraced for c in p.get("cli", ())
                   if c["command"] == command]
        metrics["cli.%s.ms" % command] = median(samples) if samples else 0.0
    metrics["cli.stdout_bytes"] = median(
        sum(c["stdout_bytes"] for c in p.get("cli", ())) for p in untraced)
    metrics["cli.child_rss_mb"] = median(
        max((c["rss_mb"] for c in p.get("cli", ())), default=0.0) for p in untraced)
    metrics["cli.python_floor_ms"] = floor_ms
    metrics["cli.import_ms"] = import_ms
    traced_wall = median(p["wall_s"] for p in traced)
    metrics["trace.wall_s"] = traced_wall
    metrics["trace.overhead_s"] = traced_wall - median(p["wall_s"] for p in untraced)
    return metrics


def source_commit():
    """The checked-out commit when the root is a git work tree, else None.

    ``src_sha256`` identifies the measured code in either case.
    """
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, stdin=subprocess.DEVNULL)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "greenfan").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "commit": source_commit(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "cpu": sorted(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="greenfan benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "greenfan" / "__init__.py").is_file():
        print("no greenfan sources under %s; run from a greenfan checkout" % SRC,
              file=sys.stderr)
        return 2

    # one CPU for this process and every process it starts: the speed probes
    # then run where the measured work runs (the cores of a shared machine
    # can differ in speed), and the work never migrates between cores
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    for sub in ("results", "spans", "work"):
        (OUT / sub).mkdir(parents=True, exist_ok=True)
    record = {"environment": environment(args)}

    if args.trace:
        floor_ms, import_ms = interpreter_floor(env)
    run_start = time.perf_counter()
    setups, crashed = [], 0
    for i in range(0 if args.trace else SETUP_SAMPLES):
        sample = run_pass(args, env, i, False, run_start, setup_only=True)
        if sample is None:
            crashed += 1
        else:
            setups.append(sample["setup_s"])
    # traced runs alternate which of the pair goes first, so drift between
    # the two positions does not bias the tracing overhead
    cycles = ((False, True), (True, False)) if args.trace else ((False,),)
    passes, durations = [], []
    while not crashed:
        cycle_start = time.perf_counter()
        for traced in cycles[len(durations) % len(cycles)]:
            result = run_pass(args, env, len(passes) + crashed, traced, run_start)
            if result is None:
                crashed += 1
            else:
                passes.append(result)
        durations.append(time.perf_counter() - cycle_start)
        elapsed = time.perf_counter() - run_start
        if elapsed + median(durations) > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(p["attempted"] for p in passes) + crashed
    failed = sum(p["failed"] for p in passes) + crashed
    # outputs are deterministic per seed: every pass must emit the same bytes
    reference = passes[0]["op_digests"] if passes else []
    for p in passes[1:]:
        failed += sum(1 for a, b in zip(p["op_digests"], reference) if a != b)
    record["environment"]["loadavg_end"] = os.getloadavg()
    record["passes"] = passes
    record["setup_only_s"] = setups
    record["crashed_passes"] = crashed
    if not untraced or (args.trace and not traced_passes):
        print("no pass completed", file=sys.stderr)
        return 1
    # the sha256 of every document the first pass emitted, by operation
    first = passes[0]
    record["documents"] = {"%02d-%s" % (i, name): digest for i, (name, digest)
                           in enumerate(zip(first["op_names"], first["op_digests"]))}
    if args.trace:
        metrics = per_layer(untraced, traced_passes, floor_ms, import_ms)
    else:
        metrics, record["op_latency"] = end_to_end(untraced, setups)
    record["metrics"] = metrics
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print("metrics differ from BENCHMARK.json: %s" % sorted(set(units) ^ set(metrics)),
              file=sys.stderr)
        return 1
    out_file = OUT / "results" / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    out_file.write_text(json.dumps(record, indent=1))
    print(json.dumps({"record": str(out_file.relative_to(ROOT)), "passes": len(passes),
                      "documents": record["documents"], **record.get("op_latency", {})}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
