"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload track-dense --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  With ``--trace 0`` the rounds are timed untraced and the
end-to-end metrics are printed; with ``--trace 1`` untraced and traced
rounds alternate, their outputs must be byte-identical, and the per-layer
metrics plus the tracing overhead are printed.  The last line of standard
output is the JSON result; problems found by the output checks go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time


def _load_program(root: str) -> str:
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "paretotrack", "__init__.py")):
        raise SystemExit(f"perfbench: no paretotrack sources under {src}")
    sys.path.insert(0, src)
    import paretotrack

    if not os.path.abspath(paretotrack.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: paretotrack imported from {paretotrack.__file__}")
    return src


def _timed(bench, seconds: float) -> dict:
    start = last = time.perf_counter()
    while True:
        bench.round()
        now = time.perf_counter()
        if now + (now - last) - start > seconds:  # the next round would overrun
            break
        last = now
    return bench.end_to_end()


def _traced(bench, seconds: float, trace_path: str) -> dict:
    from tracing import Tracer, instrument, per_layer_metrics

    bench.setup()
    plain_walls, traced_walls, rounds = [], [], []
    start = time.perf_counter()
    while True:
        wall, plain = bench.outputs_round(None)
        plain_walls.append(wall)
        tracer = Tracer()
        with instrument(tracer):
            wall, traced = bench.outputs_round(tracer)
        traced_walls.append(wall)
        rounds.append(per_layer_metrics(tracer))
        if traced != plain:
            differ = sorted(k for k in plain.keys() | traced.keys()
                            if plain.get(k) != traced.get(k))
            bench.problems.append(f"trace: traced outputs differ in {differ}")
        if plain.get("traced_table") != bench.table:
            bench.problems.append("profile-latency: in-process table differs from set-up")
        if time.perf_counter() - start >= seconds:
            break
    tracer.dump(trace_path)
    metrics = {}
    for name, (value, unit) in rounds[0].items():
        values = [r[name][0] for r in rounds]
        if unit in ("ms", "us"):
            value = statistics.median(values)
        elif len(set(values)) != 1:
            bench.problems.append(f"trace: {name} differs between rounds: {values}")
        metrics[name] = (value, unit)
    plain_s, traced_s = statistics.median(plain_walls), statistics.median(traced_walls)
    metrics["trace.overhead_pct"] = (100.0 * (traced_s - plain_s) / plain_s, "%")
    return metrics


def main(argv=None) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = _load_program(root)
    from workloads import WORKLOADS, Bench

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    scratch = os.path.join(root, ".perfbench")
    work = os.path.join(scratch, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    bench = None
    try:
        bench = Bench(args.workload, args.seed, src, work, sampled=not args.trace)
        if args.trace:
            trace_path = os.path.join(scratch, f"trace-{args.workload}-seed{args.seed}.jsonl")
            metrics = _traced(bench, args.seconds, trace_path)
        else:
            metrics = _timed(bench, args.seconds)
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)

    for problem in bench.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:>28} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
