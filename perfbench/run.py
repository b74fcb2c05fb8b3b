"""Entry point of the pipeline benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: every end-to-end metric BENCHMARK.json names with
``--trace 0``, every per-layer metric with ``--trace 1``.  Earlier lines
are notes for people: sample counts and set-up times, and for the traced
run each phase's attribution and the slowest set-up subjects.
``--smoke`` shrinks every workload to its minimum size (the benchmark's
smoke test uses it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def run_workload(ctx):
    if ctx.workload == "shootout-peak":
        import shootout
        return shootout.run(ctx)
    if ctx.workload == "corpus-verdict":
        import corpus
        return corpus.run(ctx)
    import serve
    return serve.run(ctx)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(
        description="Time the repro pipeline on one workload.")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run at minimum size (smoke test)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print("perfbench: src/repro not found; run from the root of a "
              "full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from common import Context

    ctx = Context(ROOT, args.workload, args.seed, args.seconds,
                  bool(args.trace), args.smoke)
    try:
        ctx.isolate_environment()
        result = run_workload(ctx)
    finally:
        ctx.close()

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unknown = sorted(set(result.metrics)
                     - {metric["name"] for metric in wanted})
    if unknown:
        print(f"perfbench: metrics not in BENCHMARK.json: {unknown}",
              file=sys.stderr)
        return 1
    metrics = {}
    for metric in wanted:
        # A per-layer row a workload has no such layer for reads 0.
        value = result.metrics.get(metric["name"],
                                   0.0 if args.trace else None)
        if value is None or not math.isfinite(value):
            print(f"perfbench: no finite value for {metric['name']}",
                  file=sys.stderr)
            return 1
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    for line in result.notes:
        print(line)
    for reason in ctx.failures[:20]:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({"correct": not ctx.failures,
                      "attempted": max(1, ctx.attempted),
                      "failed": len(ctx.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
