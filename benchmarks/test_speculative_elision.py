"""The optimized tier, interpreted, with fused dispatch: the ≥2x gate.

Measures interpreted shootout throughput for the ``--speculate``
configuration (``safe-sulong-interp-speculate``) against the *no-fusion
baseline*: the reference interpreter without superinstruction fusion
(``safe-sulong-interp-nofuse``).  Only compiled code speculates
(DESIGN.md §6), and this configuration has no JIT, so what it times is
the safe-tier O2 clone from ``opt/pipeline.py``, run with every check,
and the fused dispatch.  The compiled tier, loop guards included, is
measured by perfbench's shootout-peak ``opt`` tier.

Methodology: both sessions are fully warmed (the safe-O2 clone and
node preparation happen before timing), then base/spec iterations are
*interleaved* so machine-load drift hits both sides equally; each side
keeps its minimum (noise on a shared machine is one-sided).  Output
equality is asserted every iteration — a fast wrong answer is a bug,
not a speedup.

Emits ``BENCH_speculate.json`` at the repository root:
    {program: {"base_s": ..., "spec_s": ..., "speedup": ...},
     "_geomean": ...}
and folds it into ``BENCH_trajectory.json``.
"""

import json
import math
import os

from repro.bench import history
from repro.bench.harness import PROGRAMS, make_session

WARMUP = 2
SAMPLES = 5

BASELINE = "safe-sulong-interp-nofuse"
TREATMENT = "safe-sulong-interp-speculate"

# ≥2x interpreted shootout geomean, safe-O2 clone + fused dispatch
# combined, vs. the no-fusion baseline.
GATE = 2.0

RESULTS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_speculate.json")


def _measure(program: str) -> dict:
    import gc
    base = make_session(program, BASELINE)
    spec = make_session(program, TREATMENT)
    expected = None
    for _ in range(WARMUP):
        base_out = base.run_iteration()
        spec_out = spec.run_iteration()
        assert spec_out == base_out, program
        expected = base_out
    gc.collect()
    gc.disable()
    try:
        base_best = spec_best = None
        for _ in range(SAMPLES):
            seconds, output = base.timed_iteration()
            assert output == expected, program
            base_best = seconds if base_best is None \
                else min(base_best, seconds)
            seconds, output = spec.timed_iteration()
            assert output == expected, program
            spec_best = seconds if spec_best is None \
                else min(spec_best, seconds)
    finally:
        gc.enable()
    return {
        "base_s": base_best,
        "spec_s": spec_best,
        "speedup": base_best / spec_best,
        "guard_trips": spec.process.guard_trips,
        "deopts": spec.process.deopts,
    }


def test_speculative_pipeline_hits_2x(benchmark):
    def regenerate():
        table = {}
        for program in PROGRAMS:
            table[program] = _measure(program)
        speedups = [row["speedup"] for row in table.values()]
        table["_geomean"] = math.exp(
            sum(math.log(s) for s in speedups) / len(speedups))
        return table

    table = benchmark.pedantic(regenerate, iterations=1, rounds=1)

    print("\ninterpreter, safe-O2 clone (every check) + fused dispatch "
          "vs. no-fusion baseline:")
    for program in PROGRAMS:
        row = table[program]
        print(f"  {program:16} {row['base_s']:7.3f}s -> "
              f"{row['spec_s']:7.3f}s  ({row['speedup']:.2f}x)")
    print(f"  geomean: {table['_geomean']:.3f}x")

    with open(RESULTS_PATH, "w") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")
    history.record_benchmark()

    # The interpreter guards nothing, so nothing can trip or deopt: a
    # non-zero count here means interpreted code speculated again.
    for program in PROGRAMS:
        assert table[program]["guard_trips"] == 0, (
            program, table[program])
        assert table[program]["deopts"] == 0, (program, table[program])

    assert table["_geomean"] >= GATE, table

    benchmark.extra_info["speculate"] = table
