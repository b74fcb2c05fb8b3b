"""Overhead contracts of the optional observation layers.

Each contract times shootout programs on the plain interpreter
(control, exactly what ``repro run`` pays) and on the configurations
its layer adds, and gates their ratios to control.  One row of
``CONTRACTS`` per contract:

* ``obs`` — the observer.  The engine specializes for it at prepare
  time: with no observer (or a disabled one) attached, the interpreter
  builds exactly the nodes it built before the layer existed and the
  JIT emits exactly the same source.  ``disabled`` attaches an
  Observer with ``enabled=False`` (what every ordinary ``repro run``
  without ``--metrics`` pays: nothing); ``enabled`` counts everything
  (what ``repro profile`` and metric-collecting hunts pay), recorded
  but not gated.  Check-dense programs: tight loops where
  per-instruction counting would show if the disabled path were not
  truly free.
* ``provenance`` — allocation/free-site stamping and managed stack
  capture.  ``disabled`` re-certifies the observer gate against the
  provenance hooks; ``provenance`` turns heap-object tracking on
  (``--heap-dump``), whose only extra work is retaining the allocation
  list; ``lines`` is per-source-line attribution (``repro profile
  --lines``), recorded but not gated.  Allocation-heavy plus
  check-dense programs.
* ``explain`` — the block-trace recorder behind ``repro explain``.
  ``disabled`` is an Observer with ``block_trace=True`` but
  ``enabled=False``, which must specialize down to the plain
  interpreter fast path; ``enabled`` records a ring snapshot of the
  register file per block entry, what an explain replay pays.
  Block-dense programs.

Each contract writes ``{program: {"control_s", "<config>_s" ...,
"<config>_overhead" ...}}`` to its ``BENCH_*.json`` at the repository
root.  Timing noise on a shared machine is one-sided, so a row outside
its budgets is measured up to twice more; the whole re-measured row
replaces it when its worst gated ratio, divided by that ratio's budget,
is lower.
"""

import json
import os
from typing import NamedTuple

import pytest

from repro.bench import history
from repro.bench.peak import measure_peak

WARMUP = 3
SAMPLES = 3
CONTROL = "safe-sulong-interp"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class Contract(NamedTuple):
    results: str                  # BENCH_*.json file name
    programs: list[str]
    configurations: dict[str, str]  # row key -> measure_peak configuration
    budgets: dict[str, float]       # row key -> bound on its ratio


CONTRACTS = {
    "obs": Contract(
        "BENCH_obs.json", ["fannkuchredux", "nbody", "mandelbrot"],
        {"disabled": "safe-sulong-obs-disabled",
         "enabled": "safe-sulong-obs"},
        {"disabled": 1.03}),
    "provenance": Contract(
        "BENCH_provenance.json", ["fannkuchredux", "nbody", "binarytrees"],
        {"disabled": "safe-sulong-obs-disabled",
         "provenance": "safe-sulong-provenance",
         "lines": "safe-sulong-lines"},
        {"disabled": 1.03, "provenance": 1.30}),
    "explain": Contract(
        "BENCH_explain.json", ["fannkuchredux", "nbody", "mandelbrot"],
        {"disabled": "safe-sulong-blocktrace-disabled",
         "enabled": "safe-sulong-blocktrace"},
        {"disabled": 1.03, "enabled": 2.0}),
}


def _measure(contract: Contract, program: str) -> dict:
    control = measure_peak(program, CONTROL, WARMUP, SAMPLES)
    seconds = {key: measure_peak(program, configuration, WARMUP, SAMPLES)
               for key, configuration in contract.configurations.items()}
    row = {"control_s": control}
    row.update((f"{key}_s", value) for key, value in seconds.items())
    row.update((f"{key}_overhead", value / control)
               for key, value in seconds.items())
    return row


def _worst(contract: Contract, row: dict) -> float:
    """How close a measurement is to failing, across its gates."""
    return max(row[f"{key}_overhead"] / budget
               for key, budget in contract.budgets.items())


@pytest.mark.parametrize("name", list(CONTRACTS))
def test_overhead(benchmark, name):
    contract = CONTRACTS[name]

    def regenerate():
        table = {}
        for program in contract.programs:
            row = _measure(contract, program)
            for _ in range(2):
                if _worst(contract, row) <= 1.0:
                    break
                again = _measure(contract, program)
                if _worst(contract, again) < _worst(contract, row):
                    row = again
            table[program] = row
        return table

    table = benchmark.pedantic(regenerate, iterations=1, rounds=1)

    print(f"\n{name} overhead (vs plain interpreter):")
    for program, row in table.items():
        print(f"  {program:16} " + "  ".join(
            f"{key} {row[f'{key}_overhead']:.3f}x"
            for key in contract.configurations))

    with open(os.path.join(ROOT, contract.results), "w") as handle:
        json.dump(table, handle, indent=2)
        handle.write("\n")
    history.record_benchmark()

    for program, row in table.items():
        for key, budget in contract.budgets.items():
            assert row[f"{key}_overhead"] < budget, (program, row)

    benchmark.extra_info[f"{name}_overhead"] = table
