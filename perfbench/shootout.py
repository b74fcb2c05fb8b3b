"""Workload ``shootout-peak``: warmed peak speed of the nine shootout
programs on both user-facing tiers (the paper's §4.3 peak experiment).

Each program is compiled, linked against the managed libc and set up
once per tier, warmed, and then timed over whole round-robin rounds of
in-process iterations, the two tiers of a program one after the other.
Every iteration's stdout is checked against a clang -O0 reference: the
native execution model, independent of the tier under test, run once
before the timed set-up.  The front end, cache, harness and service
do nothing in the timed phase.
"""

from __future__ import annotations

import gc
import random
import time

from repro.bench.harness import PROGRAMS, NativeSession, program_source
from repro.cfront import compile_source
from repro.core.errors import ProgramExit
from repro.core.interpreter import Runtime
from repro.core.intrinsics import default_intrinsics
from repro.libc import include_dir, libc_module
from repro.obs import Observer
from repro.obs.spans import span
from repro.opt import elide

from common import (Result, median, peak_rss_mb, per_op_ms, reset_peak_rss,
                    timed_rounds)
from tracing import Tracer, phase

# Engine options per tier.  ``ref`` is the reference interpreter, the
# default of ``repro run`` and of the §4.1 matrix.  ``opt`` is the top
# rung hunt and serve use under --speculate: speculation, which implies
# static elision and the safe-O2 clone, plus the JIT.
TIERS = {
    "ref": {"jit_threshold": None},
    "opt": {"jit_threshold": 3, "elide_checks": True, "speculate": True},
}
# Iterations before timing: the reference tier prepares its functions on
# the first; the optimized tier compiles main() on its third call.
WARMUP = {"ref": 1, "opt": 4}
SMOKE_PROGRAMS = ["fannkuchredux", "fastaredux"]
# Observer counters reported from the reference counting pass (the
# reference tier runs no elision, so only full checks occur).
COUNTERS = ("check.load.full", "check.store.full", "check.gep",
            "instructions", "calls", "icall.hit", "icall.mega.hit",
            "icall.miss")


class Program:
    """One shootout program set up on one tier."""

    def __init__(self, name: str, tier: str, expected: bytes):
        self.name = name
        self.tier = tier
        self.key = f"{name}.{tier}"
        self.expected = expected
        source = program_source(name)
        filename = name + ".c"
        unit = compile_source(source, filename=filename,
                              include_dirs=[include_dir()],
                              defines={"__SAFE_SULONG__": "1"})
        with span("link", of=name):
            self.module = libc_module().link(unit, name=filename)
        options = TIERS[tier]
        self.elided = 0
        if options.get("elide_checks"):
            with span("opt.elide", of=name):
                self.elided = elide.run_module(self.module)
        self.runtime = Runtime(self.module, intrinsics=default_intrinsics(),
                               **options)

    def iterate(self, ctx, runtime: Runtime | None = None) -> float:
        """Run main() once and check its stdout; returns wall seconds."""
        runtime = runtime or self.runtime
        started = time.perf_counter()
        try:
            runtime.reset()
            with span("execute", of=self.name):
                try:
                    runtime.run_main()
                except ProgramExit:
                    pass
            problem = None if runtime.stdout == self.expected else \
                "stdout differs from the clang -O0 reference"
        except Exception as error:  # one failed operation, not the run
            problem = repr(error)
        elapsed = time.perf_counter() - started
        ctx.check(problem is None, f"{self.key}: {problem}")
        return elapsed


def references(names: list[str]) -> dict[str, bytes]:
    """Each program's stdout under the native execution model at -O0.
    This is the checker, not the system under test, so it runs once,
    before the set-ups ``setup_s`` times."""
    return {name: NativeSession(program_source(name), 0,
                                filename=name + ".c").run_iteration()
            for name in names}


def set_up(ctx, tier: str, expected: dict[str, bytes]) -> list[Program]:
    with span("libc.bundle"):
        libc_module(force_reload=True)
    programs = [Program(name, tier, output)
                for name, output in expected.items()]
    for _ in range(WARMUP[tier]):
        for program in programs:
            program.iterate(ctx)
    return programs


def count_pass(ctx, programs: list[Program], result: Result) -> None:
    """One iteration per program on the reference tier under an enabled
    observer, for the check, instruction and call counts.  An enabled
    observer switches speculation off and slows every tier, so no count
    comes from a timed or optimized run."""
    observer = Observer(enabled=True)
    for program in programs:
        program.iterate(ctx, Runtime(program.module,
                                     intrinsics=default_intrinsics(),
                                     observer=observer))
    for key in COUNTERS:
        result.set(f"core.{key}", observer.counters.get(key, 0))


def run(ctx) -> Result:
    # Set-up goes in name order, so that its peak memory, which depends
    # on the order, is the same for every seed; the seed orders the
    # timed rounds.
    names = sorted(SMOKE_PROGRAMS if ctx.smoke else PROGRAMS)
    order = list(names)
    random.Random(ctx.seed).shuffle(order)
    result = Result()
    tracer = Tracer() if ctx.trace else None
    started = time.perf_counter()
    expected = references(names)
    if tracer is not None:
        result.set("native.reference_ms",
                   (time.perf_counter() - started) * 1000.0)
    gc.collect()
    reset_peak_rss()
    clock = ctx.clock

    def setup():
        # Once: the optimized tier's set-up is mostly one first-use
        # safe-O2 clone of about 20 s.
        with phase(tracer, "setup"):
            return [program for tier in TIERS
                    for program in set_up(ctx, tier, expected)]

    programs, seconds = clock.set_up(setup)
    setup_times = [seconds]
    programs.sort(key=lambda program: (order.index(program.name),
                                       list(TIERS).index(program.tier)))
    operations = [(program.key, lambda program=program: program.iterate(ctx))
                  for program in programs]
    gc.collect()
    if tracer is None:
        samples, busy = timed_rounds(clock, ctx.seconds, operations)
        result.report_verdicts(clock, setup_times, samples, busy,
                               peak_rss_mb())
        return result

    untraced, _busy = timed_rounds(clock, ctx.seconds / 2, operations)
    steps = sum(program.runtime.steps for program in programs)
    with tracer.phase("timed"):
        traced, _busy = timed_rounds(clock, ctx.seconds / 2, operations)
    result.set("obs.trace_overhead_frac",
               per_op_ms(traced) / per_op_ms(untraced) - 1.0)
    result.set("obs.ops", sum(len(times) for times in traced.values()))
    result.set("core.steps",
               sum(program.runtime.steps for program in programs) - steps)
    for program in programs:
        runtime = program.runtime
        result.set(f"core.iter_ms.{program.key}",
                   median(untraced[program.key]) * 1000.0)
        result.add("core.prepared_functions", len(runtime.prepared))
        result.add("core.compiled_functions", runtime.compiled_functions)
        result.add("core.jit_bailouts", len(runtime.compile_bailouts)
                   + len(runtime.compile_errors))
        result.add("core.guard_trips", runtime.guard_trips)
        result.add("core.deopts", runtime.deopts)
        result.add("opt.elided_checks", program.elided)
        result.add("opt.loop_plans", sum(
            len(prepared.speculation.plans)
            for prepared in runtime.prepared.values()
            if prepared.speculation is not None))
    count_pass(ctx, [program for program in programs
                     if program.tier == "ref"], result)
    tracer.report(result)
    tracer.write(ctx.trace_path())
    return result
