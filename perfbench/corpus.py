"""Workload ``corpus-verdict``: the §4.1 matrix path, from source to
verdict.

The 68 corpus programs run in a seeded order.  Each is compiled from
source and run to a verdict by a fresh ``SafeSulong()`` on the reference
tier, in-process and with no compilation cache, and its first bug
report is rendered; the libc is compiled once, in set-up.  Most of a
verdict is front end, link and prepare: execution ends within
milliseconds, at the bug.  A verdict is correct when the first report
has the kind the corpus manifest records and, for an out-of-bounds
bug, its access and direction.
"""

from __future__ import annotations

import random
import time

from repro.core.engine import SafeSulong
from repro.core.errors import BugKind
from repro.corpus.manifest import ENTRIES
from repro.libc import libc_module
from repro.obs.provenance import render_bug_report
from repro.obs.spans import span

from common import Result, peak_rss_mb, per_op_ms, timed_rounds
from tracing import Tracer, phase

# The step budget corpus.runner.run_entry gives every matrix cell.
MAX_STEPS = 2_000_000
# Set-up is one libc build, cheap enough to repeat for a median.
SETUPS = 5
SMOKE_ENTRIES = 6


def set_up(entries) -> list:
    with span("libc.bundle"):
        libc_module(force_reload=True)
    return [(entry, entry.source()) for entry in entries]


def expected_shapes(entry) -> set:
    """The first-report shapes the manifest accepts for ``entry``.  A
    missing vararg is caught as the out-of-bounds read of the varargs
    array (§3.4), so either kind counts, as in the corpus tests."""
    if entry.category == BugKind.OUT_OF_BOUNDS:
        return {(BugKind.OUT_OF_BOUNDS, entry.access, entry.direction)}
    if entry.category == BugKind.VARARGS:
        return {(BugKind.VARARGS,), (BugKind.OUT_OF_BOUNDS,)}
    return {(entry.category,)}


def shape(entry, bug) -> tuple:
    if entry.category == BugKind.OUT_OF_BOUNDS:
        return bug.kind, bug.access, bug.direction
    return (bug.kind,)


def verdict(ctx, entry, source: str, result: Result | None = None) -> float:
    """Source to verdict for one corpus program; returns wall seconds.
    With ``result``, the run's prepared functions and steps are added."""
    started = time.perf_counter()
    try:
        outcome = SafeSulong(max_steps=MAX_STEPS).run_source(
            source, argv=entry.argv, stdin=entry.stdin,
            filename=entry.name + ".c", vfs=entry.vfs)
        found = None
        if outcome.bugs:
            with span("report", of=entry.name):
                render_bug_report(outcome.bugs[0])
            found = shape(entry, outcome.bugs[0])
    except Exception as error:  # one failed operation, not the run
        outcome, found = None, repr(error)
    elapsed = time.perf_counter() - started
    shapes = expected_shapes(entry)
    ctx.check(found in shapes,
              f"{entry.name}: expected one of {sorted(shapes)}, "
              f"got {found or 'no report'}")
    if result is not None and outcome is not None \
            and outcome.runtime is not None:
        result.add("core.prepared_functions", len(outcome.runtime.prepared))
        result.add("core.steps", outcome.runtime.steps)
    return elapsed


def operations(ctx, programs, result: Result | None = None) -> list:
    return [(entry.name,
             lambda entry=entry, source=source:
             verdict(ctx, entry, source, result))
            for entry, source in programs]


def run(ctx) -> Result:
    entries = list(ENTRIES)
    random.Random(ctx.seed).shuffle(entries)
    if ctx.smoke:
        entries = entries[:SMOKE_ENTRIES]
    result = Result()
    tracer = Tracer() if ctx.trace else None
    clock = ctx.clock

    def setup():
        with phase(tracer, "setup"):
            return set_up(entries)

    setup_times = []
    for _ in range(1 if ctx.trace or ctx.smoke else SETUPS):
        programs, seconds = clock.set_up(setup)
        setup_times.append(seconds)
    if tracer is None:
        samples, busy = timed_rounds(clock, ctx.seconds,
                                     operations(ctx, programs))
        result.report_verdicts(clock, setup_times, samples, busy,
                               peak_rss_mb())
        return result

    untraced, _busy = timed_rounds(clock, ctx.seconds / 2,
                                   operations(ctx, programs))
    with tracer.phase("timed"):
        traced, _busy = timed_rounds(clock, ctx.seconds / 2,
                                     operations(ctx, programs, result))
    result.set("obs.trace_overhead_frac",
               per_op_ms(traced) / per_op_ms(untraced) - 1.0)
    result.set("obs.ops", sum(len(times) for times in traced.values()))
    tracer.report(result)
    tracer.write(ctx.trace_path())
    return result
