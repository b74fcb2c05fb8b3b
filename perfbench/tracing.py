"""Benchmark-side span tracing and per-layer self-time accounting.

The traced run installs one in-memory ``SpanRecorder`` through
``repro.obs.spans.set_recorder``, so every span the pipeline already
records (preprocess ... execute, cache lookups, analysis phases) is
kept.  Layer entry points with no span of their own are timed from
outside: the benchmark times its own calls into them, and for the
traced phases only it wraps the module attributes the engine calls
through (the safe-O2 clone, the speculation analysis, and the parser
and IR generator, whose results give the token and instruction
counts).  A span's self time is its duration minus the part its child
spans cover; the part of a phase no span covers is that phase's
unattributed remainder.  Spans stay in memory and are written when the
run ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict

from repro.cfront import irgen, parser
from repro.obs import spans
from repro.opt import pipeline, speculate

# Span name -> the per-layer metric that receives its self time.
LAYER_OF_SPAN = {
    "preprocess": "cfront.preprocess_ms",
    "parse": "cfront.parse_ms",
    "typecheck": "cfront.typecheck_ms",
    "irgen": "cfront.irgen_ms",
    "validate": "cfront.validate_ms",
    "libc.bundle": "libc.bundle_ms",
    "link": "libc.link_ms",
    "analysis:callgraph": "analysis.callgraph_ms",
    "analysis:summaries": "analysis.summaries_ms",
    "analysis:clients": "analysis.clients_ms",
    "opt.elide": "opt.elide_ms",
    "opt.safe_o2": "opt.safe_o2_ms",
    "opt.speculate": "opt.speculate_ms",
    "prepare": "core.prepare_ms",
    "jit-compile": "core.jit_compile_ms",
    "execute": "core.execute_ms",
    "report": "core.report_ms",
    "cache:frontend": "cache.lookup_ms",
    "cache:prepare": "cache.lookup_ms",
    "cache:jit": "cache.lookup_ms",
    "cache:analysis": "cache.lookup_ms",
    "gen.generate": "gen.generate_ms",
    "service.submit": "service.submit_ms",
    # Split by the serve-gen workload into the slowest worker of each
    # batch and the supervisor's own overhead.
    "service.step": "service.step_ms",
    # The benchmark's host-speed calibration loop, not the program.
    "bench.calibrate": "obs.calibrate_ms",
}

# The recorder rounds start and duration to 0.1 us separately, so a
# child can appear to end a hair after its parent.
_SLACK_US = 0.25


def self_times(events) -> dict[str, float]:
    """Span name -> summed self time in ms, over one process's spans."""
    ordered = sorted(events, key=lambda event: (event["ts"], -event["dur"]))
    own: dict[str, float] = defaultdict(float)
    stack: list[list] = []  # [end, name, duration, covered by children]

    def close(entry) -> None:
        own[entry[1]] += max(0.0, entry[2] - entry[3]) / 1000.0

    for event in ordered:
        start, duration = event["ts"], event["dur"]
        while stack and stack[-1][0] <= start + _SLACK_US:
            close(stack.pop())
        if stack:
            stack[-1][3] += duration
        stack.append([start + duration, event["name"], duration, 0.0])
    for entry in stack:
        close(entry)
    return own


def attribute(result, own: dict[str, float]) -> float:
    """Add each span's self time to its layer's row; returns the ms
    attributed.  Spans of no known layer stay unattributed."""
    attributed = 0.0
    for name, ms in own.items():
        layer = LAYER_OF_SPAN.get(name)
        if layer is not None:
            result.add(layer, ms)
            attributed += ms
    return attributed


def _instruction_count(module) -> int:
    return sum(1 for function in module.functions.values()
               for _instruction in function.instructions())


class Tracer:
    """Spans and counts for the traced phases of one run."""

    def __init__(self):
        self.recorder = spans.SpanRecorder()
        # Keep every span: the recorder's default cap suits one program
        # run, not a benchmark run.
        self.recorder.MAX_SPANS = 1 << 24
        self.counts: dict[str, float] = defaultdict(float)
        self.phases: list[tuple[str, float, float]] = []
        self._patches: list[tuple] = []
        self._time_calls(pipeline, "optimized_clone", "opt.safe_o2")
        self._time_calls(speculate, "analyze_function", "opt.speculate")
        self._count_calls(parser, "parse", "cfront.tokens",
                          lambda args, _unit: len(args[0]))
        self._count_calls(irgen, "generate", "cfront.ir_instructions",
                          lambda _args, module: _instruction_count(module))

    def _time_calls(self, owner, attr: str, span_name: str) -> None:
        """Record ``span_name``, with the function's name as subject,
        around every call of ``owner.attr(function, ...)``."""
        original = getattr(owner, attr)

        def timed(function, *args, **kwargs):
            with spans.span(span_name, of=function.name):
                return original(function, *args, **kwargs)

        self._patches.append((owner, attr, original, timed))

    def _count_calls(self, owner, attr: str, counter: str, measure) -> None:
        original = getattr(owner, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            value = original(*args, **kwargs)
            counts[counter] += measure(args, value)
            return value

        self._patches.append((owner, attr, original, counted))

    @contextlib.contextmanager
    def phase(self, name: str):
        """Trace the block as one attribution phase."""
        spans.set_recorder(self.recorder)
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        started = time.perf_counter()
        try:
            yield
        finally:
            self.phases.append((name, started, time.perf_counter()))
            spans.set_recorder(None)
            for owner, attr, original, _wrapper in self._patches:
                setattr(owner, attr, original)

    def by_subject(self, span_name: str) -> dict[str, float]:
        """Subject (the span's ``of`` argument) -> summed ms."""
        totals: dict[str, float] = defaultdict(float)
        for event in self.recorder.events:
            if event["name"] == span_name:
                subject = (event.get("args") or {}).get("of", "?")
                totals[subject] += event["dur"] / 1000.0
        return totals

    def report(self, result, top: int = 5) -> None:
        """Per-layer rows: self times summed over the traced phases,
        each phase's wall time and unattributed remainder, the counts,
        and the slowest subjects of the set-up layers as notes."""
        for name, started, ended in self.phases:
            low, high = started * 1e6, ended * 1e6
            own = self_times(event for event in self.recorder.events
                             if low <= event["ts"] < high)
            wall = (ended - started) * 1000.0
            unattributed = wall - attribute(result, own)
            result.add(f"obs.{name}_wall_ms", wall)
            result.add(f"obs.{name}_unattributed_ms", unattributed)
            rows = sorted(own.items(), key=lambda item: -item[1])
            result.note(f"trace {name}: wall {wall:.1f} ms = "
                        + "".join(f"{span} {ms:.1f} + "
                                  for span, ms in rows)
                        + f"unattributed {unattributed:.1f}")
        for counter, value in self.counts.items():
            result.add(counter, value)
        result.set("obs.spans", len(self.recorder.events))
        # The two set-up costs found while sizing: one first-use safe-O2
        # clone (libc's printf core) and uncached elision per program.
        for span_name in ("opt.safe_o2", "opt.elide"):
            result.set(span_name + "_max_ms",
                       max(self.by_subject(span_name).values(), default=0.0))
        for span_name in ("opt.safe_o2", "opt.elide", "opt.speculate"):
            slowest = sorted(self.by_subject(span_name).items(),
                             key=lambda item: -item[1])[:top]
            if slowest:
                result.note(f"slowest {span_name}: " + ", ".join(
                    f"{subject} {ms:.0f} ms" for subject, ms in slowest))

    def write(self, path: str) -> None:
        spans.write_chrome_trace(path, self.recorder.events)


def phase(tracer: Tracer | None, name: str):
    """``tracer.phase(name)``, or nothing for an untraced run."""
    if tracer is None:
        return contextlib.nullcontext()
    return tracer.phase(name)
