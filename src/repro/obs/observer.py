"""The Observer: counter + event collection for one engine run.

Counters are a plain ``defaultdict(int)`` — hot paths that were
specialized for an enabled observer increment dictionary slots
directly (``counters["check.load.full"] += 1``), which is the cheapest
thing Python can do short of not counting at all.  Events are
timestamped dicts (relative to observer creation) kept in a bounded
list and optionally mirrored to a JSONL trace sink.

Counter key vocabulary (the profile renderer groups on these):

* ``check.load.full`` / ``check.store.full`` — accesses, each of
  which runs the full pointer check (NULL + kind dispatch) plus the
  object-level bounds/lifetime check (a counting run plans no
  speculative loop, so every access is counted here);
* ``check.gep`` — pointer arithmetic, which dispatches on what it
  steps from;
* ``instructions`` — IR instructions retired (block steps +
  terminator, counted per block iteration);
* ``calls`` — function activations (both tiers);
* ``intrinsic.calls`` — direct calls that resolved to a libc
  intrinsic rather than a defined function;
* ``icall.hit`` / ``icall.mega.hit`` / ``icall.miss`` — indirect-call
  inline-cache outcomes (2-entry polymorphic cache hit, megamorphic
  dict fallback hit, full resolution);
* ``events.dropped`` — events discarded because the bounded event
  buffer (``MAX_EVENTS``) was full; nonzero means the event list (and
  any downstream trace view) is truncated, which ``repro profile``
  surfaces;
* ``cache.hit`` / ``cache.miss`` / ``cache.reject`` / ``cache.store``
  — compilation-cache outcomes, plus per-artifact-class variants
  ``cache.<frontend|analysis>.<outcome>``;
* ``service.*`` — bug-hunting-service health (``repro serve``):
  ``service.complete`` / ``service.bugs`` (tasks finished, tasks that
  found a bug), ``service.lease.expired`` (redeliveries after a dead
  or wedged holder), ``service.worker.restart`` (per-task worker
  respawns), ``service.restart`` / ``service.breaker.open``
  (batch-level supervision), ``service.shed`` (submissions rejected
  by admission control), ``service.degrade`` / ``service.promote``
  (service-wide rung moves), ``service.cache.pruned``, and
  ``service.fault.*`` (injected service faults taken).

Event kinds: ``jit-compile``, ``jit-bailout``, ``quota``,
``cache-hit`` / ``cache-miss`` / ``cache-reject`` (artifact class, key
prefix, and tier of each compilation-cache lookup), and
``rung-transition`` (emitted by the harness pool for per-task ladders
and by the service supervisor with ``scope="service"`` for
service-wide moves).  The service adds ``lease-expired``,
``service-restart``, and ``breaker-open``.
"""

from __future__ import annotations

import atexit
import json
import time
from collections import defaultdict

MAX_EVENTS = 1024


class Observer:
    """Collects counters and events for one (or several) engine runs.

    ``enabled=False`` constructs an inert observer: attaching it to an
    engine must leave the specialized fast paths untouched — that is
    the configuration ``BENCH_obs.json`` certifies at <3% overhead.
    """

    __slots__ = ("enabled", "counters", "events", "events_dropped",
                 "t0", "trace_path", "_trace_handle",
                 "functions", "heap", "steps",
                 "lines", "line_counters", "call_edges",
                 "icall_targets", "block_trace", "recorder")

    def __init__(self, enabled: bool = True,
                 trace_path: str | None = None,
                 lines: bool = False,
                 block_trace: bool = False,
                 block_window: int | None = None):
        self.enabled = enabled
        self.counters = defaultdict(int)
        self.events: list[dict] = []
        self.events_dropped = 0
        self.t0 = time.perf_counter()
        self.trace_path = trace_path
        # Opened eagerly so an event-free run still leaves a (valid,
        # empty) trace file rather than nothing.  The atexit hook makes
        # the sink crash-tolerant: events are flushed per write, and the
        # handle is closed even if the process dies mid-run.
        self._trace_handle = open(trace_path, "a", encoding="utf-8") \
            if (trace_path and enabled) else None
        if self._trace_handle is not None:
            atexit.register(self.close)
        self.functions: list[dict] = []
        self.heap: dict = {}
        self.steps = 0
        # Source-line attribution (``repro profile --lines``): opt-in —
        # it wraps every located instruction with a list increment and
        # pins execution to the interpreter, so it never rides along on
        # the default profiling path.  line_counters maps
        # (filename, line) -> [instructions, checks, allocations];
        # call_edges maps (caller, callee) -> count.
        self.lines = lines and enabled
        self.line_counters = defaultdict(lambda: [0, 0, 0])
        self.call_edges = defaultdict(int)
        # Indirect-call dispatch: id(call site) -> target function
        # names observed at runtime.  Recorded in the inline cache's
        # *miss* path only (once per distinct (site, target) pair), so
        # the hot dispatch path is untouched.  The static call graph's
        # points-to resolution must cover every entry — the
        # differential test in tests/analysis pins that.
        self.icall_targets = defaultdict(set)
        # Basic-block recording (``repro explain``): like ``lines``,
        # opt-in and interpreter-pinning.  A disabled observer carries
        # no recorder, so the engine specializes the hook away.
        self.block_trace = block_trace and enabled
        if self.block_trace:
            from .slices import DEFAULT_WINDOW, BlockRecorder
            self.recorder = BlockRecorder(
                window=block_window or DEFAULT_WINDOW)
        else:
            self.recorder = None

    # -- events -------------------------------------------------------------------

    def emit(self, event_kind: str, **fields) -> None:
        # First parameter is deliberately not ``kind``: event payloads
        # carry a ``kind=`` field of their own (e.g. quota events).
        if not self.enabled:
            return
        event = {"event": event_kind,
                 "t": round(time.perf_counter() - self.t0, 6)}
        event.update(fields)
        if len(self.events) < MAX_EVENTS:
            self.events.append(event)
        else:
            self.events_dropped += 1
            self.counters["events.dropped"] += 1
        if self._trace_handle is not None:
            json.dump(event, self._trace_handle)
            self._trace_handle.write("\n")
            self._trace_handle.flush()

    def count(self, key: str, n: int = 1) -> None:
        if self.enabled:
            self.counters[key] += n

    def close(self) -> None:
        if self._trace_handle is not None:
            self._trace_handle.close()
            self._trace_handle = None
            try:
                atexit.unregister(self.close)
            except Exception:
                pass

    # -- end-of-run capture -------------------------------------------------------

    def record_run(self, runtime) -> None:
        """Capture per-function and heap state at the end of a run (the
        engine calls this from its boundary, on every exit path).  One
        observer may watch several runs — e.g. the whole §4.1 matrix —
        so function rows merge by name and heap figures accumulate
        (peak takes the max)."""
        if not self.enabled:
            return
        self.steps += runtime.steps
        merged = {entry["name"]: entry for entry in self.functions}
        for prepared in runtime.prepared.values():
            if prepared.call_count == 0:
                continue
            entry = merged.get(prepared.name)
            if entry is None:
                merged[prepared.name] = {
                    "name": prepared.name,
                    "calls": prepared.call_count,
                    "instructions": prepared.obs_instructions[0],
                    "compiled": prepared.compiled is not None,
                }
            else:
                entry["calls"] += prepared.call_count
                entry["instructions"] += prepared.obs_instructions[0]
                entry["compiled"] = (entry["compiled"]
                                     or prepared.compiled is not None)
        self.functions = sorted(
            merged.values(), key=lambda f: (-f["instructions"], f["name"]))
        meter = runtime.heap_meter
        if meter is not None:
            heap = self.heap
            self.heap = {
                "allocs": heap.get("allocs", 0) + meter.alloc_count,
                "frees": heap.get("frees", 0) + meter.free_count,
                "live_bytes": heap.get("live_bytes", 0) + meter.live,
                "peak_bytes": max(heap.get("peak_bytes", 0), meter.peak),
            }

    # -- export -------------------------------------------------------------------

    def jit_summary(self) -> dict:
        compiled = bailouts = 0
        compile_s = 0.0
        code_bytes = 0
        for event in self.events:
            if event["event"] == "jit-compile":
                compiled += 1
                compile_s += event.get("compile_ms", 0.0) / 1000.0
                code_bytes += event.get("code_bytes", 0)
            elif event["event"] == "jit-bailout":
                bailouts += 1
        return {"compiled": compiled, "bailouts": bailouts,
                "compile_s": round(compile_s, 6),
                "code_bytes": code_bytes}

    def snapshot(self) -> dict:
        """JSON-safe view of everything collected; this is what
        ``--metrics`` writes and what workers ship back to the pool."""
        data = {
            "enabled": self.enabled,
            "counters": dict(sorted(self.counters.items())),
            "steps": self.steps,
            "heap": dict(self.heap),
            "jit": self.jit_summary(),
            "functions": list(self.functions),
            "events": list(self.events),
            "events_dropped": self.events_dropped,
        }
        if self.recorder is not None:
            data["block_trace"] = {
                "blocks_entered": self.recorder.steps,
                "unique_blocks": len(self.recorder.visits),
            }
        if self.icall_targets:
            data["icall_targets"] = [
                [str(site), sorted(targets)]
                for site, targets in sorted(self.icall_targets.items())]
        if self.lines:
            data["lines"] = [
                [filename, line, row[0], row[1], row[2]]
                for (filename, line), row
                in sorted(self.line_counters.items())]
            data["call_edges"] = [
                [caller, callee, count]
                for (caller, callee), count
                in sorted(self.call_edges.items())]
        return data
