"""`repro profile`: one observed run, rendered for humans.

Runs a program under an enabled observer (JIT on by default so the
compile timeline has something to show) and renders the snapshot as a
hot-function table, a check-overhead breakdown, the JIT timeline, and
heap pressure — the §4.2-style "where does the time go" view.
"""

from __future__ import annotations

from .metrics import check_breakdown
from .observer import Observer

DEFAULT_JIT_THRESHOLD = 3
HOT_FUNCTIONS = 12


def profile_source(source: str, config=None, *,
                   filename: str = "program.c",
                   argv: list[str] | None = None, stdin: bytes = b"",
                   max_steps: int | None = None,
                   trace_path: str | None = None, cache=None,
                   lines: bool = False, **options):
    """Run ``source`` with an enabled observer; returns
    ``(ExecutionResult, snapshot dict)``.  Engine options come as an
    EngineConfig (default: the JIT on) and/or keywords.  ``lines=True``
    switches on per-source-line attribution, which pins execution to
    the interpreter (exact counts, no JIT)."""
    from ..core.config import EngineConfig
    from ..core.engine import SafeSulong
    config = config or EngineConfig(jit_threshold=DEFAULT_JIT_THRESHOLD)
    config = config._replace(**options)
    observer = Observer(enabled=True, trace_path=trace_path, lines=lines)
    engine = SafeSulong(config, max_steps=max_steps, observer=observer,
                        cache=cache)
    try:
        result = engine.run_source(source, argv=argv, stdin=stdin,
                                   filename=filename)
    finally:
        observer.close()
    return result, observer.snapshot()


def hot_checks(snapshot: dict, results=(), top: int = 10) -> list:
    """Top-``top`` check sites by executed-check count from a
    lines-mode snapshot: ``(filename, line, checks, fired)`` rows,
    hottest first.  A site *fired* when a bug in ``results`` was
    detected at its source line."""
    fired = {(bug.location.filename, bug.location.line)
             for result in results
             for bug in getattr(result, "bugs", ()) or ()
             if bug.location is not None}
    rows = [(filename, line, checks, (filename, line) in fired)
            for filename, line, _instr, checks, _allocs
            in snapshot.get("lines", ()) if checks]
    rows.sort(key=lambda row: (-row[2], row[0], row[1]))
    return rows[:top]


def render_hot_checks(snapshot: dict, results=(), top: int = 10,
                      source: str = "", program: str = "") -> str:
    """Render the :func:`hot_checks` table with source attribution."""
    text_lines = source.splitlines()
    rows = hot_checks(snapshot, results, top)
    out = [f"== hot check sites: {program or 'program'} "
           f"(top {len(rows)}) =="]
    if not rows:
        out.append("  (no checks executed)")
        return "\n".join(out)
    out.append(f"  {'site':<24} {'checks':>12} {'status':<12} source")
    for filename, line, checks, fired in rows:
        site = f"{filename}:{line}"
        status = "FIRED" if fired else "never-fired"
        snippet = ""
        if filename == program and 1 <= line <= len(text_lines):
            snippet = text_lines[line - 1].strip()[:48]
        out.append(f"  {site:<24} {checks:>12,} {status:<12} {snippet}")
    out.append("  checks: executed null/bounds/lifetime checks; "
               "FIRED: one of them detected a bug")
    return "\n".join(out)


def _outcome(result) -> str:
    if result.bugs:
        return f"BUG: {result.bugs[0]}"
    if result.crashed:
        return f"crash: {result.crash_message}"
    if result.limit_exceeded:
        return f"limit: {result.crash_message}"
    if result.internal_error:
        return f"internal error: {result.internal_error}"
    return f"exit {result.status}"


def render_profile(result, snapshot: dict, program: str = "") -> str:
    counters = snapshot.get("counters", {})
    lines: list[str] = []
    title = program or "program"
    lines.append(f"== profile: {title} ==")
    lines.append(f"outcome: {_outcome(result)}")
    lines.append(f"interpreter steps: {snapshot.get('steps', 0):,}   "
                 f"instructions retired: "
                 f"{counters.get('instructions', 0):,}   "
                 f"calls: {counters.get('calls', 0):,}   "
                 f"intrinsic calls: {counters.get('intrinsic.calls', 0):,}")
    dropped = snapshot.get("events_dropped", 0) \
        or counters.get("events.dropped", 0)
    if dropped:
        from .observer import MAX_EVENTS
        lines.append(f"WARNING: {dropped:,} events dropped (bounded "
                     f"buffer of {MAX_EVENTS}); the event timeline "
                     "below is truncated")

    lines.append("")
    lines.append("-- safety checks (executed, by kind) --")
    breakdown = check_breakdown(counters)
    rows = [
        ("load (null+bounds)", counters.get("check.load.full", 0)),
        ("store (null+bounds)", counters.get("check.store.full", 0)),
        ("pointer arithmetic", counters.get("check.gep", 0)),
    ]
    lines.append(f"  {'kind':<22} {'executed':>12}")
    for kind, executed in rows:
        lines.append(f"  {kind:<22} {executed:>12,}")
    lines.append(f"  null checks executed: "
                 f"{breakdown['null_checks']:,}; bounds/lifetime "
                 f"checks executed: {breakdown['bounds_checks']:,}")

    lines.append("")
    lines.append("-- hot functions --")
    functions = snapshot.get("functions", [])
    if functions:
        lines.append(f"  {'function':<28} {'calls':>8} "
                     f"{'instructions':>14}  tier")
        for entry in functions[:HOT_FUNCTIONS]:
            tier = "jit" if entry.get("compiled") else "interp"
            lines.append(f"  {entry['name'][:28]:<28} "
                         f"{entry['calls']:>8,} "
                         f"{entry['instructions']:>14,}  {tier}")
        if len(functions) > HOT_FUNCTIONS:
            lines.append(f"  ... {len(functions) - HOT_FUNCTIONS} more")
    else:
        lines.append("  (no function activity recorded)")

    lines.append("")
    lines.append("-- JIT timeline --")
    jit = snapshot.get("jit", {})
    events = [event for event in snapshot.get("events", [])
              if event["event"] in ("jit-compile", "jit-bailout")]
    if events:
        for event in events:
            at = f"+{event['t'] * 1000.0:9.1f}ms"
            if event["event"] == "jit-compile":
                lines.append(
                    f"  {at}  compile {event['function']:<24} "
                    f"{event.get('compile_ms', 0):6.2f}ms  "
                    f"{event.get('code_bytes', 0):>7,} B")
            else:
                lines.append(f"  {at}  bailout {event['function']:<24} "
                             f"{event.get('reason', '?')}")
        lines.append(f"  total: {jit.get('compiled', 0)} compiled "
                     f"({jit.get('compile_s', 0.0) * 1000.0:.1f}ms, "
                     f"{jit.get('code_bytes', 0):,} B generated), "
                     f"{jit.get('bailouts', 0)} bailouts")
    else:
        lines.append("  (no compile activity — interpreter only)")

    lines.append("")
    lines.append("-- heap --")
    heap = snapshot.get("heap", {})
    lines.append(f"  allocations: {heap.get('allocs', 0):,}   "
                 f"frees: {heap.get('frees', 0):,}   "
                 f"live at exit: {heap.get('live_bytes', 0):,} B   "
                 f"high-water: {heap.get('peak_bytes', 0):,} B")

    hits = counters.get("cache.hit", 0)
    misses = counters.get("cache.miss", 0)
    rejects = counters.get("cache.reject", 0)
    stores = counters.get("cache.store", 0)
    if hits or misses or rejects or stores:
        from ..cache.store import CLASSES
        lines.append("")
        lines.append("-- compilation cache --")
        lines.append(f"  hits: {hits:,}   misses: {misses:,}   "
                     f"rejected: {rejects:,}   stored: {stores:,}")
        for artifact in CLASSES:
            row = [counters.get(f"cache.{artifact}.{outcome}", 0)
                   for outcome in ("hit", "miss", "reject", "store")]
            if any(row):
                lines.append(f"  {artifact:<9} hit {row[0]:,} / "
                             f"miss {row[1]:,} / reject {row[2]:,} / "
                             f"store {row[3]:,}")

    quotas = [event for event in snapshot.get("events", [])
              if event["event"] == "quota"]
    if quotas:
        lines.append("")
        lines.append("-- quota hits --")
        for event in quotas:
            lines.append(f"  +{event['t'] * 1000.0:9.1f}ms  "
                         f"{event.get('kind', '?')}: "
                         f"{event.get('message', '')}")
    return "\n".join(lines)
