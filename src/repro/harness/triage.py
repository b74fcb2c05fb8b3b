"""Crash triage: classify outcomes and deduplicate bug signatures.

The campaign's value is the *distinct* program bugs it surfaces, with
tool noise separated out.  Every completed job is sorted into exactly
one bucket, and detected bugs are keyed by a (kind, source location)
signature so the same root cause reported by hundreds of corpus
programs collapses into one line of the summary.
"""

from __future__ import annotations

import re

BUG = "bug"                    # the tool reported a program bug
CRASH = "crash"                # the program crashed (trap-visible)
OK = "ok"                      # clean exit, nothing found
TIMEOUT = "timeout"            # wall-clock watchdog killed the run
LIMIT = "limit"                # step budget or a resource quota hit
COMPILE_ERROR = "compile-error"  # program outside the supported subset
TOOL_ERROR = "tool-error"      # the tool failed; says nothing re program

CATEGORIES = (BUG, CRASH, OK, TIMEOUT, LIMIT, COMPILE_ERROR, TOOL_ERROR)


def triage_result(result: dict | None, *, timed_out: bool = False,
                  worker_failed: bool = False) -> str:
    """Classify one worker result (the dict produced by
    ``worker.serialize_result``, or None when no attempt produced one)."""
    if timed_out:
        return TIMEOUT
    if worker_failed or result is None:
        return TOOL_ERROR
    if result.get("compile_error"):
        return COMPILE_ERROR
    if result.get("internal_error"):
        return TOOL_ERROR
    if result.get("bugs"):
        return BUG
    if result.get("crashed"):
        return CRASH
    if result.get("limit_exceeded"):
        return LIMIT
    return OK


# Synthetic corpus files from repro.gen are named gen-<seed>.c (with
# any directory prefix); the generator keeps fault and allocation
# lines seed-independent, so collapsing the seed out of the filename
# makes equivalent planted bugs share one signature — a thousand-seed
# sweep grows the bug database by rows of *distinct* bugs only.
_GEN_FILENAME = re.compile(r"(?:[^\s@#:]*/)?gen-\d+\.c(?=:|$)")


def _normalize_site(site: str) -> str:
    return _GEN_FILENAME.sub("gen.c", site)


def bug_signature(bug: dict) -> str:
    """(kind, fault site, alloc site) — the dedup key for one reported
    bug.  The allocation site distinguishes faults at the same access
    line on objects from different origins (two real bugs), while the
    same root cause found via many programs still collapses."""
    location = bug.get("location")
    signature = (f"{bug.get('kind', '?')}@"
                 f"{_normalize_site(location) if location else '?'}")
    alloc_site = bug.get("alloc_site")
    if alloc_site:
        signature += f"#alloc@{_normalize_site(alloc_site)}"
    return signature


def signatures(result: dict | None) -> list[str]:
    if not result:
        return []
    seen: list[str] = []
    for bug in result.get("bugs", ()):
        sig = bug_signature(bug)
        if sig not in seen:
            seen.append(sig)
    return seen


def dedup_bugs(records: list[dict]) -> list[dict]:
    """Collapse per-program records into distinct bugs.

    Returns one entry per signature: the bug's kind/location, how many
    programs reported it, and which."""
    by_sig: dict[str, dict] = {}
    for record in records:
        result = record.get("result") or {}
        for bug in result.get("bugs", ()):
            sig = bug_signature(bug)
            entry = by_sig.get(sig)
            if entry is None:
                entry = by_sig[sig] = {
                    "signature": sig,
                    "kind": bug.get("kind"),
                    "location": bug.get("location"),
                    "alloc_site": bug.get("alloc_site"),
                    "free_site": bug.get("free_site"),
                    "message": bug.get("message"),
                    "count": 0,
                    "programs": [],
                }
            entry["count"] += 1
            if record.get("id") not in entry["programs"]:
                entry["programs"].append(record.get("id"))
    return sorted(by_sig.values(),
                  key=lambda e: (-e["count"], e["signature"]))


def summarize(records: list[dict]) -> dict:
    """Campaign summary: triage histogram, deduplicated bugs, rung
    histograms, and (when workers collected them) aggregated
    check/JIT/heap metrics."""
    from ..obs.metrics import aggregate_metrics
    histogram = {category: 0 for category in CATEGORIES}
    rungs: dict[str, int] = {}
    transitions = 0
    for record in records:
        histogram[record.get("triage", TOOL_ERROR)] += 1
        rung = record.get("rung")
        if rung:
            rungs[rung] = rungs.get(rung, 0) + 1
        transitions += len(record.get("rung_transitions") or ())
    distinct = dedup_bugs(records)
    summary = {
        "type": "summary",
        "programs": len(records),
        "triage": histogram,
        "distinct_bugs": len(distinct),
        "bugs": distinct,
        "rungs": rungs,
        "rung_transitions": transitions,
    }
    metrics = aggregate_metrics(
        [(record.get("result") or {}).get("metrics")
         for record in records])
    if metrics is not None:
        summary["metrics"] = metrics
    spans = _aggregate_spans(records)
    if spans is not None:
        summary["spans"] = spans
    return summary


def _aggregate_spans(records: list[dict]) -> dict | None:
    """Per-phase totals over every worker's span list: count and total
    wall time per span name (preprocess, parse, …, execute)."""
    phases: dict[str, list] = {}
    total_events = 0
    for record in records:
        result = record.get("result") or {}
        for event in result.get("spans") or ():
            total_events += 1
            name = event.get("name", "?")
            row = phases.get(name)
            duration_ms = event.get("dur", 0.0) / 1000.0
            if row is None:
                phases[name] = [1, duration_ms]
            else:
                row[0] += 1
                row[1] += duration_ms
    if not total_events:
        return None
    return {
        "events": total_events,
        "phases": {name: {"count": row[0],
                          "total_ms": round(row[1], 3)}
                   for name, row in sorted(phases.items())},
    }
