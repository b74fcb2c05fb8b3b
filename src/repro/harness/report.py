"""Resumable JSONL campaign report with a checkpoint file.

The report is append-only JSONL: one ``{"type": "result", ...}`` object
per completed program, then one ``{"type": "summary", ...}`` object when
the campaign finishes.  Next to it lives a checkpoint file
(``<report>.ckpt``): a header line holding the campaign fingerprint,
then one completed job id per line, flushed after every entry.

Killing the harness at any instant loses at most the in-flight
programs: re-invoking the same campaign reads the checkpoint, verifies
the fingerprint (same tool, options, quotas, and job list — operational
knobs like ``--jobs`` may change between invocations), skips every
completed entry, and appends to the same report.

The report line is fsynced *before* the checkpoint line, so a crash
between the two appends leaves a result the checkpoint does not know
about.  Resume reconciles by task id in both directions: a report
record missing its checkpoint line is trusted (the record is the
durable fact; its checkpoint line is backfilled rather than the
program re-run and the line duplicated), while a checkpoint id whose
report line was lost re-runs.  Either way the resumed report holds
exactly one result per id and the summary counts each program once.
"""

from __future__ import annotations

import hashlib
import json
import os

from ..core.config import EngineConfig
from .faults import crash_point


def campaign_fingerprint(tool: str, options: dict, max_steps: int | None,
                         job_ids: list[str]) -> str:
    """Identify a campaign by what can change its records; ``options``
    is the engine config's wire dict."""
    blob = json.dumps({
        "tool": tool,
        "options": EngineConfig.from_json(options).fingerprint(),
        "max_steps": max_steps,
        "jobs": sorted(job_ids),
    }, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class CampaignReport:
    """Streaming writer for the report + checkpoint pair."""

    def __init__(self, path: str, fingerprint: str):
        self.path = path
        self.checkpoint_path = path + ".ckpt"
        self.fingerprint = fingerprint
        self._report = None
        self._checkpoint = None
        self.completed: set[str] = set()
        self.previous_records: list[dict] = []
        self._checkpoint_backfill: list[str] = []

    # -- open / resume ------------------------------------------------------------

    def open(self, fresh: bool = False) -> bool:
        """Open for writing.  Returns True when resuming a matching
        interrupted campaign (``self.completed`` holds the done ids),
        False when starting clean."""
        resuming = not fresh and self._load_checkpoint()
        mode = "a" if resuming else "w"
        if resuming:
            self._load_previous_records()
        self._report = open(self.path, mode, encoding="utf-8")
        self._checkpoint = open(self.checkpoint_path, mode,
                                encoding="utf-8")
        if not resuming:
            self.completed = set()
            self.previous_records = []
            self._checkpoint.write(json.dumps(
                {"fingerprint": self.fingerprint, "version": 1}) + "\n")
            self._checkpoint.flush()
        elif self._checkpoint_backfill:
            # Results that hit the report but died before their
            # checkpoint line: adopt them instead of re-running (which
            # would append a duplicate result and double-count).
            for job_id in self._checkpoint_backfill:
                self._checkpoint.write(job_id + "\n")
            self._checkpoint.flush()
            os.fsync(self._checkpoint.fileno())
            self._checkpoint_backfill = []
        return resuming

    def _load_checkpoint(self) -> bool:
        try:
            with open(self.checkpoint_path, "r",
                      encoding="utf-8") as handle:
                lines = handle.read().splitlines()
        except OSError:
            return False
        if not lines:
            return False
        try:
            header = json.loads(lines[0])
        except ValueError:
            return False
        if header.get("fingerprint") != self.fingerprint:
            return False
        self.completed = {line for line in lines[1:] if line}
        return True

    def _load_previous_records(self) -> None:
        """Pull the completed runs' records back in so the final summary
        covers the whole campaign, not just the resumed tail."""
        try:
            self.previous_records, _summary = read_report(self.path)
        except OSError:
            self.previous_records = []
        done = {record["id"] for record in self.previous_records}
        # The intact report lines are the durable truth.  Ids the
        # checkpoint missed (crash between the two appends) get their
        # checkpoint line backfilled in open(); checkpoint ids with no
        # surviving report line must re-run.
        self._checkpoint_backfill = sorted(done - self.completed)
        self.completed = done

    # -- streaming writes ---------------------------------------------------------

    def append(self, record: dict) -> None:
        self._report.write(json.dumps(record) + "\n")
        self._report.flush()
        os.fsync(self._report.fileno())
        # The crash window the resume reconciliation covers: the
        # report line is durable, the checkpoint line is not.
        crash_point("report-append", record["id"])
        self._checkpoint.write(record["id"] + "\n")
        self._checkpoint.flush()
        os.fsync(self._checkpoint.fileno())
        self.completed.add(record["id"])

    def write_summary(self, summary: dict) -> None:
        self._report.write(json.dumps(summary) + "\n")
        self._report.flush()

    def close(self) -> None:
        for handle in (self._report, self._checkpoint):
            if handle is not None:
                handle.close()
        self._report = self._checkpoint = None

    def __enter__(self) -> "CampaignReport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def format_summary_metrics(summary: dict) -> list[str]:
    """Human-readable lines for the summary's aggregated observability
    metrics (empty when the campaign ran without metrics collection)."""
    metrics = summary.get("metrics")
    if not metrics:
        return []
    checks = metrics.get("checks", {})
    jit = metrics.get("jit", {})
    heap = metrics.get("heap", {})
    lines = [
        f"metrics ({metrics.get('programs_with_metrics', 0)} programs "
        f"observed): {metrics.get('instructions', 0):,} instructions, "
        f"{metrics.get('calls', 0):,} calls",
        f"  checks: {checks.get('null_checks', 0):,} null + "
        f"{checks.get('bounds_checks', 0):,} bounds executed",
        f"  jit: {jit.get('compiled', 0)} compiled "
        f"({jit.get('compile_s', 0.0) * 1000.0:.1f}ms, "
        f"{jit.get('code_bytes', 0):,} B), "
        f"{jit.get('bailouts', 0)} bailouts",
        f"  heap: {heap.get('allocs', 0):,} allocs / "
        f"{heap.get('frees', 0):,} frees, peak "
        f"{heap.get('peak_bytes_max', 0):,} B (max per program)",
    ]
    cache = metrics.get("cache") or {}
    if any(cache.values()):
        lines.append(
            f"  cache: {cache.get('hits', 0):,} hits / "
            f"{cache.get('misses', 0):,} misses, "
            f"{cache.get('rejects', 0):,} rejected, "
            f"{cache.get('stores', 0):,} stored")
    rungs = summary.get("rungs")
    if rungs:
        histogram = ", ".join(f"{name}: {count}"
                              for name, count in sorted(rungs.items()))
        lines.append(f"  rungs: {histogram} "
                     f"({summary.get('rung_transitions', 0)} "
                     f"transitions)")
    spans = summary.get("spans")
    if spans:
        phases = spans.get("phases") or {}
        hot = sorted(phases.items(),
                     key=lambda item: -item[1].get("total_ms", 0.0))[:4]
        rendered = ", ".join(
            f"{name} {row.get('total_ms', 0.0):.0f}ms"
            f"×{row.get('count', 0)}" for name, row in hot)
        lines.append(f"  spans: {spans.get('events', 0):,} events"
                     + (f"; hottest: {rendered}" if rendered else ""))
        if summary.get("trace_spans"):
            lines.append(f"  trace: {summary['trace_spans']}")
    return lines


def read_report(path: str) -> tuple[list[dict], dict | None]:
    """Read a report back: (last result record per id, last summary).
    The one reader of hunt reports: campaign resume, the selftests and
    ``repro explain`` all use it.  A line that does not parse — the torn
    tail a killed hunt leaves — is a result never fully written, and is
    skipped."""
    records: dict[str, dict] = {}
    summary = None
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if record.get("type") == "result" and record.get("id"):
                records[record["id"]] = record
            elif record.get("type") == "summary":
                summary = record
    return list(records.values()), summary
