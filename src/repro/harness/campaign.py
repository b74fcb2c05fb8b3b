"""Campaign orchestration: corpus collection, resume, and the selftest.

``run_campaign`` is the one entry point behind ``repro hunt``, the §4.1
matrix isolation mode, and the CI selftest: collect programs, skip what
the checkpoint already covered, fan the rest over the worker pool, and
stream every outcome into the JSONL report.
"""

from __future__ import annotations

import os
import sys
import tempfile

from .faults import parse_faults
from .pool import WorkerPool, WorkTask
from .quotas import DEFAULT_TIMEOUT, Quotas
from .report import CampaignReport, campaign_fingerprint
from .triage import summarize


def collect_programs(paths: list[str]) -> list[tuple[str, str]]:
    """Expand directories (recursively, ``*.c``) and files into a
    deterministic ordered list of (job id, path) pairs."""
    files: list[str] = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, names in os.walk(path):
                dirs.sort()
                files.extend(os.path.join(root, name)
                             for name in sorted(names)
                             if name.endswith(".c"))
        else:
            files.append(path)
    programs: list[tuple[str, str]] = []
    used: dict[str, int] = {}
    for path in files:
        stem = os.path.splitext(os.path.basename(path))[0]
        count = used.get(stem, 0)
        used[stem] = count + 1
        job_id = stem if count == 0 else f"{stem}~{count + 1}"
        programs.append((job_id, os.path.abspath(path)))
    return programs


def _default_progress(done: int, total: int, record: dict) -> None:
    extra = ""
    if record.get("attempts", 1) > 1:
        extra += f", {record['attempts']} attempts"
    if record.get("rung_index"):
        extra += f", rung {record['rung']}"
    sigs = record.get("signatures")
    if sigs:
        extra += f": {'; '.join(sigs)}"
    print(f"[{done}/{total}] {record['id']}: {record['triage']}"
          f" ({record['duration_s']}s{extra})", file=sys.stderr)


def run_campaign(programs: list[tuple[str, str]], *,
                 tool: str = "safe-sulong",
                 options: dict | None = None,
                 quotas: Quotas | None = None,
                 jobs: int = 1, timeout: float | None = None,
                 retries: int = 2, backoff: float = 0.1,
                 ladder: bool = True, faults_spec: str | None = None,
                 report_path: str = "hunt-report.jsonl",
                 fresh: bool = False, progress=_default_progress,
                 collect_metrics: bool = True,
                 trace_spans: str | None = None,
                 gen_manifests: dict | None = None) -> dict:
    """Run every program through the hardened pool; returns the summary
    (also appended to the report).  ``options`` is the engine config's
    wire dict; ``quotas`` fills in the quotas it leaves out and sets
    the step budget.  ``collect_metrics`` makes each
    worker run with an enabled observer and ship its snapshot back, so
    the summary can aggregate check/JIT/heap totals across the campaign
    (counting costs a few percent per run — pass False to opt out).
    ``trace_spans`` makes each worker record pipeline spans; the merged
    Chrome trace (one pid track per job) is written to that path and
    per-phase totals land in ``summary["spans"]``.  ``gen_manifests``
    maps program basenames to repro.gen program manifests: a matching
    task carries the full (GEN_VERSION, seed, GenConfig) tuple in its
    payload, so its report record replays without regenerating under
    default knobs."""
    quotas = quotas or Quotas()
    if timeout is None:
        timeout = DEFAULT_TIMEOUT
    options = quotas.config(options).to_json()
    plan = parse_faults(faults_spec)

    tasks = []
    for index, (job_id, path) in enumerate(programs):
        payload = {"path": path, "filename": path,
                   "max_steps": quotas.max_steps}
        if gen_manifests:
            gen = gen_manifests.get(os.path.basename(path))
            if gen is not None:
                payload["gen"] = gen
        if collect_metrics:
            payload["collect_metrics"] = True
        if trace_spans:
            payload["trace_spans"] = True
        tasks.append(WorkTask(job_id, payload, tool=tool, options=options,
                              index=index))

    fingerprint = campaign_fingerprint(
        tool, options, quotas.max_steps, [job_id for job_id, _ in programs])
    with CampaignReport(report_path, fingerprint) as report:
        resumed = report.open(fresh=fresh)
        remaining = [task for task in tasks
                     if task.id not in report.completed]
        total = len(tasks)
        done = [len(report.previous_records)]

        def on_complete(record: dict) -> None:
            report.append(record)
            done[0] += 1
            if progress is not None:
                progress(done[0], total, record)

        pool = WorkerPool(jobs=jobs, timeout=timeout, retries=retries,
                          backoff=backoff, use_ladder=ladder,
                          fault_plan=plan)
        new_records = pool.run(remaining, on_complete=on_complete)
        all_records = report.previous_records + new_records
        summary = summarize(all_records)
        summary["resumed"] = resumed
        summary["skipped_completed"] = len(report.previous_records)
        summary["report"] = os.path.abspath(report_path)
        if trace_spans:
            summary["trace_spans"] = os.path.abspath(trace_spans)
            _write_campaign_trace(trace_spans, all_records)
        report.write_summary(summary)
    return summary


def _write_campaign_trace(path: str, records: list[dict]) -> None:
    """Merge every worker's spans into one Chrome trace; each job gets
    its own pid track (named after the job id via process_name)."""
    from ..obs.spans import merge_worker_spans, write_chrome_trace
    events: list[dict] = []
    for pid, record in enumerate(records, start=1):
        result = record.get("result") or {}
        spans = result.get("spans")
        if not spans:
            continue
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": record.get("id", f"job-{pid}")}})
        merge_worker_spans(events, spans, pid, label=record.get("id"))
    write_chrome_trace(path, events)


# ---------------------------------------------------------------------------
# Selftest: the harness exercising its own failure paths (CI smoke)
# ---------------------------------------------------------------------------

_SELFTEST_PROGRAMS = {
    "clean_exit": "int main(void) { return 0; }\n",
    "crash_retry": "int main(void) { return 0; }\n",
    "hang_inject": "int main(void) { return 0; }\n",
    "oob_bug": ("#include <stdlib.h>\n"
                "int main(void) {\n"
                "    int *p = malloc(4 * sizeof(int));\n"
                "    return p[4];\n"
                "}\n"),
    "uaf_bug": ("#include <stdlib.h>\n"
                "int main(void) {\n"
                "    int *p = malloc(sizeof(int));\n"
                "    *p = 1;\n"
                "    free(p);\n"
                "    return *p;\n"
                "}\n"),
    "spin_forever": "int main(void) { for (;;) { } }\n",
    "heap_hog": ("#include <stdlib.h>\n"
                 "int main(void) {\n"
                 "    for (;;) { void *p = malloc(65536); (void)p; }\n"
                 "}\n"),
}

# One real worker crash that succeeds on retry, one injected hang for
# the watchdog (faults are keyed by job id).
_SELFTEST_FAULTS = "crash@crash_retry,hang@hang_inject"

_SELFTEST_EXPECT = {
    "clean_exit": "ok",
    "crash_retry": "ok",
    "hang_inject": "timeout",
    "oob_bug": "bug",
    "uaf_bug": "bug",
    "spin_forever": "timeout",
    "heap_hog": "limit",
}


def selftest(timeout: float = 2.0, jobs: int = 2,
             verbose=None) -> tuple[bool, list[str]]:
    """End-to-end smoke of the hardened harness: a tiny corpus whose
    members hit every major path (clean, bug, watchdog timeout, heap
    quota, injected worker crash + retry, injected hang), asserting the
    report is complete and correctly triaged — including span export
    and provenance-keyed bug dedup.  Returns (ok, problems)."""
    import json

    problems: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-selftest-") as tmp:
        for name, source in sorted(_SELFTEST_PROGRAMS.items()):
            with open(os.path.join(tmp, name + ".c"), "w",
                      encoding="utf-8") as handle:
                handle.write(source)
        programs = collect_programs([tmp])
        report_path = os.path.join(tmp, "selftest-report.jsonl")
        trace_path = os.path.join(tmp, "selftest-trace.json")
        summary = run_campaign(
            programs,
            quotas=Quotas(max_steps=None, max_heap_bytes=4 * 1024 * 1024,
                          max_output_bytes=65536),
            jobs=jobs, timeout=timeout, retries=2, backoff=0.05,
            faults_spec=_SELFTEST_FAULTS, report_path=report_path,
            fresh=True, progress=_default_progress if verbose else None,
            trace_spans=trace_path)

        from .report import read_report
        records, _ = read_report(report_path)
        by_id = {record["id"]: record for record in records}
        for name, expected in _SELFTEST_EXPECT.items():
            record = by_id.get(name)
            if record is None:
                problems.append(f"{name}: missing from the report")
                continue
            if record["triage"] != expected:
                problems.append(f"{name}: triaged {record['triage']!r}, "
                                f"expected {expected!r}")
        crash_record = by_id.get("crash_retry")
        if crash_record and crash_record.get("attempts", 1) < 2:
            problems.append("crash_retry: injected crash was not retried")
        bug_record = by_id.get("oob_bug")
        if bug_record and not bug_record.get("signatures"):
            problems.append("oob_bug: no bug signature recorded")
        if summary.get("programs") != len(_SELFTEST_EXPECT):
            problems.append(
                f"summary covers {summary.get('programs')} programs, "
                f"expected {len(_SELFTEST_EXPECT)}")

        # Provenance dedup: the use-after-free signature must carry the
        # allocation site, i.e. dedup is (kind, fault site, alloc site).
        uaf = [bug for bug in summary.get("bugs", ())
               if bug.get("kind") == "use-after-free"]
        if not uaf:
            problems.append("uaf_bug: no deduplicated use-after-free entry")
        elif not uaf[0].get("alloc_site"):
            problems.append("uaf_bug: signature lacks an allocation site")
        elif "#alloc@" not in uaf[0].get("signature", ""):
            problems.append("uaf_bug: dedup signature is not "
                            "provenance-keyed")

        # Span export: the merged Chrome trace must exist, parse, and
        # contain pipeline phases from the workers.
        spans = summary.get("spans") or {}
        if not spans.get("events"):
            problems.append("span export: no spans aggregated in summary")
        try:
            with open(trace_path, "r", encoding="utf-8") as handle:
                events = json.load(handle)
        except (OSError, ValueError) as error:
            events = None
            problems.append(f"span export: trace unreadable: {error}")
        if events is not None:
            names = {event.get("name") for event in events}
            for expected_phase in ("parse", "execute"):
                if expected_phase not in names:
                    problems.append(f"span export: phase "
                                    f"{expected_phase!r} missing from "
                                    f"the merged trace")
    return not problems, problems
