"""Worker-process entry point: run exactly one program, report JSON.

Invoked by the pool as ``python -m repro.harness.worker JOBFILE``; the
job file holds one JSON object (see :func:`run_job`).  The worker prints
a single JSON line to stdout and exits 0 — *any* other behaviour
(nonzero exit, unparseable output, no output) is treated by the pool as
a worker crash and fed to the retry/degradation machinery.  The process
boundary is the isolation guarantee: nothing a hostile program does to
this interpreter — segfault-grade internal errors, runaway allocation,
wedged loops — can touch the campaign or its sibling workers.
"""

from __future__ import annotations

import base64
import json
import sys
import traceback

from ..core.engine import ExecutionResult
from . import faults

# Keep captured program output in the report bounded even when the
# engine-side output quota is disabled.
MAX_CAPTURED_OUTPUT = 4 * 1024 * 1024


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def serialize_result(result: ExecutionResult,
                     metrics: dict | None = None) -> dict:
    from ..tools import detected
    stdout = bytes(result.stdout)
    stderr = bytes(result.stderr)
    data = {
        "detector": result.detector,
        "status": result.status,
        "detected": detected(result),
        "bugs": [{
            "kind": bug.kind,
            "message": bug.message,
            "location": str(bug.location) if bug.location else None,
            "access": bug.access,
            "memory_kind": bug.memory_kind,
            "direction": bug.direction,
            "alloc_site": str(bug.alloc_site) if bug.alloc_site else None,
            "free_site": str(bug.free_site) if bug.free_site else None,
            "stack": [[function, str(loc) if loc else None]
                      for function, loc in (bug.stack or [])],
            "object_label": bug.object_label,
            "object_size": bug.object_size,
        } for bug in result.bugs],
        "crashed": result.crashed,
        "crash_message": result.crash_message,
        "limit_exceeded": result.limit_exceeded,
        "timed_out": result.timed_out,
        "internal_error": result.internal_error,
        "stdout_len": len(stdout),
        "stderr_len": len(stderr),
        "stdout_b64": _b64(stdout[:MAX_CAPTURED_OUTPUT]),
        "stderr_b64": _b64(stderr[:MAX_CAPTURED_OUTPUT]),
        "stdout_truncated": len(stdout) > MAX_CAPTURED_OUTPUT,
        "stderr_truncated": len(stderr) > MAX_CAPTURED_OUTPUT,
    }
    if metrics is not None:
        data["metrics"] = metrics
    return data


def deserialize_result(data: dict) -> ExecutionResult:
    """Rebuild a (lightweight) ExecutionResult from a worker's JSON.

    Bug locations come back as strings in the record's ``signatures``;
    the reconstructed BugReport keeps kind/message/access metadata but
    not a structured SourceLocation, and there is no runtime attached.
    """
    from ..core.errors import BugReport
    bugs = [BugReport(bug.get("kind", "?"), bug.get("message", ""),
                      access=bug.get("access"),
                      memory_kind=bug.get("memory_kind"),
                      direction=bug.get("direction"),
                      detector=data.get("detector", "?"),
                      stack=[(frame[0], frame[1]) for frame
                             in bug.get("stack") or []],
                      alloc_site=bug.get("alloc_site"),
                      free_site=bug.get("free_site"),
                      object_label=bug.get("object_label"),
                      object_size=bug.get("object_size"))
            for bug in data.get("bugs", ())]
    return ExecutionResult(
        data.get("detector", "?"), status=data.get("status"),
        stdout=base64.b64decode(data.get("stdout_b64", "")),
        stderr=base64.b64decode(data.get("stderr_b64", "")),
        bugs=bugs, crashed=bool(data.get("crashed")),
        crash_message=data.get("crash_message", ""),
        limit_exceeded=bool(data.get("limit_exceeded")),
        timed_out=bool(data.get("timed_out")),
        internal_error=data.get("internal_error"))


def _limit_result(tool: str, message: str) -> dict:
    return serialize_result(ExecutionResult(
        tool, limit_exceeded=True, crash_message=message))


def _load_source(job: dict) -> tuple[str, str, dict]:
    """Resolve the program: inline source, a file path, or a corpus
    entry by name.  Returns (source, filename, extra-run-kwargs)."""
    if job.get("corpus_entry"):
        from ..corpus.manifest import ENTRIES
        for entry in ENTRIES:
            if entry.name == job["corpus_entry"]:
                return entry.source(), entry.name + ".c", {
                    "argv": entry.argv, "stdin": entry.stdin,
                    "vfs": entry.vfs}
        raise ValueError(f"unknown corpus entry {job['corpus_entry']!r}")
    if job.get("source") is not None:
        source = job["source"]
        filename = job.get("filename") or "program.c"
    else:
        path = job["path"]
        with open(path, "r", encoding="utf-8", errors="replace") as handle:
            source = handle.read()
        filename = path
    argv = job.get("argv")
    stdin = base64.b64decode(job.get("stdin_b64", ""))
    vfs = {name: base64.b64decode(data)
           for name, data in (job.get("vfs_b64") or {}).items()}
    return source, filename, {"argv": argv, "stdin": stdin, "vfs": vfs}


def run_job(job: dict) -> dict:
    from ..cfront.errors import CompileError
    from ..ir.module import LinkError
    from ..tools import make_runner

    faults.apply_worker_fault(job.get("fault"), job)
    tool = job.get("tool", "safe-sulong")
    observer = None
    if job.get("collect_metrics") and tool == "safe-sulong":
        from ..obs import Observer
        observer = Observer(enabled=True)
    recorder = None
    if job.get("trace_spans"):
        from ..obs.spans import SpanRecorder, set_recorder
        recorder = SpanRecorder()
        set_recorder(recorder)
    runner = make_runner(tool, job.get("options"), observer=observer)
    try:
        source, filename, run_kwargs = _load_source(job)
    except (OSError, UnicodeError) as error:
        return {"compile_error": f"cannot read program: {error}",
                "detector": tool, "detected": False}
    try:
        result = runner.run(source, max_steps=job.get("max_steps"),
                            filename=filename, **run_kwargs)
    except (CompileError, LinkError) as error:
        # The *program* is outside the supported language subset; that is
        # an input problem, not a tool failure — no retry, no ladder.
        data = {"compile_error": str(error), "detector": tool,
                "detected": False}
        if recorder is not None:
            data["spans"] = recorder.snapshot()
        return data
    data = serialize_result(
        result, metrics=observer.snapshot() if observer else None)
    if tool == "safe-sulong" and runner.config.prescreen:
        data["static_findings"] = _prescreen(source, filename, runner.cache)
    if recorder is not None:
        data["spans"] = recorder.snapshot()
        data["spans_dropped"] = recorder.spans_dropped
    return data


def _prescreen(source: str, filename: str, cache) -> list:
    """Interprocedural lint findings for the campaign record.  The
    prescreen is advisory — any analysis failure degrades to an empty
    report entry, never to a failed job."""
    try:
        from ..analysis import lint_source
        return [d.as_dict() for d in lint_source(
            source, filename=filename, cache=cache)]
    except Exception as error:
        return [{"error": f"prescreen failed: {error}"}]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.harness.worker JOBFILE",
              file=sys.stderr)
        return 2
    if argv[0] == "-":
        job = json.loads(sys.stdin.read())
    else:
        with open(argv[0], "r", encoding="utf-8") as handle:
            job = json.load(handle)
    try:
        payload = {"ok": True, "result": run_job(job)}
    except MemoryError as exhausted:
        # Mirrors the engine-boundary conversion: running out of host
        # memory is a bounded-resource stop, not a tool crash.
        payload = {"ok": True, "result": _limit_result(
            job.get("tool", "safe-sulong"),
            f"host memory exhausted: {exhausted or 'MemoryError'}")}
    except BaseException as error:  # noqa: BLE001 — the whole point
        payload = {"ok": False,
                   "error_type": type(error).__name__,
                   "error": traceback.format_exc(limit=32)[-4000:]}
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
