"""Worker-process entry point: run exactly one program, report JSON.

Invoked by the pool as ``python -m repro.harness.worker JOBFILE``; the
job file holds one JSON object (see :func:`run_job`).  The worker prints
a single JSON line to stdout and exits 0 — *any* other behaviour
(nonzero exit, unparseable output, no output) is treated by the pool as
a worker crash and fed to the retry/degradation machinery.  The process
boundary is the isolation guarantee: nothing a hostile program does to
this interpreter — segfault-grade internal errors, runaway allocation,
wedged loops — can touch the campaign or its sibling workers.

A job is a *job spec*, as are service tasks and replay manifests:
:func:`locate_program` is the one place that decides which program and
inputs a spec names.  It lives here because every worker needs it.
"""

from __future__ import annotations

import base64
import hashlib
import json
import sys
import traceback
from typing import NamedTuple

from ..core.engine import ExecutionResult
from . import faults

# Keep captured program output in the report bounded even when the
# engine-side output quota is disabled.
MAX_CAPTURED_OUTPUT = 4 * 1024 * 1024

# Worker jobs, pool payloads, service tasks and replay manifests are
# all job specs.  One names its program by one of PROGRAM_KEYS, tried in
# this order; SPEC_KEYS adds the program's name, inputs and step budget,
# which is all a service submission may set.
PROGRAM_KEYS = ("source", "corpus_entry", "path")
SPEC_KEYS = PROGRAM_KEYS + ("filename", "argv", "stdin_b64", "vfs_b64",
                            "max_steps")


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
        "bugs": [bug.to_dict() for bug in result.bugs],
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
    """Rebuild a (lightweight) ExecutionResult from a worker's JSON: no
    runtime is attached, and bug locations stay strings."""
    from ..core.errors import BugReport
    detector = data.get("detector", "?")
    bugs = [BugReport.from_dict(bug, detector)
            for bug in data.get("bugs", ())]
    return ExecutionResult(
        detector, status=data.get("status"),
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


class ProgramError(Exception):
    """A job spec does not locate its program."""


class ProgramMismatch(ProgramError):
    """The located program is not the recorded one (digest mismatch)."""


class Program(NamedTuple):
    """A job's program and inputs, as :meth:`ToolRunner.run` takes them."""
    source: str
    filename: str
    argv: list | None
    stdin: bytes
    vfs: dict


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def locate_program(spec: dict) -> Program:
    """The one rule for which program and inputs a job spec names.

    The program is the inline ``source``; else the ``corpus_entry``,
    whose own name, argv, stdin and files come with it; else the file at
    ``path``, regenerated from the recorded ``gen`` tuple only when the
    file is gone or fails its digest.  It is named ``filename``, else
    its path, else ``program.c``.  A spec that records
    ``source_sha256`` must locate exactly that program."""
    filename = spec.get("filename") or spec.get("path") or "program.c"
    argv = spec.get("argv")
    stdin = base64.b64decode(spec.get("stdin_b64") or "")
    vfs = {name: base64.b64decode(data)
           for name, data in (spec.get("vfs_b64") or {}).items()}
    source, origin = spec.get("source"), "the supplied source"
    if source is None and spec.get("corpus_entry"):
        from ..corpus.manifest import by_name
        try:
            entry = by_name(spec["corpus_entry"])
        except KeyError:
            raise ProgramError(f"unknown corpus entry "
                               f"{spec['corpus_entry']!r}") from None
        source, origin = entry.source(), f"corpus entry {entry.name!r}"
        filename, argv, stdin, vfs = (entry.name + ".c", entry.argv,
                                      entry.stdin, entry.vfs)
    elif source is None:
        source, origin = _read_or_regenerate(spec)
    problem = _mismatch(source, spec, origin)
    if problem:
        raise ProgramMismatch(problem)
    return Program(source, filename, argv, stdin, vfs)


def _mismatch(source: str, spec: dict, origin: str) -> str | None:
    """Why ``source`` is not the program ``spec`` recorded, if it is not."""
    want = spec.get("source_sha256")
    if want is None:
        return None
    have = source_digest(source)
    if have == want:
        return None
    return (f"{origin} does not match the recorded program: "
            f"sha256 {have[:16]}… != recorded {want[:16]}…")


def _read_or_regenerate(spec: dict) -> tuple[str, str]:
    path, gen = spec.get("path"), spec.get("gen") or {}
    problem = ("the spec locates no program: no source, corpus entry, "
               "path or gen tuple")
    if path:
        try:
            with open(path, "r", encoding="utf-8",
                      errors="replace") as handle:
                text = handle.read()
        except OSError as error:
            problem = f"cannot read {path}: {error.strerror or error}"
        else:
            if gen.get("seed") is None or not _mismatch(text, spec, path):
                return text, path
    if gen.get("seed") is None:
        raise ProgramError(problem)
    from dataclasses import fields
    from ..gen.generator import GEN_VERSION, GenConfig, generate
    version = gen.get("version")
    if version is not None and version != GEN_VERSION:
        raise ProgramMismatch(
            f"program was generated by repro.gen v{version}; this engine "
            f"has v{GEN_VERSION} — regeneration would not reproduce it")
    known = {field.name for field in fields(GenConfig)}
    config = GenConfig(**{key: value for key, value
                          in (gen.get("config") or {}).items()
                          if key in known})
    return generate(gen["seed"], config).source, "the regenerated program"


def run_job(job: dict) -> dict:
    from ..cfront.errors import CompileError
    from ..ir.module import LinkError
    from ..tools import make_runner

    faults.apply_worker_fault(job.get("fault"), job)
    tool = job.get("tool", "safe-sulong")
    observer = None
    if job.get("collect_metrics") and tool == "safe-sulong":
        from ..obs.observer import Observer
        observer = Observer(enabled=True)
    recorder = None
    if job.get("trace_spans"):
        from ..obs.spans import SpanRecorder, set_recorder
        recorder = SpanRecorder()
        set_recorder(recorder)
    runner = make_runner(tool, job.get("options"), observer=observer)
    try:
        program = locate_program(job)
    except ProgramError as error:
        return {"compile_error": str(error), "detector": tool,
                "detected": False}
    try:
        result = runner.run(**program._asdict(),
                            max_steps=job.get("max_steps"))
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
        data["static_findings"] = _prescreen(program.source,
                                             program.filename, runner.cache)
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
