"""Replay manifests: deterministic record-replay for bug records.

A **replay manifest** is a small JSON object that fully determines one
engine run: the exact program (source digest, plus the ``(GEN_VERSION,
seed, GenConfig)`` tuple for generated programs so replay never depends
on regenerating with default knobs), the tool and its semantic options
(tier configuration and resource quotas — plumbing like cache paths is
deliberately excluded), the program inputs (argv/stdin/vfs), the step
budget, any injected harness fault, and the engine version that
recorded it.  The harness pool stamps one on every report record and
the service stores it with every completed task, so any campaign- or
service-found bug replays exactly from its JSONL line.

What a manifest does *not* capture — wall-clock time, host platform,
compilation-cache state, worker scheduling — is exactly the set of
things the managed engine keeps semantics-independent; DESIGN.md §6
spells out the guarantee.

:func:`replay` re-executes a manifest in-process, pinned to the
reference interpreter tier (jit/speculation off, checks on) with a
:class:`~repro.obs.slices.BlockRecorder` attached; :func:`explain`
wraps that into the structured failure-slice packet.  A manifest is a
job spec, so the worker's :func:`~repro.harness.worker.locate_program`
finds its program and inputs; it verifies the source digest and raises
:class:`~repro.harness.worker.ProgramMismatch` rather than silently
explaining a different program.
"""

from __future__ import annotations

from .slices import (DEFAULT_BUDGET, DEFAULT_WINDOW, build_packet,
                     canonical_packet_bytes, divergence_slice,
                     validate_packet)

MANIFEST_VERSION = 1

# Explains of manifests that carry no step budget still terminate.
FALLBACK_MAX_STEPS = 5_000_000


# The job-spec keys a manifest carries over when they are set.
_CARRIED_KEYS = ("path", "corpus_entry", "argv", "stdin_b64", "vfs_b64")


def build_manifest(spec: dict, *, tool: str = "safe-sulong",
                   options: dict | None = None, fault=None) -> dict:
    """The replay manifest of one job spec: its program's name and
    digest, the spec keys that locate the program and give its inputs,
    and the tool.  ``options`` is projected to
    :meth:`EngineConfig.semantic` (baseline tools carry their whole
    configuration in the tool name); a ``gen`` program manifest rides
    along whole.  Raises :class:`~repro.harness.worker.ProgramError`
    when the spec locates no program."""
    from ..core.config import EngineConfig
    from ..harness.worker import locate_program, source_digest
    from ..tools import engine_version
    program = locate_program(spec)
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "engine": engine_version(),
        "tool": tool,
        "options": EngineConfig.from_json(options).semantic()
        if tool == "safe-sulong" else {},
        "filename": program.filename,
        "source_sha256": source_digest(program.source),
        "max_steps": spec.get("max_steps"),
    }
    manifest.update((key, spec[key]) for key in _CARRIED_KEYS
                    if spec.get(key))
    gen = spec.get("gen")
    if gen:
        manifest["gen"] = {
            "version": gen.get("version"),
            "seed": gen.get("seed"),
            "config": dict(gen.get("config") or {}),
            "planted": gen.get("planted") or [],
        }
    if fault:
        manifest["fault"] = fault
    return manifest


def manifest_for_task(payload: dict, tool: str, options: dict | None,
                      fault=None) -> dict | None:
    """The manifest the pool records with each result.  Advisory: a
    payload that locates no program gets no manifest, never a failed
    record."""
    try:
        return build_manifest(payload, tool=tool, options=options,
                              fault=fault)
    except Exception:
        return None


def replay(manifest: dict, source: str | None = None, *,
           window: int = DEFAULT_WINDOW,
           max_steps: int | None = None,
           block_trace: bool = True):
    """Deterministically re-execute one manifest in-process.

    Execution is pinned to the reference interpreter tier — the
    recorder needs per-instruction nodes, and the tiers promise
    identical detection — while the manifest's resource quotas stay in
    force.  Returns ``(result, recorder, source, filename)``.
    """
    from ..harness.worker import locate_program
    program = locate_program(manifest if source is None
                             else dict(manifest, source=source))
    tool = manifest.get("tool") or "safe-sulong"
    observer = None
    options = manifest.get("options")
    if tool == "safe-sulong":
        # The ladder's bottom rung, keeping heap objects for the history.
        from ..core.config import EngineConfig
        _name, reference = EngineConfig.from_json(options).descend()[-1]
        options = reference._replace(track_heap=True).to_json()
        if block_trace:
            from .observer import Observer
            observer = Observer(enabled=True, block_trace=True,
                                block_window=window)
    from ..tools import make_runner
    runner = make_runner(tool, options, observer=observer)
    steps = max_steps or manifest.get("max_steps") or FALLBACK_MAX_STEPS
    result = runner.run(**program._asdict(), max_steps=steps)
    recorder = observer.recorder if observer is not None else None
    return result, recorder, program.source, program.filename


def explain(manifest: dict, source: str | None = None, *,
            budget: int = DEFAULT_BUDGET,
            window: int = DEFAULT_WINDOW,
            divergence: bool | None = None,
            max_steps: int | None = None,
            cache_dir: str | None = None) -> dict:
    """Replay one manifest and build the failure-slice packet.

    ``divergence=None`` means automatic: the tier-divergence pass runs
    for generated programs (where the well-definedness guarantee makes
    any disagreement an engine bug) and is skipped otherwise.
    """
    result, recorder, resolved, filename = replay(
        manifest, source, window=window, max_steps=max_steps)
    if divergence is None:
        divergence = bool(manifest.get("gen"))
    div = None
    if divergence and (manifest.get("tool") or "safe-sulong") \
            == "safe-sulong":
        div = divergence_slice(
            resolved, filename, recorder=recorder,
            max_steps=max_steps or manifest.get("max_steps")
            or FALLBACK_MAX_STEPS,
            cache_dir=cache_dir)
    return build_packet(manifest, result, recorder,
                        divergence=div, budget=budget)


def explain_record(record: dict, source: str | None = None,
                   **kwargs) -> dict:
    """Explain one harness/service bug record (a report JSONL line).
    The packet gains a ``record`` section comparing the replay's triage
    signatures against the recorded ones — the determinism check."""
    from ..harness.worker import ProgramError
    manifest = record.get("manifest")
    if not manifest:
        raise ProgramError(
            "record carries no replay manifest (recorded by an older "
            "engine?); re-run the hunt or pass the program directly")
    packet = explain(manifest, source, **kwargs)
    recorded = list(record.get("signatures") or [])
    replayed = list(packet["replay"].get("signatures") or [])
    packet["record"] = {
        "id": record.get("id"),
        "signatures": recorded,
        "matches": recorded == replayed,
    }
    return packet


# -- selftest ---------------------------------------------------------------


_SELFTEST_UAF = """\
#include <stdlib.h>
#include <stdio.h>
int main(void) {
    int *p = (int *)malloc(8 * sizeof(int));
    int i;
    for (i = 0; i < 8; i++) p[i] = i * 3;
    printf("sum=%d\\n", p[0] + p[7]);
    free(p);
    return p[2]; /* planted: use after free */
}
"""


def selftest(verbose: bool = True) -> tuple[bool, list[str]]:
    """Plant a bug, hunt it, explain it from the report line, and
    validate the packet against the schema and size budget — the
    ``repro explain --selftest`` acceptance path."""
    import os
    import shutil
    import tempfile

    problems: list[str] = []
    workdir = tempfile.mkdtemp(prefix="repro-explain-selftest-")

    def say(message: str) -> None:
        if verbose:
            print(message)

    try:
        program = os.path.join(workdir, "uaf.c")
        with open(program, "w", encoding="utf-8") as handle:
            handle.write(_SELFTEST_UAF)
        report_path = os.path.join(workdir, "report.jsonl")
        say("planting a use-after-free and hunting it...")
        from ..harness.campaign import run_campaign
        from ..harness.quotas import Quotas
        from ..harness.report import read_report
        run_campaign([("uaf", program)], tool="safe-sulong", options={},
                     quotas=Quotas(max_steps=200_000), jobs=1,
                     timeout=60.0, report_path=report_path, fresh=True,
                     progress=None, collect_metrics=False)
        records, _summary = read_report(report_path)
        bug_records = [r for r in records if r.get("triage") == "bug"]
        if not bug_records:
            problems.append("hunt did not report the planted bug")
            return False, problems
        record = bug_records[0]
        if not record.get("manifest"):
            problems.append("bug record carries no replay manifest")
            return False, problems
        say(f"explaining record {record.get('id')} from its report "
            "line...")
        packet = explain_record(record)
        schema_problems = validate_packet(packet)
        for problem in schema_problems:
            problems.append(f"schema: {problem}")
        size = len(canonical_packet_bytes(packet))
        if size > DEFAULT_BUDGET:
            problems.append(
                f"packet is {size} bytes, over the {DEFAULT_BUDGET}-byte "
                "budget")
        if not packet["record"]["matches"]:
            problems.append(
                "replay signatures do not match the record: "
                f"{packet['replay'].get('signatures')} vs "
                f"{record.get('signatures')}")
        if not packet["replay"]["window"]:
            problems.append("packet has an empty block-trace window")
        heap = packet["replay"].get("heap") or {}
        events = {event.get("event")
                  for event in heap.get("history") or ()}
        for needed in ("alloc", "free", "fault"):
            if needed not in events:
                problems.append(
                    f"faulting-object history is missing the "
                    f"{needed!r} event: {sorted(events)}")
        packet_again = explain_record(record)
        packet_again["budget"] = packet["budget"] = {}
        if canonical_packet_bytes(packet_again) != \
                canonical_packet_bytes(packet):
            problems.append("explaining the same record twice produced "
                            "different packets")
        say(f"packet: {size} bytes, "
            f"{len(packet['replay']['window'])} window entries, "
            f"signatures {packet['replay'].get('signatures')}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ok = not problems
    if verbose:
        for problem in problems:
            print(f"FAIL: {problem}")
        print("explain selftest: " + ("ok" if ok else "FAILED"))
    return ok, problems
