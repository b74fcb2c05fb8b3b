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
wraps that into the structured failure-slice packet.  Replay verifies
the source digest first and raises :class:`ReplayMismatch` rather than
silently explaining a different program.
"""

from __future__ import annotations

import base64
import hashlib
import json

from .slices import (DEFAULT_BUDGET, DEFAULT_WINDOW, build_packet,
                     canonical_packet_bytes, divergence_slice,
                     validate_packet)

MANIFEST_VERSION = 1

# Explains of manifests that carry no step budget still terminate.
FALLBACK_MAX_STEPS = 5_000_000


class ReplayError(Exception):
    """The manifest cannot be replayed (missing program, bad fields)."""


class ReplayMismatch(ReplayError):
    """The resolved program is not the recorded one (digest mismatch)."""


def source_digest(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def build_manifest(*, tool: str = "safe-sulong",
                   options: dict | None = None,
                   source: str | None = None,
                   path: str | None = None,
                   filename: str | None = None,
                   corpus_entry: str | None = None,
                   argv: list | None = None,
                   stdin_b64: str | None = None,
                   vfs_b64: dict | None = None,
                   max_steps: int | None = None,
                   gen: dict | None = None,
                   fault=None) -> dict:
    """One replay manifest.  ``options`` is projected to
    :meth:`EngineConfig.semantic` (baseline tools carry their whole
    configuration in the tool name); ``gen`` is a repro.gen program
    manifest and rides along whole."""
    from ..core.config import EngineConfig
    from ..tools import engine_version
    manifest = {
        "manifest_version": MANIFEST_VERSION,
        "engine": engine_version(),
        "tool": tool,
        "options": EngineConfig.from_json(options).semantic()
        if tool == "safe-sulong" else {},
        "filename": filename,
        "source_sha256": source_digest(source)
        if source is not None else None,
        "max_steps": max_steps,
    }
    if path:
        manifest["path"] = path
    if corpus_entry:
        manifest["corpus_entry"] = corpus_entry
    if argv:
        manifest["argv"] = list(argv)
    if stdin_b64:
        manifest["stdin_b64"] = stdin_b64
    if vfs_b64:
        manifest["vfs_b64"] = dict(vfs_b64)
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
    """Build the manifest for one harness task payload (the pool calls
    this when recording a result).  Advisory: any failure — unreadable
    program file, unknown corpus entry — degrades to no manifest, never
    to a failed record."""
    try:
        source = None
        path = None
        corpus = payload.get("corpus_entry")
        filename = payload.get("filename")
        if corpus:
            from ..corpus.manifest import ENTRIES
            for entry in ENTRIES:
                if entry.name == corpus:
                    source = entry.source()
                    filename = entry.name + ".c"
                    break
        elif payload.get("source") is not None:
            source = payload["source"]
            filename = filename or "program.c"
        elif payload.get("path"):
            path = payload["path"]
            with open(path, "r", encoding="utf-8",
                      errors="replace") as handle:
                source = handle.read()
            filename = filename or path
        return build_manifest(
            tool=tool, options=options, source=source, path=path,
            filename=filename, corpus_entry=corpus,
            argv=payload.get("argv"),
            stdin_b64=payload.get("stdin_b64"),
            vfs_b64=payload.get("vfs_b64"),
            max_steps=payload.get("max_steps"),
            gen=payload.get("gen"), fault=fault)
    except Exception:
        return None


def _check_digest(source: str, manifest: dict, origin: str) -> None:
    want = manifest.get("source_sha256")
    if want is None:
        return
    have = source_digest(source)
    if have != want:
        raise ReplayMismatch(
            f"{origin} does not match the recorded program: "
            f"sha256 {have[:16]}… != recorded {want[:16]}…")


def resolve_source(manifest: dict,
                   source: str | None = None) -> tuple[str, str]:
    """Locate the exact recorded program: explicit source, the gen
    tuple, a corpus entry, or the recorded file path — digest-verified
    in every case."""
    filename = manifest.get("filename") or "program.c"
    if source is not None:
        _check_digest(source, manifest, "the supplied source")
        return source, filename
    gen = manifest.get("gen")
    if gen is not None and gen.get("seed") is not None:
        from dataclasses import fields
        from ..gen.generator import GEN_VERSION, GenConfig, generate
        version = gen.get("version")
        if version is not None and version != GEN_VERSION:
            raise ReplayMismatch(
                f"program was generated by repro.gen v{version}; this "
                f"engine has v{GEN_VERSION} — regeneration would not "
                "reproduce it")
        known = {f.name for f in fields(GenConfig)}
        config = GenConfig(**{key: value
                              for key, value in
                              (gen.get("config") or {}).items()
                              if key in known})
        program = generate(gen["seed"], config)
        _check_digest(program.source, manifest, "the regenerated program")
        return program.source, manifest.get("filename") or program.filename
    corpus = manifest.get("corpus_entry")
    if corpus:
        from ..corpus.manifest import ENTRIES
        for entry in ENTRIES:
            if entry.name == corpus:
                text = entry.source()
                _check_digest(text, manifest, f"corpus entry {corpus!r}")
                return text, entry.name + ".c"
        raise ReplayError(f"unknown corpus entry {corpus!r}")
    path = manifest.get("path")
    if path:
        try:
            with open(path, "r", encoding="utf-8",
                      errors="replace") as handle:
                text = handle.read()
        except OSError as error:
            raise ReplayError(
                f"recorded program path is unreadable ({error}); pass "
                "the source explicitly") from error
        _check_digest(text, manifest, path)
        return text, filename
    raise ReplayError(
        "manifest does not locate the program (no gen tuple, corpus "
        "entry, or path); pass the source explicitly")


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
    source, filename = resolve_source(manifest, source)
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
    stdin = base64.b64decode(manifest.get("stdin_b64") or "")
    vfs = {name: base64.b64decode(data)
           for name, data in (manifest.get("vfs_b64") or {}).items()}
    result = runner.run(source, argv=manifest.get("argv"),
                        stdin=stdin, vfs=vfs or None,
                        max_steps=steps, filename=filename)
    recorder = observer.recorder if observer is not None else None
    return result, recorder, source, filename


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
    manifest = record.get("manifest")
    if not manifest:
        raise ReplayError(
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
        run_campaign([("uaf", program)], tool="safe-sulong", options={},
                     quotas=Quotas(max_steps=200_000), jobs=1,
                     timeout=60.0, report_path=report_path, fresh=True,
                     progress=None, collect_metrics=False)
        records = []
        with open(report_path, "r", encoding="utf-8") as handle:
            for line in handle:
                data = json.loads(line)
                if data.get("type") == "result":
                    records.append(data)
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
