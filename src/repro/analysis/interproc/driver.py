"""Whole-module interprocedural analysis driver.

Orchestration: build the call graph, walk its SCCs bottom-up (callees
before callers), compute per-function effect summaries for each SCC,
then run the lint clients over each member with every callee summary in
hand.  The result is the superset of the intraprocedural lint: the same
local proofs plus cross-function use-after-free/double-free/invalid-free
(a callee that frees its argument), leaks at program exit, null
dereferences through always-NULL-returning callees, uninitialized reads
flowing into callees, and effective-type violations of summarized
callee accesses.

Incrementality rides on the PR-4 content-addressed cache: each SCC's
summaries *and* findings are stored in the ``analysis`` tier under a
key covering the member functions' IR hashes and the digests of every
external callee summary the SCC consumed.  Editing one function dirties
exactly its own SCC and the SCCs on call paths into it; everything else
is a cache hit and is not re-analyzed.

Two pipelines share this driver and must not share cache entries:

* ``transform=True`` (lint): runs :class:`UninitAnalysis` on the front
  end's IR, then promotes allocas (mem2reg) so the SSA clients see
  stored values, then runs all clients.  Mutates the module, but only
  *best-effort*: cache-hit SCCs skip the whole pipeline including the
  transform, so which functions end up promoted depends on cache
  state.  Callers must treat the module's post-lint IR as unspecified
  and re-compile if they need either the unoptimized or a fully
  promoted form.
* ``transform=False`` (check elision): summaries computed on the
  unoptimized IR the engine will actually execute, then each member's
  check-elision marks (:mod:`repro.opt.elide`); it changes no IR but
  those marks.  An SCC's summaries and marks are a pure function of its
  key, so they are also memoized on the member functions: a module that
  shares functions with an earlier one (the linked libc) reuses them
  wherever the key is unchanged, and recomputes marks from a clean
  slate wherever it changed.  The lint pipeline mutates IR and gets no
  memo.
"""

from __future__ import annotations

import hashlib

from ... import ir
from ...ir import instructions as inst
from ...ir import types as irt
from ...obs.spans import span
from ...opt import elide, mem2reg
from ...source import SourceLocation
from ..heapstate import Finding, UninitAnalysis
from ..pointers import NULL, PointerAnalysis
from .callgraph import CallGraph
from .effective import effective_findings
from .summaries import FunctionSummary, summarize_scc

# Part of every cache key: bump on any change to the summary schema,
# the clients, or the analyses they consume.  Old entries then miss.
ANALYSIS_VERSION = 2


class ModuleAnalysis:
    """Everything the interprocedural pass learned about one module."""

    __slots__ = ("callgraph", "summaries", "findings", "stats")

    def __init__(self, callgraph: CallGraph,
                 summaries: dict[str, FunctionSummary],
                 findings: list[Finding], stats: dict):
        self.callgraph = callgraph
        self.summaries = summaries
        self.findings = findings
        self.stats = stats


def analyze_module(module: ir.Module, cache=None,
                   transform: bool = True) -> ModuleAnalysis:
    """Run the interprocedural analysis over ``module``.

    ``cache`` is a :class:`repro.cache.CompilationCache` (or None); with
    a cache, unchanged SCCs are restored from the ``analysis`` tier
    instead of re-analyzed.  ``transform=False`` computes summaries and
    check-elision marks, and changes nothing in the module but those
    marks.
    """
    defined = {name: function for name, function in
               module.functions.items() if function.is_definition}
    # IR hashes must be taken before mem2reg rewrites the bodies (the
    # hash is memoized on the function object, so a later analysis of
    # the same module keys on the same hash).
    hashes = {name: function_ir_hash(function)
              for name, function in defined.items()}
    with span("analysis:callgraph", functions=len(defined)):
        callgraph = CallGraph(module)
    pipeline = "m2r" if transform else "elide"
    summaries: dict[str, FunctionSummary] = {}
    findings: list[Finding] = []
    stats = {"functions": len(defined), "sccs": len(callgraph.sccs),
             "scc_hits": 0, "scc_misses": 0}
    for scc in callgraph.sccs:
        key = _scc_key(callgraph, scc, hashes, summaries, pipeline)
        members = [callgraph.defined[name] for name in scc]
        if not transform and _memoized(members, key):
            # Same key as when these marks were set: nothing to do.
            summaries.update((function.name, function._elide_scc[1])
                             for function in members)
            stats["scc_hits"] += 1
            continue
        if cache is not None:
            payload = cache.get_analysis(key)
            decoded = _decode(payload, scc, None if transform else members)
            if decoded is not None:
                scc_summaries, scc_findings, scc_marks = decoded
                summaries.update(scc_summaries)
                findings.extend(scc_findings)
                if not transform:
                    for function in members:
                        elide.apply(function, scc_marks[function.name])
                    _memoize(members, key, summaries)
                stats["scc_hits"] += 1
                # Cache-hit members are NOT promoted (mem2reg costs
                # more than the whole warm re-analysis); the module's
                # post-lint IR is therefore unspecified — see the
                # module docstring.
                continue
            if payload is not None:
                # Verified by the store, yet it does not fit this SCC.
                from ...cache.store import ANALYSIS
                cache.store.note("reject", ANALYSIS, key, "memory")
                cache.store.memory_drop(ANALYSIS, key)
        stats["scc_misses"] += 1
        scc_findings = _analyze_scc(callgraph, scc, summaries, transform)
        findings.extend(scc_findings)
        marks = None
        if not transform:
            marks = {function.name: elide.annotate(function, summaries)
                     for function in members}
            _memoize(members, key, summaries)
        if cache is not None:
            cache.put_analysis(
                key, _encode(scc, summaries, scc_findings, marks))
    return ModuleAnalysis(callgraph, summaries, findings, stats)


def _memoized(members: list[ir.Function], key: str) -> bool:
    return all(getattr(function, "_elide_scc", (None,))[0] == key
               for function in members)


def _memoize(members: list[ir.Function], key: str,
             summaries: dict) -> None:
    for function in members:
        function._elide_scc = (key, summaries[function.name])


def function_ir_hash(function: ir.Function) -> str:
    """Content hash of one function's printed IR and of the layout of
    every named struct its values reach (the printed IR names a struct
    but not its fields), memoized on the function object."""
    cached = getattr(function, "_cache_ir_hash", None)
    if cached is not None:
        return cached
    from ...ir.printer import print_function
    text = "\n".join([print_function(function)] + _struct_layouts(function))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    try:
        function._cache_ir_hash = digest
    except AttributeError:
        pass
    return digest


def _struct_layouts(function: ir.Function) -> list[str]:
    from ...ir.printer import print_struct
    # A register's type is a parameter's or an instruction result's.
    pending = [function.type]
    for instruction in function.instructions():
        if instruction.result is not None:
            pending.append(instruction.result.type)
        pending.extend(operand.type for operand in instruction.operands()
                       if not isinstance(operand, ir.VirtualRegister))
    seen: set[int] = set()
    layouts: dict[str, str] = {}
    while pending:
        kind = pending.pop()
        if id(kind) in seen:
            continue
        seen.add(id(kind))
        if isinstance(kind, irt.PointerType):
            pending.append(kind.pointee)
        elif isinstance(kind, irt.ArrayType):
            pending.append(kind.elem)
        elif isinstance(kind, irt.FunctionType):
            pending.append(kind.ret)
            pending.extend(kind.params)
        elif isinstance(kind, irt.StructType):
            layouts[kind.name] = print_struct(kind)
            if not kind.is_opaque:
                pending.extend(field.type for field in kind.fields)
    return sorted(layouts.values())


def module_summaries(module: ir.Module, cache=None
                     ) -> dict[str, FunctionSummary]:
    """Summaries over the *unoptimized* module (the elision pipeline,
    which also sets the module's check-elision marks)."""
    return analyze_module(module, cache=cache, transform=False).summaries


def _analyze_scc(callgraph: CallGraph, scc: list[str],
                 summaries: dict[str, FunctionSummary],
                 transform: bool) -> list[Finding]:
    members = [callgraph.defined[name] for name in scc]
    scc_findings: list[Finding] = []
    if transform:
        for function in members:
            # Uninitialized-read evidence lives in the front end's IR;
            # mem2reg rewrites those loads into undef, so this client
            # (and the summaries' reads_uninit bit it feeds) run first.
            scc_findings.extend(
                UninitAnalysis(function, summaries=summaries).findings())
            mem2reg.run(function)
    with span("analysis:summaries", scc=",".join(scc)):
        bundles = summarize_scc(members, summaries,
                                callgraph.is_recursive(scc))
    if transform:
        with span("analysis:clients", scc=",".join(scc)):
            for function in members:
                bundle = bundles[function.name]
                scc_findings.extend(
                    access_findings(function, bundle.pointers))
                scc_findings.extend(bundle.heap.findings())
                scc_findings.extend(effective_findings(
                    function, bundle.pointers, summaries))
                if function.name == "main":
                    # Exit leaks are only meaningful where the program
                    # ends; elsewhere a live pointer may still be used.
                    scc_findings.extend(bundle.heap.leak_findings())
    return scc_findings


# -- incremental cache ------------------------------------------------------

def _scc_key(callgraph: CallGraph, scc: list[str], hashes: dict,
             summaries: dict, pipeline: str) -> str:
    """Cache key for one SCC: member IR (pre-mem2reg) plus the digest of
    every external summary the analysis may consult.  Undefined callees
    are keyed by the member IR alone — their names appear in the printed
    call instructions, and the analyses treat them by name."""
    from ...cache.store import hash_key
    member_set = set(scc)
    externals = set()
    for name in scc:
        externals.update(callgraph.callees(name) - member_set)
    external_digests = sorted(
        (callee, summaries[callee].digest() if callee in summaries
         else "") for callee in externals)
    return hash_key("analysis", ANALYSIS_VERSION, pipeline,
                    sorted((name, hashes[name]) for name in scc),
                    external_digests)


def _encode(scc: list[str], summaries: dict, findings: list[Finding],
            marks: dict | None) -> dict:
    payload = {
        "summaries": {name: summaries[name].to_dict() for name in scc
                      if name in summaries},
        "findings": [_finding_dict(finding) for finding in findings],
    }
    if marks is not None:
        payload["marks"] = marks
    return payload


def _decode(payload, scc: list[str], members: list[ir.Function] | None):
    """(summaries, findings, marks) from a cached payload, or None when
    the payload does not cover this SCC.  With the elision pipeline's
    ``members``, every member's marks must fit it; the lint pipeline's
    marks are None."""
    if not isinstance(payload, dict):
        return None
    try:
        encoded = payload["summaries"]
        scc_summaries = {name: FunctionSummary.from_dict(encoded[name])
                         for name in scc}
        scc_findings = [_finding_from_dict(entry)
                        for entry in payload["findings"]]
        scc_marks = None
        if members is not None:
            scc_marks = payload["marks"]
            if not all(elide.fits(function, scc_marks[function.name])
                       for function in members):
                return None
    except (KeyError, TypeError, ValueError, AttributeError):
        return None
    return scc_summaries, scc_findings, scc_marks


def _finding_dict(finding: Finding) -> dict:
    loc = finding.loc
    return {"kind": finding.kind, "message": finding.message,
            "file": loc.filename if loc else "<unknown>",
            "line": loc.line if loc else 0,
            "column": loc.column if loc else 0,
            "function": finding.function}


def _finding_from_dict(entry: dict) -> Finding:
    loc = SourceLocation(entry["file"], entry["line"], entry["column"])
    return Finding(entry["kind"], entry["message"], loc,
                   entry["function"])


# -- local access clients (shared with the intraprocedural lint) ------------

def access_findings(function: ir.Function,
                    pointers: PointerAnalysis) -> list[Finding]:
    """NULL-dereference and constant out-of-bounds findings from the
    pointer facts."""
    findings: list[Finding] = []
    # An out-of-range address that is then dereferenced is reported at
    # the access (the sharper message, with the access size); keep the
    # arithmetic finding only for addresses no reachable access consumes
    # (e.g. an address that escapes into a call).
    dereferenced: set[int] = set()
    for block in pointers.cfg.reverse_postorder:
        if not pointers.result.reached(block):
            continue
        for instruction in block.instructions:
            if isinstance(instruction, (inst.Load, inst.Store)):
                dereferenced.add(id(instruction.pointer))

    def check(block, instruction, state):
        if isinstance(instruction, (inst.Load, inst.Store)):
            fact = pointers.fact_for(instruction.pointer, state)
            verb = "load" if isinstance(instruction, inst.Load) else "store"
            if fact.nullness == NULL:
                findings.append(Finding(
                    "null-dereference",
                    f"{verb} through a pointer that is NULL on every "
                    f"path here", instruction.loc, function.name))
                return
            access_type = instruction.result.type \
                if isinstance(instruction, inst.Load) \
                else instruction.value.type
            _check_bounds(fact, access_type.size, verb, instruction,
                          findings, function)
        elif isinstance(instruction, inst.Gep):
            if id(instruction.result) in dereferenced:
                return
            # ``state`` precedes the instruction; apply its own transfer
            # to obtain the fact for the address it computes.
            after = dict(state)
            pointers._transfer_instruction(instruction, after)
            fact = after.get(id(instruction.result))
            # The gep itself only computes an address; C allows one-
            # past-the-end pointers, so flag only offsets that no
            # in-bounds or one-past-end pointer could have.
            if fact is None or fact.region is None or \
                    fact.offset is None or fact.region.size is None:
                return
            if fact.offset.above(fact.region.size) or \
                    fact.offset.below(0):
                findings.append(Finding(
                    "out-of-bounds",
                    f"pointer arithmetic yields offset {fact.offset} "
                    f"outside {fact.region.label} "
                    f"({fact.region.size} bytes)",
                    instruction.loc, function.name))

    pointers.visit(check)
    return findings


def _check_bounds(fact, access_size: int, verb: str, instruction,
                  findings, function) -> None:
    region = fact.region
    if region is None or fact.offset is None or region.size is None:
        return
    if region.kind == "param":
        # A param region is an identity, not a bound: the callee does
        # not know the pointee's size.  Summaries carry these accesses
        # to the caller instead.
        return
    offset = fact.offset
    # Definite violation only: every admissible offset must fall outside
    # [0, size - access_size].
    if offset.below(0) or offset.above(region.size - access_size):
        findings.append(Finding(
            "out-of-bounds",
            f"{verb} of {access_size} byte(s) at offset {offset} is "
            f"outside {region.label} ({region.size} bytes)",
            instruction.loc, function.name))


__all__ = ["ModuleAnalysis", "analyze_module", "module_summaries",
           "access_findings", "ANALYSIS_VERSION"]
