"""Proven-safe check elision (static companion to the dynamic checks).

Runs the pointer/interval analyses over each function and annotates
loads, stores, and geps whose dynamic safety checks are *proven*
redundant:

* ``elide = 1`` — the pointer is definitely non-null and definitely a
  data-object address (it comes from an alloca, a global, or the
  managed allocator, possibly through gep/phi/select), so the
  per-access null/function-pointer check cannot fire.  The access still
  goes through the managed object, whose own bounds and lifetime
  checks remain — a use-after-free or out-of-bounds is still caught.
* ``elide = 2`` — additionally, the byte-offset interval is proven
  inside ``[0, size - access_size]`` of an object proven live: a stack
  or global object (which cannot be freed), or a heap object whose
  allocation site is LIVE on every path to the access.  No check of any
  kind can fire.

With interprocedural ``summaries`` (from
:func:`repro.analysis.interproc.analyze_module`) the proofs survive
calls: a call to a summarized-safe callee — one that neither frees nor
retains its pointer arguments — no longer invalidates the liveness of
the heap objects passed to it, and pointers returned by summarized
allocator wrappers carry the same fresh-heap proof a direct ``malloc``
result does.

This is the paper's "safe semantics" discipline in static form: a check
is removed only when the analysis *proves* the abstract machine cannot
reach the error, never because an error looks unlikely.  Unoptimized
(clang -O0-style) IR is what the managed engine executes, so the pass
works there — no mem2reg required; facts flow through registers, which
are SSA even at -O0 (and the summaries are computed on the same
unmutated IR).

No executor reads the marks: every tier runs every check, and a
``Runtime`` created with ``elide_checks=True`` gets the optimized tier
(``speculate``), as under its newer spelling.  The pass runs only for
the pipeline benchmark's ``opt`` tier, whose set-up calls
:func:`run_module` and whose traced runs report its ``opt.elide`` span
and mark count.  The marks ride on the libc module, which is compiled
once per process and shared across engines, without changing what any
engine executes.

:func:`run_module` works per call-graph SCC (through
:func:`repro.analysis.interproc.analyze_module`): an SCC whose key —
its members' IR and the summaries of the callees it consumes — is
unchanged since the last module that shared its functions keeps its
marks; otherwise they come from the ``analysis`` cache tier or are
recomputed from a clean slate.  Either way each function ends up with
exactly the marks a fresh process would give it in the current module.
"""

from __future__ import annotations

from .. import ir
from ..analysis.cfg import ControlFlowGraph
from ..analysis.heapstate import LIVE, HeapStateAnalysis
from ..analysis.intervals import IntervalAnalysis
from ..analysis.pointers import NONNULL, PointerAnalysis
from ..ir import instructions as inst


def run(function: ir.Function, summaries: dict | None = None) -> int:
    """Raise the marks of one function to what the analyses prove;
    returns the number of marks raised.  Never lowers a mark, so a
    second call raises none — :func:`annotate` gives exact marks."""
    if not function.is_definition:
        return 0
    cfg = ControlFlowGraph(function)
    intervals = IntervalAnalysis(function, cfg).run()
    pointers = PointerAnalysis(function, intervals, cfg,
                               summaries=summaries).run()
    heap = HeapStateAnalysis(function, pointers, cfg,
                             summaries=summaries).run()
    elided = 0
    for block in cfg.reverse_postorder:
        if block not in pointers.result.input:
            continue
        pointers._current_block = block
        pointer_state = dict(pointers.result.input[block])
        heap_state = dict(heap.result.input.get(block, {}))
        for instruction in block.instructions:
            if isinstance(instruction, (inst.Load, inst.Store)):
                fact = pointers.fact_for(instruction.pointer,
                                         pointer_state)
                level = _proof_level(fact, _access_size(instruction),
                                     heap_state)
                if level > instruction.elide:
                    instruction.elide = level
                    elided += 1
            elif isinstance(instruction, inst.Gep):
                fact = pointers.fact_for(instruction.base, pointer_state)
                if fact.nullness == NONNULL and \
                        fact.region is not None and \
                        fact.region.kind != "param" and \
                        not instruction.proven_nonnull:
                    instruction.proven_nonnull = True
                    elided += 1
            pointers._transfer_instruction(instruction, pointer_state)
            heap._transfer_instruction(instruction, heap_state)
    return elided


def run_module(module: ir.Module, cache=None) -> int:
    """Give every function of ``module`` its exact marks, with
    interprocedural summaries (incrementally, when ``cache`` is given);
    returns the number of marked instructions in the module."""
    from ..analysis.interproc.driver import analyze_module
    analyze_module(module, cache=cache, transform=False)
    return sum(len(marks(function))
               for function in module.functions.values())


def annotate(function: ir.Function, summaries: dict) -> list[list[int]]:
    """Recompute ``function``'s marks from a clean slate; returns them
    as :func:`marks` does.

    A function whose annotations end up *level-1 only* (no level-2
    access, no proven gep) is reset to level 0.  The rule dates from
    when the interpreter read the marks, where a bare level-1 mark
    blocked gep+access fusion and cost more than it saved; it stays so
    that every function keeps the marks ``golden_elide.json`` pins."""
    before = marks(function)
    _reset(function)
    if run(function, summaries) and _level1_only(function):
        _reset(function)
    after = marks(function)
    if after != before:
        _marks_changed(function)
    return after


def marks(function: ir.Function) -> list[list[int]]:
    """``[ordinal, level]`` for every marked instruction, in
    instruction order: a Load's or Store's ``elide`` level, or 1 for a
    Gep with ``proven_nonnull``."""
    encoded = []
    for ordinal, instruction in enumerate(function.instructions()):
        if isinstance(instruction, (inst.Load, inst.Store)):
            if instruction.elide:
                encoded.append([ordinal, instruction.elide])
        elif isinstance(instruction, inst.Gep) and \
                instruction.proven_nonnull:
            encoded.append([ordinal, 1])
    return encoded


def fits(function: ir.Function, encoded) -> bool:
    """Whether ``encoded`` (as :func:`marks` returns it, e.g. from the
    cache) can be ``function``'s marks: ordinals in range and in
    order, each on a Load, Store or Gep, with a level of 1–2 (only 1 on
    a Gep)."""
    instructions = list(function.instructions())
    previous = -1
    try:
        for ordinal, level in encoded:
            if type(ordinal) is not int or type(level) is not int or \
                    not previous < ordinal < len(instructions):
                return False
            previous = ordinal
            instruction = instructions[ordinal]
            if isinstance(instruction, (inst.Load, inst.Store)):
                if level not in (1, 2):
                    return False
            elif not isinstance(instruction, inst.Gep) or level != 1:
                return False
    except (TypeError, ValueError):
        return False
    return True


def apply(function: ir.Function, encoded: list[list[int]]) -> None:
    """Replace ``function``'s marks with ``encoded``, which
    :func:`fits` it."""
    if marks(function) == encoded:
        return
    _reset(function)
    instructions = list(function.instructions())
    for ordinal, level in encoded:
        instruction = instructions[ordinal]
        if isinstance(instruction, inst.Gep):
            instruction.proven_nonnull = True
        else:
            instruction.elide = level
    _marks_changed(function)


def _marks_changed(function: ir.Function) -> None:
    # The memoized safe-O2 clone copied the old marks when it was made.
    function.__dict__.pop("_safe_o2_clone", None)


def _level1_only(function: ir.Function) -> bool:
    proven_something = False
    annotated_any = False
    for instruction in function.instructions():
        if isinstance(instruction, (inst.Load, inst.Store)):
            if instruction.elide >= 2:
                proven_something = True
            elif instruction.elide == 1:
                annotated_any = True
        elif isinstance(instruction, inst.Gep) \
                and instruction.proven_nonnull:
            proven_something = True
    return annotated_any and not proven_something


def _reset(function: ir.Function) -> None:
    for instruction in function.instructions():
        if isinstance(instruction, (inst.Load, inst.Store)):
            instruction.elide = 0
        elif isinstance(instruction, inst.Gep):
            instruction.proven_nonnull = False


def _access_size(instruction) -> int | None:
    access_type = instruction.result.type \
        if isinstance(instruction, inst.Load) else instruction.value.type
    try:
        return access_type.size
    except TypeError:
        return None


def _proof_level(fact, access_size: int | None, heap_state) -> int:
    # Level 1 requires a known region: nullness alone is not enough,
    # because e.g. inttoptr of a nonzero integer is "non-null" yet still
    # trips the dynamic invalid-pointer check.  A region proves the
    # value is a genuine object address.
    if fact.nullness != NONNULL or fact.region is None:
        return 0
    region = fact.region
    if region.kind == "param":
        # A param region is an *identity* (for summary collection), not
        # a proof: the caller may pass any bit pattern.  Never elide on
        # it — the summaries pipeline sets param_regions, the elision
        # pipeline does not, so this is defense in depth.
        return 0
    if access_size is None or region.size is None or fact.offset is None:
        return 1
    in_bounds = fact.offset.lo is not None and fact.offset.lo >= 0 and \
        fact.offset.hi is not None and \
        fact.offset.hi + access_size <= region.size
    if not in_bounds:
        return 1
    if not region.freeable:
        return 2  # stack/global object: no lifetime to check
    # A heap object is provably live when its allocation site is LIVE
    # on every path to this point (the join washes any may-freed path
    # to TOP); the summaries keep that proof across calls to callees
    # that neither free nor retain the pointer.
    if heap_state.get(id(region.site)) == LIVE:
        return 2
    return 1
