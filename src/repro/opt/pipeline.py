"""Optimization pipelines.

``run_o3`` is the UB-exploiting optimizer the baselines compile with;
``run_backend_folds`` models the folds Clang's backend performs even at
-O0 (Figure 13).  Safe Sulong historically executed only the front
end's unoptimized IR (§3.1); ``run_safe_o2`` is the managed-semantics
optimizer level the speculative tier runs — every pass in it preserves
check behavior exactly (see the gvn/licm module docstrings).
"""

from __future__ import annotations

from .. import ir
from ..ir import instructions as inst
from ..ir import types as irt
from . import (backendfold, constfold, dce, deadstore, gvn, licm, loadwiden,
               loopdelete, mem2reg, nullcheck, simplifycfg)

# Participates in safe-tier cache keys indirectly: the optimized clone's
# printed IR is what gets hashed, but bump this to force re-optimization
# when pass *behavior* changes without changing pass output on trivial
# functions.
SAFE_O2_VERSION = 1


def run_o3(module: ir.Module, max_iterations: int = 8,
           load_widening: bool = False) -> None:
    """The -O2/-O3-style pipeline, iterated to fixpoint.

    ``load_widening`` is off by default — mirroring the real-world state
    after the Firefox false positive forced ASan builds to disable it
    (§2.3); the ablation benchmark switches it on.
    """
    for function in module.functions.values():
        if not function.is_definition:
            continue
        mem2reg.run(function)
        for _ in range(max_iterations):
            changed = False
            changed |= constfold.run(function)
            changed |= nullcheck.run(function)
            changed |= dce.run(function)
            changed |= deadstore.run(function)
            changed |= simplifycfg.run(function)
            changed |= loopdelete.run(function)
            if not changed:
                break
        if load_widening:
            while loadwiden.run(function):
                pass
        ir.validate_function(function)
    backendfold.run_module(module)


def run_safe_o2_function(function: ir.Function) -> None:
    """Safe-tier -O2 over one function, IN PLACE: mem2reg, branch
    condition simplification, then GVN (with block-local redundant-load
    forwarding), then LICM, then a GVN cleanup over whatever LICM
    exposed, then a detection-preserving DCE sweep.  Callers own
    ``function`` — engine code passes a private clone
    (:func:`optimized_clone`), never a function belonging to the shared
    libc module."""
    mem2reg.run(function)
    _simplify_branch_conditions(function)
    gvn.run(function)
    licm.run(function)
    gvn.run(function)
    _prune_dead_pure(function)
    ir.validate_function(function)


def _simplify_branch_conditions(function: ir.Function) -> bool:
    """Rewrite ``br (icmp ne (zext i1 %c), 0)`` chains to ``br %c``.

    The front end materializes every C condition through int (bool →
    zext → compare-against-zero); branching on the original i1 register
    is value-identical and exposes the compare to cmp+br fusion and to
    the loop speculation analysis.  Only chains ending in an i1 value
    are rewritten — i1 registers hold 0/1, so truthiness is unchanged."""
    defs: dict[int, inst.Instruction] = {}
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.result is not None:
                defs[id(instruction.result)] = instruction
    changed = False
    for block in function.blocks:
        term = block.instructions[-1] if block.instructions else None
        if not isinstance(term, inst.CondBr):
            continue
        cond = term.condition
        for _ in range(8):
            definition = defs.get(id(cond)) \
                if isinstance(cond, ir.VirtualRegister) else None
            if isinstance(definition, inst.ICmp) \
                    and definition.predicate == "ne" \
                    and isinstance(definition.rhs, ir.ConstInt) \
                    and definition.rhs.value == 0 \
                    and isinstance(definition.lhs.type, irt.IntType):
                cond = definition.lhs
            elif isinstance(definition, inst.Cast) \
                    and definition.kind == "zext":
                cond = definition.value
            else:
                break
        if cond is not term.condition \
                and isinstance(cond.type, irt.IntType) \
                and cond.type.bits == 1:
            term.replace_operand(term.condition, cond)
            changed = True
    return changed


def _prune_dead_pure(function: ir.Function) -> bool:
    """Remove unused pure, non-trapping instructions (LICM's hoistable
    class: arithmetic minus division, non-pointer compares, selects,
    arithmetic casts).  Loads, stores, GEPs, calls, and division stay
    even when dead — executing them is how bugs and crashes get
    detected, and the safe tier must never lose a detection."""
    changed = False
    while True:
        uses: dict[int, int] = {}
        for block in function.blocks:
            for instruction in block.instructions:
                for operand in instruction.operands():
                    if isinstance(operand, ir.VirtualRegister):
                        uses[id(operand)] = uses.get(id(operand), 0) + 1
        removed = False
        for block in function.blocks:
            kept = []
            for instruction in block.instructions:
                result = instruction.result
                if result is not None and not uses.get(id(result)) \
                        and licm._hoistable(instruction):
                    removed = True
                    continue
                kept.append(instruction)
            if len(kept) != len(block.instructions):
                block.instructions = kept
        if not removed:
            return changed
        changed = True


def run_safe_o2(module: ir.Module) -> None:
    """Safe-tier -O2 over every defined function of a module the caller
    owns outright (tests, studies).  Shared modules must go through
    :func:`optimized_clone` instead."""
    for function in module.functions.values():
        if function.is_definition:
            run_safe_o2_function(function)


def optimized_clone(function: ir.Function) -> ir.Function:
    """The safe-O2-optimized private copy of ``function``, memoized on
    the original so that one clone serves every runtime in the
    process.  An original changes after the front end in two ways, and
    each drops the memo: new elision marks (``opt.elide``), and a link
    that re-points one of its callees (``ir.Module.link``, e.g. libc's
    ``strdup`` at a program's own ``malloc``).  If any pass fails, the
    original is returned — slower, never wrong — and the failure is
    recorded on the function for tests to inspect."""
    cached = getattr(function, "_safe_o2_clone", None)
    if cached is not None:
        return cached
    if not function.is_definition:
        return function
    clone = ir.clone_function(function)
    try:
        run_safe_o2_function(clone)
    except Exception as error:  # degrade, never break the run
        try:
            function._safe_o2_error = repr(error)
        except AttributeError:
            pass
        clone = function
    try:
        function._safe_o2_clone = clone
    except AttributeError:
        pass
    return clone


def run_o0_cleanup(module: ir.Module) -> None:
    """What even -O0 does: nothing at the IR level."""


def run_backend_folds(module: ir.Module) -> None:
    """Backend folds applied regardless of the optimization level (the
    mechanism behind the paper's 'Clang -O0 optimizes away bugs')."""
    changed = backendfold.run_module(module)
    if changed:
        for function in module.functions.values():
            if function.is_definition:
                ir.validate_function(function)
