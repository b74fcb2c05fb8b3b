"""Speculative check elision: the analysis behind the JIT's loop guards.

The paper's engine pays a dynamic check on every memory access (§3.4),
and so does every tier here: no executor removes a check on a static
proof.  This module finds the checks that can be *speculated* away in
compiled code, as Graal speculates and deoptimizes.  For a *counted
loop* whose accesses stride linearly through an array, all
per-iteration bounds/lifetime checks collapse into one loop-invariant
guard evaluated at the preheader:

* the loop is ``for (i = init; i <pred> limit; i += c)`` with ``c > 0``
  and a loop-invariant ``limit`` (header = one induction phi + compare);
* each speculated access is ``base[k*i + d]`` with a loop-invariant
  ``base``, static stride ``k`` and offset ``d`` (``k``, ``d`` multiples
  of the element size);
* the guard checks, once: the base is a live typed array of the right
  element kind, the first and last touched offsets are in bounds, and
  the induction range cannot wrap.  Accesses sharing a base and stride
  are merged into one guard *run* spanning their ``[lo, hi]`` constant
  offsets (contiguous-access merging).

If the guard holds, every check in the loop body is vacuous and the
compiled code runs raw element accesses; if not, nothing has been
elided: the guard raises :class:`~repro.core.errors.DeoptSignal` and the
call re-runs on the fully checked interpreter.  That replay is sound
only when no side effect can precede the guard, so only loops whose
preheader is deopt-clean are planned (:func:`_clean_blocks`).

This module is pure analysis over the IR; the JIT consumes the plans
(``core/jit.py``).
"""

from __future__ import annotations

from .. import ir
from ..analysis.cfg import ControlFlowGraph
from ..ir import instructions as inst
from ..ir import types as irt


class SiteAccess:
    """One speculated load/store inside the loop."""

    __slots__ = ("instruction", "gep", "const_offset", "value_type",
                 "is_store", "drop_gep")

    def __init__(self, instruction, gep, const_offset, value_type,
                 is_store, drop_gep):
        self.instruction = instruction
        self.gep = gep
        self.const_offset = const_offset
        self.value_type = value_type
        self.is_store = is_store
        # The GEP's only use is this access: the fast path skips it.
        self.drop_gep = drop_gep


class SiteGroup:
    """Accesses sharing (base, stride, element size, kind): one guard
    covers the merged constant-offset run [lo, hi]."""

    __slots__ = ("base", "stride", "elem", "kind", "lo", "hi", "sites")

    def __init__(self, base, stride, elem, kind):
        self.base = base
        self.stride = stride
        self.elem = elem
        self.kind = kind  # "int" | "float"
        self.lo = 0
        self.hi = 0
        self.sites: list[SiteAccess] = []


class LoopPlan:
    """Everything the JIT needs to speculate one loop."""

    __slots__ = ("header", "preheader", "phi", "init", "step", "limit",
                 "predicate", "bits", "groups", "dead", "guard_addend",
                 "init_floor")

    def __init__(self, header, preheader, phi, init, step, limit,
                 predicate, bits, groups):
        # ids of extra pure instructions (constant-index GEP chains and
        # single-use index extensions) the fast path can skip entirely;
        # filled in by _collect_dead.
        self.dead: set[int] = set()
        # ``a[i + c]`` sites fold ``c`` into their constant offset; the
        # guard must then also rule out ``i + c`` wrapping at the phi
        # width (guard_addend: largest positive such c computed at phi
        # width) and, for a zero-extended ``i - c``, a negative
        # intermediate (init_floor: init must be >= it).
        self.guard_addend = 0
        self.init_floor = 0
        self.header = header
        self.preheader = preheader
        self.phi = phi
        self.init = init
        self.step = step
        self.limit = limit
        self.predicate = predicate  # normalized: slt | sle | ult | ule
        self.bits = bits
        self.groups = groups


class SpeculationState:
    """The loop plans the JIT compiled into a PreparedFunction."""

    __slots__ = ("plans",)

    def __init__(self, plans):
        self.plans = plans


_SWAPPED = {"sgt": "slt", "sge": "sle", "ugt": "ult", "uge": "ule"}


def analyze_function(function: ir.Function) -> list[LoopPlan]:
    """Find speculable counted loops whose preheader is deopt-clean: no
    side effect can occur on any path from function entry through it,
    so a guard failure there may replay the activation from scratch."""
    if not function.is_definition:
        return []
    cfg = ControlFlowGraph(function)
    if not cfg.loops:
        return []
    defs: dict[int, inst.Instruction] = {}
    def_block: dict[int, ir.Block] = {}
    uses: dict[int, int] = {}
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.result is not None:
                defs[id(instruction.result)] = instruction
                def_block[id(instruction.result)] = block
            for operand in instruction.operands():
                if isinstance(operand, ir.VirtualRegister):
                    uses[id(operand)] = uses.get(id(operand), 0) + 1
    clean = _clean_blocks(function, cfg, defs)
    plans = []
    for header, body in cfg.loops.items():
        # Innermost loops only: each access belongs to at most one plan.
        if any(other is not header and other in body
               for other in cfg.loops):
            continue
        plan = _analyze_loop(header, body, cfg, defs, def_block, uses,
                             clean)
        if plan is not None:
            plans.append(plan)
    plans.sort(key=lambda plan: cfg.rpo_index.get(plan.header, 1 << 30))
    return plans


def _analyze_loop(header, body, cfg, defs, def_block, uses, clean):
    outside = [pred for pred in cfg.predecessors[header]
               if pred not in body]
    if len(outside) != 1:
        return None
    preheader = outside[0]
    if not clean.get(preheader, False):
        return None
    # Calls could free/realloc a speculated base (or observe state);
    # loops containing any call are left fully checked.
    for block in body:
        for instruction in block.instructions:
            if isinstance(instruction, inst.Call):
                return None

    term = header.instructions[-1] if header.instructions else None
    if not isinstance(term, inst.CondBr):
        return None
    if term.if_true not in body or term.if_false in body:
        return None
    compare = defs.get(id(term.condition)) \
        if isinstance(term.condition, ir.VirtualRegister) else None
    if not isinstance(compare, inst.ICmp) \
            or def_block.get(id(compare.result)) is not header:
        return None
    predicate, lhs, rhs = compare.predicate, compare.lhs, compare.rhs
    if predicate in _SWAPPED:
        predicate = _SWAPPED[predicate]
        lhs, rhs = rhs, lhs
    if predicate not in ("slt", "sle", "ult", "ule"):
        return None
    if not isinstance(lhs.type, irt.IntType):
        return None

    phi = defs.get(id(lhs)) if isinstance(lhs, ir.VirtualRegister) else None
    if not isinstance(phi, inst.Phi) \
            or def_block.get(id(phi.result)) is not header \
            or len(phi.incoming) != 2:
        return None
    init = next_value = None
    for pred_block, value in phi.incoming:
        if pred_block is preheader:
            init = value
        elif pred_block in body:
            next_value = value
    if init is None or next_value is None:
        return None
    add = defs.get(id(next_value)) \
        if isinstance(next_value, ir.VirtualRegister) else None
    if not isinstance(add, inst.BinOp) or add.op != "add":
        return None
    if add.lhs is phi.result and isinstance(add.rhs, ir.ConstInt):
        step = add.rhs.signed_value
    elif add.rhs is phi.result and isinstance(add.lhs, ir.ConstInt):
        step = add.lhs.signed_value
    else:
        return None
    if step <= 0:
        return None
    if isinstance(init, ir.VirtualRegister) \
            and def_block.get(id(init)) in body:
        return None
    limit = rhs
    if isinstance(limit, ir.VirtualRegister) \
            and def_block.get(id(limit)) in body:
        return None

    groups: dict[tuple, SiteGroup] = {}
    dead: set[int] = set()
    guard_addend = 0
    init_floor = 0
    for block in sorted(body, key=lambda b: cfg.rpo_index.get(b, 1 << 30)):
        for instruction in block.instructions:
            classified = _classify_site(instruction, phi, body, defs,
                                        def_block, uses)
            if classified is None:
                continue
            site, stride, base, chain, (addend, narrow, zext) = classified
            if narrow and addend > 0:
                guard_addend = max(guard_addend, addend)
            if zext and addend < 0:
                init_floor = max(init_floor, -addend)
            key = (id(base), stride, site.value_type.size,
                   "float" if isinstance(site.value_type, irt.FloatType)
                   else "int")
            group = groups.get(key)
            if group is None:
                group = SiteGroup(base, stride, key[2], key[3])
                groups[key] = group
            group.sites.append(site)
            if site.drop_gep:
                _collect_dead(site, chain, defs, uses, dead)
    if not groups:
        return None
    for group in groups.values():
        offsets = [site.const_offset for site in group.sites]
        group.lo = min(offsets)
        group.hi = max(offsets)
    plan = LoopPlan(header, preheader, phi, init, step, limit, predicate,
                    lhs.type.bits, list(groups.values()))
    plan.dead = dead
    plan.guard_addend = guard_addend
    plan.init_floor = init_floor
    return plan


def _collect_dead(site, chain, defs, uses, dead: set) -> None:
    """Pure instructions the fast path may skip once the site's GEP is
    dropped: the folded constant-index GEP chain (each link's sole use
    is the dropped link above it) and a single-use sext/zext feeding the
    dropped GEP's dynamic index.  All of these are non-trapping once the
    guard has verified the base is a live array Address."""
    for link in chain:
        if uses.get(id(link.result), 0) != 1:
            break  # shared by something the fast path still runs
        dead.add(id(link))
    for index in site.gep.indices:
        # The index chain (ext / phi±const arithmetic, possibly both) is
        # droppable link by link while each link's sole consumer is the
        # link just dropped above it.
        current = index
        for _ in range(3):
            if not isinstance(current, ir.VirtualRegister) \
                    or uses.get(id(current), 0) != 1:
                break
            definition = defs.get(id(current))
            if isinstance(definition, inst.Cast) \
                    and definition.kind in ("sext", "zext"):
                dead.add(id(definition))
                current = definition.value
            elif isinstance(definition, inst.BinOp) \
                    and definition.op in ("add", "sub"):
                dead.add(id(definition))
                break
            else:
                break


def _classify_site(instruction, phi, body, defs, def_block, uses):
    """A (SiteAccess, stride, base, chain) tuple when ``instruction`` is
    a speculable access of the loop's induction pattern, else None.
    ``base`` is the loop-invariant pointer after folding any chain of
    constant-index GEPs (``chain``, outer → inner) into the constant
    offset — the front end addresses ``array[i]`` as a decay GEP feeding
    a dynamic GEP."""
    if isinstance(instruction, inst.Load):
        pointer, value_type, is_store = (instruction.pointer,
                                         instruction.result.type, False)
    elif isinstance(instruction, inst.Store):
        pointer, value_type, is_store = (instruction.pointer,
                                         instruction.value.type, True)
    else:
        return None
    if not isinstance(value_type, (irt.IntType, irt.FloatType)):
        return None
    gep = defs.get(id(pointer)) \
        if isinstance(pointer, ir.VirtualRegister) else None
    if not isinstance(gep, inst.Gep) \
            or def_block.get(id(gep.result)) not in body:
        return None
    const_offset, dynamic, _final = inst.lower_gep(gep.base.type.pointee,
                                                   gep.indices)
    if len(dynamic) != 1:
        return None
    index_value, stride = dynamic[0]
    induction = _induction_addend(index_value, phi, defs)
    if induction is None:
        return None
    const_offset += induction[0] * stride
    base = gep.base
    chain: list[inst.Gep] = []
    for _ in range(8):
        if not (isinstance(base, ir.VirtualRegister)
                and def_block.get(id(base)) in body):
            break
        inner = defs.get(id(base))
        if not isinstance(inner, inst.Gep):
            break
        inner_offset, inner_terms, _final = inst.lower_gep(
            inner.base.type.pointee, inner.indices)
        if inner_terms:
            break  # dynamic inner index: not foldable
        const_offset += inner_offset
        chain.append(inner)
        base = inner.base
    elem = value_type.size
    if stride <= 0 or stride % elem or const_offset % elem:
        return None
    if isinstance(base, ir.VirtualRegister) \
            and def_block.get(id(base)) in body:
        return None
    drop_gep = uses.get(id(gep.result), 0) == 1
    return (SiteAccess(instruction, gep, const_offset, value_type,
                       is_store, drop_gep), stride, base, chain, induction)


def _induction_addend(value, phi, defs):
    """``(addend, narrow, zext)`` when ``value`` is the induction
    variable plus a compile-time constant, else None.

    Recognized shapes (the wrap guard pins the phi to
    ``[0, 2^(bits-1))``, where sign- and zero-extension agree with the
    raw register value):

    * ``phi`` / ``ext(phi)``                        → addend 0
    * ``phi ± c`` / ``ext(phi ± c)``                → addend ±c, computed
      at the *narrow* phi width (guard must keep ``last + c`` from
      wrapping); ``zext`` of a negative intermediate flips its sign, so
      that combination additionally requires ``init ≥ c`` (init_floor)
    * ``ext(phi) ± c`` in a strictly wider type     → addend ±c, wide
      arithmetic (no extra wrap exposure for |c| < 2^phi.bits)
    """

    def const_addend(definition, operand):
        """±c when ``definition`` is ``operand ± ConstInt``."""
        if not isinstance(definition, inst.BinOp):
            return None
        if definition.op == "add":
            if definition.lhs is operand \
                    and isinstance(definition.rhs, ir.ConstInt):
                return definition.rhs.signed_value
            if definition.rhs is operand \
                    and isinstance(definition.lhs, ir.ConstInt):
                return definition.lhs.signed_value
        elif definition.op == "sub" and definition.lhs is operand \
                and isinstance(definition.rhs, ir.ConstInt):
            return -definition.rhs.signed_value
        return None

    if value is phi.result:
        return (0, False, False)
    definition = defs.get(id(value)) \
        if isinstance(value, ir.VirtualRegister) else None
    if isinstance(definition, inst.Cast) \
            and definition.kind in ("sext", "zext"):
        inner = definition.value
        if inner is phi.result:
            return (0, False, False)
        inner_def = defs.get(id(inner)) \
            if isinstance(inner, ir.VirtualRegister) else None
        addend = const_addend(inner_def, phi.result)
        if addend is None:
            return None
        return (addend, True, definition.kind == "zext")
    addend = const_addend(definition, phi.result)
    if addend is not None:
        return (addend, True, False)
    if isinstance(definition, inst.BinOp):
        for operand in (definition.lhs, definition.rhs):
            ext = defs.get(id(operand)) \
                if isinstance(operand, ir.VirtualRegister) else None
            if isinstance(ext, inst.Cast) and ext.kind in ("sext", "zext") \
                    and ext.value is phi.result \
                    and isinstance(definition.result.type, irt.IntType) \
                    and isinstance(phi.result.type, irt.IntType) \
                    and definition.result.type.bits \
                    >= phi.result.type.bits + 2:
                addend = const_addend(definition, operand)
                if addend is not None \
                        and abs(addend) < (1 << phi.result.type.bits):
                    return (addend, False, False)
    return None


def _clean_blocks(function, cfg, defs) -> dict:
    """Greatest fixpoint of "every path from entry to the end of this
    block is effect-free".  Effects: any call, and any store that is not
    provably to a fresh local alloca (a replayed activation re-creates
    its allocas, so writes to them are discarded with the frame)."""
    free = {}
    for block in function.blocks:
        ok = True
        for instruction in block.instructions:
            if isinstance(instruction, inst.Call):
                ok = False
                break
            if isinstance(instruction, inst.Store) \
                    and not _stores_to_local(instruction, defs):
                ok = False
                break
        free[block] = ok
    clean = dict(free)
    changed = True
    while changed:
        changed = False
        for block in cfg.reverse_postorder:
            if block is cfg.entry or not clean.get(block, False):
                continue
            if not all(clean.get(pred, False)
                       for pred in cfg.predecessors[block]):
                clean[block] = False
                changed = True
    return clean


def _stores_to_local(store: inst.Store, defs) -> bool:
    value = store.pointer
    for _ in range(32):
        if not isinstance(value, ir.VirtualRegister):
            return False
        definition = defs.get(id(value))
        if isinstance(definition, inst.Alloca):
            return True
        if isinstance(definition, inst.Gep):
            value = definition.base
        elif isinstance(definition, inst.Cast) \
                and definition.kind == "bitcast":
            value = definition.value
        else:
            return False
    return False
