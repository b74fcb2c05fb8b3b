"""Null-pointer and points-to-region analysis.

Tracks, per pointer-typed register, a :class:`PointerFact`:

* nullness — ``NULL`` (definitely null), ``NONNULL`` (definitely not
  null), or ``MAYBE``;
* region — the single allocation the pointer provably points into
  (an alloca site, a global, or a malloc/calloc/realloc call site),
  when known, with the allocation's byte size when that is constant;
* offset — a signed byte-offset :class:`Interval` into the region.

Facts propagate through ``alloca``/``gep``/``phi``/``select``/casts and
are refined along ``p == NULL`` / ``p != NULL`` branch edges.  The lint
driver consumes the facts for definite-NULL-dereference and constant
out-of-bounds reports; the elision pass consumes them as *proofs* that
a dynamic check cannot fire.
"""

from __future__ import annotations

from ..ir import instructions as inst
from ..ir import types as irt
from ..ir import values as irv
from ..ir.module import Block, Function
from .cfg import ControlFlowGraph
from .dataflow import (DataflowAnalysis, resolve_branch_compare,
                       scalar_slots, solve)
from .intervals import Interval, IntervalAnalysis

NULL = "null"
NONNULL = "nonnull"
MAYBE = "maybe"

# Heap-allocating libc entry points the analysis understands.
ALLOCATORS = {"malloc", "calloc", "realloc", "aligned_alloc"}


class Region:
    """One allocation, identified by its site (nominal identity)."""

    __slots__ = ("kind", "site", "size", "label")

    def __init__(self, kind: str, site: object, size: int | None,
                 label: str):
        self.kind = kind  # "stack" | "global" | "heap" | "param"
        self.site = site  # Alloca | GlobalVariable | Call | param reg
        self.size = size  # byte size when statically known
        self.label = label

    def __eq__(self, other) -> bool:
        return isinstance(other, Region) and self.site is other.site

    def __hash__(self) -> int:
        return hash(id(self.site))

    def __repr__(self) -> str:
        size = "?" if self.size is None else str(self.size)
        return f"<Region {self.kind} {self.label} size={size}>"

    @property
    def freeable(self) -> bool:
        return self.kind == "heap"


class PointerFact:
    """Abstract value of one pointer-typed register."""

    __slots__ = ("nullness", "region", "offset")

    def __init__(self, nullness: str, region: Region | None = None,
                 offset: Interval | None = None):
        self.nullness = nullness
        self.region = region
        self.offset = offset if region is not None else None

    def __eq__(self, other) -> bool:
        return isinstance(other, PointerFact) and \
            self.nullness == other.nullness and \
            self.region == other.region and self.offset == other.offset

    def __hash__(self) -> int:
        return hash((self.nullness, self.region, self.offset))

    def __repr__(self) -> str:
        parts = [self.nullness]
        if self.region is not None:
            parts.append(repr(self.region))
            parts.append(f"+{self.offset}")
        return f"<PointerFact {' '.join(parts)}>"

    def join(self, other: "PointerFact") -> "PointerFact":
        nullness = self.nullness if self.nullness == other.nullness \
            else MAYBE
        if self.region is not None and self.region == other.region:
            offset = self.offset.join(other.offset) \
                if self.offset is not None and other.offset is not None \
                else None
            return PointerFact(nullness, self.region, offset)
        return PointerFact(nullness)

    def shifted(self, delta: Interval) -> "PointerFact":
        offset = self.offset.add(delta) if self.offset is not None else None
        return PointerFact(self.nullness, self.region, offset)


TOP_FACT = PointerFact(MAYBE)
NULL_FACT = PointerFact(NULL)


class PointerAnalysis(DataflowAnalysis):
    """Forward analysis; state maps ``id(register) -> PointerFact``.
    Missing key = top (MAYBE, unknown region) — so a register whose
    definition does not dominate a use washes out to top on the paths
    that bypass the definition, which keeps every stored fact a proof.
    """

    def __init__(self, function: Function,
                 intervals: IntervalAnalysis | None = None,
                 cfg: ControlFlowGraph | None = None,
                 summaries: dict | None = None,
                 param_regions: bool = False):
        super().__init__()
        self.function = function
        self.cfg = cfg or ControlFlowGraph(function)
        self.intervals = intervals or \
            IntervalAnalysis(function, self.cfg).run()
        # name -> FunctionSummary (interprocedural mode): callee return
        # facts (fresh-heap wrappers, never-null / always-null returns)
        # become pointer facts at call sites.
        self.summaries = summaries or {}
        # Seed one "param" pseudo-region per pointer parameter, so the
        # summary computation can follow a parameter through copies and
        # -O0 slot reloads.  Param regions are *identities*, not safety
        # proofs: their base address may be null or garbage, so the
        # elision pass never accepts them (see opt/elide.py).
        self.param_regions = param_regions
        self.result = None
        # Final fact per register definition (regions are flow-invariant
        # in SSA, so these are exact for region queries).
        self.at_def: dict[int, PointerFact] = {}
        # Non-escaping pointer-typed stack slots (-O0 IR reloads every
        # local at each use); contents are tracked through the state
        # under ("mem", id(slot register)) keys, as a PointerFact or as
        # ("alias", register) — see IntervalAnalysis.slots.
        self.slots = scalar_slots(
            function, lambda t: isinstance(t, irt.PointerType))
        # Block currently being transferred/replayed; used to look up
        # the matching interval state for gep index refinement.
        self._current_block: Block | None = None

    def run(self) -> "PointerAnalysis":
        self.result = solve(self, self.function, self.cfg)
        # Parameters are not instruction results, so the at_def replay
        # below never records them; flow-insensitive queries
        # (region_of, summary collection) still need their seed facts.
        for key, fact in self.boundary_state(self.function).items():
            self.at_def.setdefault(key, fact)
        for block, state in self.result.input.items():
            self._current_block = block
            state = dict(state)
            for instruction in block.instructions:
                self._transfer_instruction(instruction, state)
                result = instruction.result
                if result is not None and id(result) in state:
                    existing = self.at_def.get(id(result))
                    fact = state[id(result)]
                    self.at_def[id(result)] = fact if existing is None \
                        else existing.join(fact)
        return self

    # -- queries ------------------------------------------------------------

    def fact_for(self, value: irv.Value,
                 state: dict | None = None) -> PointerFact:
        if isinstance(value, irv.VirtualRegister):
            if state is not None and id(value) in state:
                return state[id(value)]
            return self.at_def.get(id(value), TOP_FACT)
        return self._constant_fact(value)

    def region_of(self, value: irv.Value) -> Region | None:
        return self.fact_for(value).region

    def visit(self, callback) -> None:
        """Replay the fixpoint over every reachable instruction, calling
        ``callback(block, instruction, state_before)``."""
        if self.result is None:
            self.run()
        for block in self.cfg.reverse_postorder:
            if block not in self.result.input:
                continue
            self._current_block = block
            state = dict(self.result.input[block])
            for instruction in block.instructions:
                callback(block, instruction, state)
                self._transfer_instruction(instruction, state)

    # -- constants ----------------------------------------------------------

    def _constant_fact(self, value: irv.Value) -> PointerFact:
        if isinstance(value, irv.ConstNull):
            return NULL_FACT
        if isinstance(value, irv.GlobalVariable):
            return PointerFact(NONNULL, self._global_region(value),
                               Interval.const(0))
        if isinstance(value, irv.ConstGEP):
            base = self._constant_fact(value.base)
            return base.shifted(Interval.const(value.byte_offset))
        if isinstance(value, Function):
            return PointerFact(NONNULL)
        if isinstance(value, irv.ConstZero):
            return NULL_FACT
        return TOP_FACT

    def _global_region(self, gvar: irv.GlobalVariable) -> Region:
        try:
            size = gvar.value_type.size
        except TypeError:
            size = None
        return Region("global", gvar, size, f"@{gvar.name}")

    # -- lattice hooks ------------------------------------------------------

    def boundary_state(self, function: Function):
        if not self.param_regions:
            return {}
        state = {}
        for param in function.params:
            if isinstance(param.type, irt.PointerType):
                region = Region("param", param, None, f"%{param.name}")
                state[id(param)] = PointerFact(MAYBE, region,
                                               Interval.const(0))
        return state

    def join(self, states):
        if not states:
            return {}
        if len(states) == 1:
            return dict(states[0])
        merged = {}
        for key in states[0]:
            if not all(key in state for state in states[1:]):
                continue
            if isinstance(key, tuple):
                values = [state[key] for state in states]
                if all(value == values[0] for value in values[1:]):
                    merged[key] = values[0]  # e.g. the same alias
                    continue
                fact = None
                for state in states:
                    resolved = self._slot_fact(state[key], state)
                    fact = resolved if fact is None else fact.join(resolved)
                if fact != TOP_FACT:
                    merged[key] = fact
                continue
            fact = states[0][key]
            for state in states[1:]:
                fact = fact.join(state[key])
            if fact != TOP_FACT:
                merged[key] = fact
        return merged

    def merge(self, block: Block, incoming):
        merged = self.join([state for _, state in incoming])
        by_pred = dict(incoming)
        for phi in block.phis():
            if not isinstance(phi.result.type, irt.PointerType):
                continue
            fact = None
            for pred, value in phi.incoming:
                if pred not in by_pred:
                    continue
                arm = self.fact_for(value, by_pred[pred])
                fact = arm if fact is None else fact.join(arm)
            if fact is not None and fact != TOP_FACT:
                merged[id(phi.result)] = fact
            else:
                merged.pop(id(phi.result), None)
        return merged

    def widen(self, block: Block, old, new):
        # The region/nullness components have finite height; only the
        # offset intervals can grow forever.
        widened = {}
        for key, fact in new.items():
            if key not in old:
                continue
            previous = old[key]
            if isinstance(key, tuple):
                if previous == fact:
                    widened[key] = fact
                    continue
                previous = self._slot_fact(previous, old)
                fact = self._slot_fact(fact, new)
            if previous.region is not None and \
                    previous.region == fact.region and \
                    previous.offset is not None and fact.offset is not None:
                fact = PointerFact(fact.nullness, fact.region,
                                   previous.offset.widen(fact.offset))
            fact = previous.join(fact) if fact != previous else fact
            if fact != TOP_FACT:
                widened[key] = fact
        return widened

    def transfer(self, block: Block, state):
        self._current_block = block
        state = dict(state)
        for instruction in block.instructions:
            self._transfer_instruction(instruction, state)
        return state

    def _transfer_instruction(self, instruction, state) -> None:
        result = instruction.result
        if isinstance(instruction, inst.Alloca):
            try:
                size = instruction.allocated_type.size
            except TypeError:
                size = None
            region = Region("stack", instruction, size,
                            f"%{instruction.var_name}")
            state[id(result)] = PointerFact(NONNULL, region,
                                            Interval.const(0))
            return
        if isinstance(instruction, inst.Gep):
            self._transfer_gep(instruction, state)
            return
        if isinstance(instruction, inst.Cast):
            self._transfer_cast(instruction, state)
            return
        if isinstance(instruction, inst.Select) and \
                isinstance(result.type, irt.PointerType):
            fact = self.fact_for(instruction.if_true, state).join(
                self.fact_for(instruction.if_false, state))
            self._set(state, result, fact)
            return
        if isinstance(instruction, inst.Call):
            self._transfer_call(instruction, state)
            return
        if isinstance(instruction, (inst.Load, inst.Store)):
            # A completed access proves the pointer was non-null; later
            # instructions on this path may rely on it.
            pointer = instruction.pointer
            if isinstance(pointer, irv.VirtualRegister):
                fact = state.get(id(pointer), TOP_FACT)
                if fact.nullness == MAYBE:
                    state[id(pointer)] = PointerFact(
                        NONNULL, fact.region, fact.offset)
            if isinstance(instruction, inst.Store):
                key = self._slot_key(pointer)
                if key is not None:
                    value = instruction.value
                    if isinstance(value, irv.VirtualRegister):
                        state[key] = ("alias", value)
                    else:
                        fact = self._constant_fact(value)
                        if fact == TOP_FACT:
                            state.pop(key, None)
                        else:
                            state[key] = fact
                return
            if isinstance(result.type, irt.PointerType):
                key = self._slot_key(pointer)
                if key is not None:
                    fact = self._slot_fact(state.get(key), state)
                    self._set(state, result, fact)
                    # Re-alias so later refinements of this loaded copy
                    # reach subsequent reloads of the same slot.
                    state[key] = ("alias", result)
                else:
                    state.pop(id(result), None)  # memory is untracked
            return
        if isinstance(instruction, inst.Phi):
            return  # handled edge-wise in merge()
        if result is not None and isinstance(result.type, irt.PointerType):
            state.pop(id(result), None)

    def _transfer_gep(self, instruction: inst.Gep, state) -> None:
        base = self.fact_for(instruction.base, state)
        delta = self._gep_delta(instruction, state)
        fact = base.shifted(delta) if delta is not None \
            else PointerFact(base.nullness, base.region, None)
        # gep never turns a null pointer into a valid one, nor a valid
        # region pointer into null; nullness carries over unchanged.
        self._set(state, instruction.result, fact)

    def _gep_delta(self, instruction: inst.Gep, state) -> Interval | None:
        """Byte-offset interval a gep adds to its base (the shared
        ``inst.lower_gep``); ``None`` when unbounded."""
        offset, terms, _final = inst.lower_gep(instruction.base.type.pointee,
                                               instruction.indices)
        total = Interval.const(offset)
        for index, stride in terms:
            term = self.intervals.value_interval(index,
                                                 self._interval_state())
            total = total.add(term.scaled(stride))
            if total.is_top:
                return None
        return total

    def _transfer_cast(self, instruction: inst.Cast, state) -> None:
        result = instruction.result
        if not isinstance(result.type, irt.PointerType):
            return
        if instruction.kind == "bitcast":
            # Byte-level region and offset survive a pointer bitcast.
            self._set(state, result,
                      self.fact_for(instruction.value, state))
            return
        if instruction.kind == "inttoptr":
            fact = self.intervals.value_interval(instruction.value, None)
            if fact.is_constant and fact.lo == 0:
                state[id(result)] = NULL_FACT
            else:
                state.pop(id(result), None)
            return
        state.pop(id(result), None)

    def _transfer_call(self, instruction: inst.Call, state) -> None:
        result = instruction.result
        callee = instruction.callee
        name = callee.name if isinstance(callee, Function) else None
        if result is None or not isinstance(result.type, irt.PointerType):
            return
        if name in ALLOCATORS:
            size = self._allocation_size(name, instruction.args)
            region = Region("heap", instruction, size, f"{name}()")
            # The managed allocator never returns NULL (allocation
            # failure aborts the interpreter, §3.2), so the result
            # is provably non-null.
            state[id(result)] = PointerFact(NONNULL, region,
                                            Interval.const(0))
            return
        summary = self.summaries.get(name) if name is not None else None
        if summary is not None:
            # The callee's summarized return facts become pointer facts
            # here: a malloc wrapper yields a fresh heap region at this
            # call site, and never/always-null returns carry over.
            if summary.returns_null == "always":
                state[id(result)] = NULL_FACT
                return
            nullness = NONNULL if summary.returns_null == "never" \
                else MAYBE
            if summary.returns_new_heap:
                region = Region("heap", instruction, summary.ret_size,
                                f"{name}()")
                state[id(result)] = PointerFact(nullness, region,
                                                Interval.const(0))
                return
            if nullness == NONNULL:
                state[id(result)] = PointerFact(NONNULL)
                return
        state.pop(id(result), None)

    def _allocation_size(self, name: str, args) -> int | None:
        if name == "malloc" and args:
            fact = self.intervals.value_interval(args[0], None)
            return fact.lo if fact.is_constant and fact.lo >= 0 else None
        if name == "calloc" and len(args) >= 2:
            count = self.intervals.value_interval(args[0], None)
            size = self.intervals.value_interval(args[1], None)
            if count.is_constant and size.is_constant and \
                    count.lo >= 0 and size.lo >= 0:
                return count.lo * size.lo
        if name == "realloc" and len(args) >= 2:
            fact = self.intervals.value_interval(args[1], None)
            return fact.lo if fact.is_constant and fact.lo >= 0 else None
        if name == "aligned_alloc" and len(args) >= 2:
            fact = self.intervals.value_interval(args[1], None)
            return fact.lo if fact.is_constant and fact.lo >= 0 else None
        return None

    @staticmethod
    def _set(state, register, fact: PointerFact) -> None:
        if fact == TOP_FACT:
            state.pop(id(register), None)
        else:
            state[id(register)] = fact

    # -- tracked stack slots ------------------------------------------------

    def _slot_key(self, pointer) -> tuple | None:
        if isinstance(pointer, irv.VirtualRegister) and \
                id(pointer) in self.slots:
            return ("mem", id(pointer))
        return None

    def _slot_fact(self, entry, state) -> PointerFact:
        if entry is None:
            return TOP_FACT
        if isinstance(entry, tuple):  # ("alias", register)
            return self.fact_for(entry[1], state)
        return entry

    def _interval_state(self) -> dict | None:
        """Interval state at the entry of the block being transferred,
        so gep indices see branch-refined (e.g. loop-bounded) ranges."""
        result = self.intervals.result
        if result is None or self._current_block is None:
            return None
        return result.input.get(self._current_block)

    # -- branch refinement --------------------------------------------------

    def refine_edge(self, pred: Block, succ: Block, state):
        state = super().refine_edge(pred, succ, state)
        if state is None:
            return None
        terminator = pred.terminator
        if not isinstance(terminator, inst.CondBr) or \
                terminator.if_true is terminator.if_false:
            return state
        condition = terminator.condition
        branch = succ is terminator.if_true
        resolved = resolve_branch_compare(condition, branch,
                                          self.definitions)
        if resolved is None:
            return state
        definition, branch = resolved
        if definition.predicate not in ("eq", "ne") or \
                not isinstance(definition.lhs.type, irt.PointerType):
            return state
        equal_edge = branch == (definition.predicate == "eq")
        lhs_fact = self.fact_for(definition.lhs, state)
        rhs_fact = self.fact_for(definition.rhs, state)
        for value, own, other in ((definition.lhs, lhs_fact, rhs_fact),
                                  (definition.rhs, rhs_fact, lhs_fact)):
            if other.nullness != NULL:
                continue
            # Comparison against a definite NULL: the equal edge makes
            # ``value`` NULL, the unequal edge makes it NONNULL.
            implied = NULL if equal_edge else NONNULL
            if own.nullness != MAYBE and own.nullness != implied:
                return None  # contradiction: edge infeasible
            if own.nullness == implied:
                continue
            state = dict(state)
            if implied == NULL:
                state[id(value)] = NULL_FACT
            else:
                state[id(value)] = PointerFact(NONNULL, own.region,
                                               own.offset)
        return state
