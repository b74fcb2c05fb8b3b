"""Generic forward worklist dataflow solver.

An analysis subclasses :class:`DataflowAnalysis` and provides lattice
operations; :func:`solve` runs the worklist to a fixpoint over one
function's CFG.  Conventions shared by every client:

* a block-level state of ``None`` means *unreachable / bottom*;
* ``merge`` receives the per-edge states (so phi nodes can be evaluated
  per incoming edge);
* ``refine_edge`` may sharpen the state along one CFG edge — or return
  ``None`` to declare the edge infeasible (constant branch conditions
  are pruned here, so dead code produces neither facts nor diagnostics);
* loop headers are widening points: ``widen`` is applied there to
  guarantee termination on infinite-height lattices (intervals).
"""

from __future__ import annotations

from typing import Any

from ..ir import instructions as inst
from ..ir import values as irv
from ..ir.module import Block, Function
from .cfg import ControlFlowGraph

State = Any


def definition_map(function: Function) -> dict[int, inst.Instruction]:
    """``id(register) -> defining instruction`` for every register def.

    Registers are keyed by identity (``VirtualRegister`` has no value
    equality and slots forbid attaching attributes)."""
    defs: dict[int, inst.Instruction] = {}
    for block in function.blocks:
        for instruction in block.instructions:
            if instruction.result is not None:
                defs[id(instruction.result)] = instruction
    return defs


def scalar_slots(function: Function, pointee_ok) -> dict[int, "inst.Alloca"]:
    """``id(alloca register) -> alloca`` for every stack slot whose
    address never escapes — every use of the register is a direct load
    or store *through* it — and whose pointee satisfies ``pointee_ok``.

    Unoptimized (-O0 style) IR keeps every local in such a slot and
    reloads it at each use, so a flow-sensitive analysis that ignores
    memory learns nothing across statements.  Non-escaping slots have no
    aliases and cannot be touched by callees, which makes tracking
    their contents through the analysis state sound.
    """
    slots: dict[int, inst.Alloca] = {}
    for block in function.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, inst.Alloca):
                pointee = getattr(instruction.result.type, "pointee", None)
                if pointee is not None and pointee_ok(pointee):
                    slots[id(instruction.result)] = instruction
    if not slots:
        return slots
    for block in function.blocks:
        for instruction in block.instructions:
            if isinstance(instruction, inst.Load):
                continue  # the pointer operand is a direct use
            if isinstance(instruction, inst.Store):
                # Storing *to* the slot is direct; storing the slot's
                # address somewhere publishes it.
                value = instruction.value
                if isinstance(value, irv.VirtualRegister):
                    slots.pop(id(value), None)
                continue
            for operand in instruction.operands():
                if isinstance(operand, irv.VirtualRegister):
                    slots.pop(id(operand), None)
    return slots


def _constant_condition(condition, defs) -> bool | None:
    """Evaluate a branch condition that is statically constant.

    Handles a literal ``i1`` constant and an ``icmp`` whose operands are
    both integer constants (the front end lowers ``if (0)`` to the
    latter).  Returns ``None`` when the condition is not constant.
    """
    if isinstance(condition, irv.ConstInt):
        return condition.value != 0
    if isinstance(condition, irv.VirtualRegister):
        definition = defs.get(id(condition))
        if isinstance(definition, inst.ICmp) and \
                isinstance(definition.lhs, irv.ConstInt) and \
                isinstance(definition.rhs, irv.ConstInt):
            return evaluate_icmp(definition.predicate,
                                 definition.lhs, definition.rhs)
    return None


def _is_compare_chain(value, defs) -> bool:
    """Is ``value`` an i1 compare result, possibly widened through
    zext/sext (zero iff the compare was false)?"""
    while isinstance(value, irv.VirtualRegister):
        definition = defs.get(id(value))
        if isinstance(definition, inst.ICmp):
            return True
        if isinstance(definition, inst.Cast) and \
                definition.kind in ("zext", "sext") and \
                getattr(definition.value.type, "bits", 0) == 1:
            value = definition.value
            continue
        negated = _peel_i1_not(definition)
        if negated is not None:
            value = negated
            continue
        return False
    return False


def _peel_i1_not(definition):
    """The operand a boolean-not computes from, or None.  The front end
    lowers ``!b`` to ``xor i1 b, true``; refinement clients must see
    through it to reach the compare that decides the branch."""
    if not isinstance(definition, inst.BinOp) or definition.op != "xor":
        return None
    if getattr(definition.result.type, "bits", 0) != 1:
        return None
    for operand, other in ((definition.lhs, definition.rhs),
                           (definition.rhs, definition.lhs)):
        if isinstance(other, irv.ConstInt) and other.value != 0:
            return operand
    return None


def resolve_branch_compare(condition, branch: bool, defs,
                           depth: int = 8):
    """Walk a CondBr condition back to the compare that decides it.

    The front end lowers ``if (a < b)`` to ``icmp`` → ``zext`` →
    ``icmp ne …, 0`` → ``br``; a client refining only the syntactic
    condition would constrain the 0/1 temporary and never see ``a``.
    Returns ``(icmp, truth)`` — taking the edge implies the compare
    evaluates to ``truth`` — or ``None``.
    """
    while depth > 0:
        depth -= 1
        if not isinstance(condition, irv.VirtualRegister):
            return None
        definition = defs.get(id(condition))
        if isinstance(definition, inst.Cast) and \
                definition.kind in ("zext", "sext", "trunc") and \
                getattr(definition.value.type, "bits", 0) == 1:
            # i1 truth survives widening (sext maps true to -1, which
            # is still nonzero) and an i1-to-i1 trunc.
            condition = definition.value
            continue
        negated = _peel_i1_not(definition)
        if negated is not None:
            branch = not branch
            condition = negated
            continue
        if not isinstance(definition, inst.ICmp):
            return None
        if definition.predicate in ("ne", "eq"):
            peeled = False
            for operand, other in ((definition.lhs, definition.rhs),
                                   (definition.rhs, definition.lhs)):
                if isinstance(other, irv.ConstInt) and \
                        other.value == 0 and \
                        _is_compare_chain(operand, defs):
                    # `b != 0` is `b`; `b == 0` is `!b`.
                    branch = branch if definition.predicate == "ne" \
                        else not branch
                    condition = operand
                    peeled = True
                    break
            if peeled:
                continue
        return definition, branch
    return None


def evaluate_icmp(predicate: str, lhs: irv.ConstInt,
                  rhs: irv.ConstInt) -> bool:
    a_s, b_s = lhs.signed_value, rhs.signed_value
    a_u, b_u = lhs.value, rhs.value
    return {
        "eq": a_u == b_u, "ne": a_u != b_u,
        "slt": a_s < b_s, "sle": a_s <= b_s,
        "sgt": a_s > b_s, "sge": a_s >= b_s,
        "ult": a_u < b_u, "ule": a_u <= b_u,
        "ugt": a_u > b_u, "uge": a_u >= b_u,
    }[predicate]


class DataflowAnalysis:
    """Base class for dataflow clients.  Subclasses override the lattice
    hooks; the solver drives them to a fixpoint."""

    def __init__(self):
        # Populated by solve(): id(register) -> defining instruction.
        self.definitions: dict[int, inst.Instruction] = {}

    def boundary_state(self, function: Function) -> State:
        """State at the entry."""
        return {}

    def join(self, states: list[State]) -> State:
        raise NotImplementedError

    def merge(self, block: Block,
              incoming: list[tuple[Block, State]]) -> State:
        """Combine per-edge states at a join point.  The default
        ignores which edge each state arrived on; phi-aware analyses
        override this."""
        return self.join([state for _, state in incoming])

    def transfer(self, block: Block, state: State) -> State:
        raise NotImplementedError

    def refine_edge(self, pred: Block, succ: Block,
                    state: State) -> State | None:
        """Sharpen ``state`` along the edge ``pred -> succ``; ``None``
        declares the edge infeasible.  The default prunes edges whose
        branch condition is a constant."""
        terminator = pred.terminator
        if isinstance(terminator, inst.CondBr):
            taken = _constant_condition(terminator.condition,
                                        self.definitions)
            if taken is True and succ is terminator.if_false \
                    and succ is not terminator.if_true:
                return None
            if taken is False and succ is terminator.if_true \
                    and succ is not terminator.if_false:
                return None
        return state

    def widen(self, block: Block, old: State, new: State) -> State:
        """Applied at loop headers once both states are defined; must
        guarantee an ascending chain of finite height."""
        return new

    def equal(self, a: State, b: State) -> bool:
        return a == b


class DataflowResult:
    """Fixpoint states: ``input[block]`` is the state before the block's
    first instruction, ``output[block]`` after its terminator.
    Unreachable blocks are absent."""

    def __init__(self, analysis: DataflowAnalysis, cfg: ControlFlowGraph,
                 input: dict[Block, State], output: dict[Block, State]):
        self.analysis = analysis
        self.cfg = cfg
        self.input = input
        self.output = output

    def reached(self, block: Block) -> bool:
        return block in self.input


def solve(analysis: DataflowAnalysis, function: Function,
          cfg: ControlFlowGraph | None = None,
          max_iterations: int = 100_000) -> DataflowResult:
    cfg = cfg or ControlFlowGraph(function)
    analysis.definitions = definition_map(function)
    input_states: dict[Block, State] = {}
    output_states: dict[Block, State] = {}
    boundary = analysis.boundary_state(function)

    order = cfg.rpo_index
    pending: set[Block] = {cfg.entry}
    iterations = 0
    while pending:
        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError(
                f"dataflow did not converge in {function.name} "
                f"(widening missing?)")
        block = min(pending, key=order.__getitem__)
        pending.discard(block)

        incoming: list[tuple[Block, State]] = []
        for pred in cfg.predecessors[block]:
            if pred not in output_states:
                continue
            edge_state = analysis.refine_edge(pred, block,
                                              output_states[pred])
            if edge_state is not None:
                incoming.append((pred, edge_state))
        if block is cfg.entry:
            new_input = analysis.join([boundary] + [
                analysis.merge(block, incoming)]) if incoming else boundary
        else:
            if not incoming:
                continue  # not (yet) reachable
            new_input = analysis.merge(block, incoming)

        if block in input_states and block in cfg.widen_points:
            new_input = analysis.widen(block, input_states[block], new_input)
        if block in input_states and \
                analysis.equal(input_states[block], new_input):
            continue
        input_states[block] = new_input
        output_states[block] = analysis.transfer(block, new_input)
        for succ in cfg.successors[block]:
            pending.add(succ)
    return DataflowResult(analysis, cfg, input_states, output_states)
