"""Promote scalar allocas to SSA registers (LLVM's mem2reg).

Maximal-phi construction, in four steps that each visit the function
once:

1. Insert a phi per promoted variable at the head of every block that
   has predecessors (the entry excepted), named ``m2r.<var>.<n>`` in
   block order.
2. Walk the blocks in layout order, tracking each variable's current
   value (the block's phi, the last store, or undef).  Promoted
   allocas, loads and stores are deleted; each load's result is
   recorded in one substitution map instead of being rewritten.
3. Fill each phi from its predecessors' exit values, then remove the
   trivial phis (all operands but self-references are one value) with
   a worklist over phi users, as in Braun et al., "Simple and Efficient
   Construction of Static Single Assignment Form" (CC 2013): a removed
   phi maps to that value, and only the phis that used it are examined
   again.
4. Rewrite every operand once, through the map.

Nothing is rewritten before the map is complete, so a value stored in
a block laid out before the block that defines it resolves like any
other.  The cost is near-linear in the instructions plus the phi
operands (variables x CFG edges): lookups through the map compress
their paths, and a phi is examined again only when one of its operands
was removed.
"""

from __future__ import annotations

from collections import deque

from .. import ir
from ..ir import instructions as inst
from ..ir import types as irt


def _promotable(function: ir.Function) -> list[inst.Alloca]:
    """Allocas of scalar type whose address is only used by direct
    loads/stores (never escapes)."""
    candidates: dict[ir.VirtualRegister, inst.Alloca] = {}
    for instruction in function.instructions():
        if isinstance(instruction, inst.Alloca) and isinstance(
                instruction.allocated_type,
                (irt.IntType, irt.FloatType, irt.PointerType)):
            candidates[instruction.result] = instruction
    for instruction in function.instructions():
        if isinstance(instruction, inst.Load):
            continue
        if isinstance(instruction, inst.Store):
            # The *value* operand escaping disqualifies the alloca.
            if instruction.value in candidates:
                candidates.pop(instruction.value, None)
            continue
        for operand in instruction.operands():
            if operand in candidates:
                candidates.pop(operand, None)
    return list(candidates.values())


def run(function: ir.Function) -> bool:
    allocas = _promotable(function)
    if not allocas:
        return False
    variables = {alloca.result: i for i, alloca in enumerate(allocas)}
    types = [alloca.allocated_type for alloca in allocas]
    preds = function.compute_predecessors()

    # 1. Insert a (maximal) phi per variable in every block with >1 preds
    #    or any preds (except entry with 0).
    counter = [0]

    def fresh(var_index: int) -> ir.VirtualRegister:
        counter[0] += 1
        return ir.VirtualRegister(f"m2r.{var_index}.{counter[0]}",
                                  types[var_index])

    phis: dict[ir.Block, list[inst.Phi | None]] = {}
    for block in function.blocks:
        if block is function.entry or not preds[block]:
            continue
        block_phis: list[inst.Phi | None] = []
        row = []
        for var_index in range(len(allocas)):
            phi = inst.Phi(fresh(var_index), [])
            row.append(phi)
            block_phis.append(phi)
        phis[block] = block_phis
        block.instructions[0:0] = row

    # 2. Rename: walk each block; incoming value is the block's phi (or
    #    undef in the entry).  Loads become substitutions.
    subst: dict[ir.Value, ir.Value] = {}
    out_values: dict[ir.Block, list[ir.Value]] = {}
    for block in function.blocks:
        if block in phis:
            current: list[ir.Value] = [phi.result for phi in phis[block]]
        else:
            current = [ir.ConstUndef(t) for t in types]
        new_instructions = []
        for instruction in block.instructions:
            if isinstance(instruction, inst.Alloca) \
                    and instruction.result in variables:
                continue
            if isinstance(instruction, inst.Load) \
                    and instruction.pointer in variables:
                index = variables[instruction.pointer]
                # Only non-SSA input (unreachable code) can make a load
                # see its own result; mapping that would loop.
                value = _resolve(subst, current[index])
                if value is not instruction.result:
                    subst[instruction.result] = value
                continue
            if isinstance(instruction, inst.Store) \
                    and instruction.pointer in variables:
                current[variables[instruction.pointer]] = instruction.value
                continue
            new_instructions.append(instruction)
        block.instructions = new_instructions
        out_values[block] = current

    # 3. Wire the phis to their predecessors' exit values, then drop the
    #    trivial ones.
    for block, block_phis in phis.items():
        for var_index, phi in enumerate(block_phis):
            phi.incoming = [
                (pred, out_values[pred][var_index]) for pred in preds[block]
            ]
    removed = _remove_trivial_phis(function, subst)

    # 4. Apply the substitutions in one pass.
    for block in function.blocks:
        kept = []
        for instruction in block.instructions:
            if isinstance(instruction, inst.Phi):
                if instruction in removed:
                    continue
                instruction.incoming = [
                    (pred, _resolve(subst, value))
                    for pred, value in instruction.incoming]
            else:
                for operand in instruction.operands():
                    if operand in subst:
                        instruction.replace_operand(
                            operand, _resolve(subst, operand))
            kept.append(instruction)
        block.instructions = kept
    return True


def _resolve(subst: dict[ir.Value, ir.Value], value: ir.Value) -> ir.Value:
    """Follow ``value`` through the substitution map, compressing the
    path.  Every entry maps a value that was unmapped to a different
    unmapped value, so chains always end."""
    path = []
    while value in subst:
        path.append(value)
        value = subst[value]
    for key in path:
        subst[key] = value
    return value


def _remove_trivial_phis(function: ir.Function,
                         subst: dict[ir.Value, ir.Value]) -> set[inst.Phi]:
    """Map every trivial phi to its one value in ``subst``; returns the
    phis to delete.  A phi whose only operand is itself is deleted
    without a substitution."""
    order = [phi for block in function.blocks for phi in block.phis()]
    users: dict[ir.Value, list[inst.Phi]] = {}
    for phi in order:
        for _, value in phi.incoming:
            users.setdefault(_resolve(subst, value), []).append(phi)
    removed: set[inst.Phi] = set()
    worklist = deque(order)
    while worklist:
        phi = worklist.popleft()
        if phi in removed:
            continue
        same = None
        for _, value in phi.incoming:
            value = _resolve(subst, value)
            if value is phi.result \
                    or (same is not None and _same_value(value, same)):
                continue
            if same is not None:
                break
            same = value
        else:
            removed.add(phi)
            if same is not None:
                subst[phi.result] = same
                # The phi's users now use ``same``: look at them again,
                # and again if ``same`` is a phi that goes later.
                waiting = users.pop(phi.result, [])
                worklist.extend(waiting)
                users.setdefault(same, []).extend(waiting)
    return removed


def _same_value(a: ir.Value, b: ir.Value) -> bool:
    if a is b:
        return True
    if isinstance(a, ir.ConstInt) and isinstance(b, ir.ConstInt):
        return a.type == b.type and a.value == b.value
    if isinstance(a, ir.ConstUndef) and isinstance(b, ir.ConstUndef):
        return a.type == b.type
    return False
