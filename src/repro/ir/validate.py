"""IR verifier.

Run after IR generation and after every optimizer pass in the test suite;
catches malformed IR early instead of letting an executor fail obscurely.
"""

from __future__ import annotations

from . import instructions as inst
from . import types as ty
from .module import Function, Module
from .values import Value, VirtualRegister


class ValidationError(Exception):
    pass


def validate_module(module: Module) -> None:
    for func in module.functions.values():
        if func.is_definition:
            validate_function(func)


def validate_function(func: Function) -> None:
    defined: set[int] = {id(p) for p in func.params}
    results_seen: set[int] = set()

    if not func.blocks:
        raise ValidationError(f"@{func.name}: definition has no blocks")

    block_set = set(func.blocks)

    # First pass: collect definitions and structural checks.
    for block in func.blocks:
        if not block.instructions:
            raise ValidationError(
                f"@{func.name}:{block.label}: empty block")
        terminator = block.instructions[-1]
        if not terminator.is_terminator:
            raise ValidationError(
                f"@{func.name}:{block.label}: missing terminator")
        for position, instruction in enumerate(block.instructions):
            if instruction.is_terminator and position != len(block.instructions) - 1:
                raise ValidationError(
                    f"@{func.name}:{block.label}: terminator in the middle")
            if isinstance(instruction, inst.Phi):
                if position and not isinstance(
                        block.instructions[position - 1], inst.Phi):
                    raise ValidationError(
                        f"@{func.name}:{block.label}: phi not at block head")
            result = instruction.result
            if result is not None:
                if id(result) in results_seen:
                    raise ValidationError(
                        f"@{func.name}: register %{result.name} "
                        f"defined twice")
                results_seen.add(id(result))
                defined.add(id(result))
        for successor in block.successors():
            if successor not in block_set:
                raise ValidationError(
                    f"@{func.name}:{block.label}: branch to foreign block "
                    f"{successor.label}")

    # Second pass: uses and per-instruction typing rules.
    predecessors = func.compute_predecessors()
    for block in func.blocks:
        preds = set(predecessors.get(block, ()))
        for instruction in block.instructions:
            for operand in instruction.operands():
                _check_operand(func, defined, operand)
            _check_types(func, instruction)
            if isinstance(instruction, inst.Phi):
                # The dataflow layer evaluates phis edge-wise; an
                # incoming entry whose label is not a real CFG
                # predecessor has no edge to carry its value.
                for pred, _ in instruction.incoming:
                    if pred not in preds:
                        raise ValidationError(
                            f"@{func.name}:{block.label}: phi incoming "
                            f"block {pred.label} is not a predecessor")

    ret_type = func.ftype.ret
    for block in func.blocks:
        terminator = block.terminator
        if isinstance(terminator, inst.Ret):
            if isinstance(ret_type, ty.VoidType):
                if terminator.value is not None:
                    raise ValidationError(
                        f"@{func.name}: ret with value in void function")
            elif terminator.value is None:
                raise ValidationError(
                    f"@{func.name}: ret without value")


def _check_operand(func: Function, defined: set[int], operand: Value) -> None:
    if operand is None:
        raise ValidationError(f"@{func.name}: None operand")
    if isinstance(operand, VirtualRegister) and id(operand) not in defined:
        raise ValidationError(
            f"@{func.name}: use of undefined register %{operand.name}")


def _check_types(func: Function, i: inst.Instruction) -> None:
    name = f"@{func.name}"
    if isinstance(i, inst.Load):
        if not isinstance(i.pointer.type, ty.PointerType):
            raise ValidationError(f"{name}: load from non-pointer")
        if i.pointer.type.pointee != i.result.type:
            raise ValidationError(
                f"{name}: load type mismatch "
                f"({i.pointer.type.pointee} vs {i.result.type})")
    elif isinstance(i, inst.Store):
        if not isinstance(i.pointer.type, ty.PointerType):
            raise ValidationError(f"{name}: store to non-pointer")
        if i.pointer.type.pointee != i.value.type:
            raise ValidationError(
                f"{name}: store type mismatch "
                f"({i.value.type} into {i.pointer.type})")
    elif isinstance(i, inst.BinOp):
        if i.lhs.type != i.rhs.type:
            raise ValidationError(
                f"{name}: binop operand mismatch "
                f"({i.lhs.type} vs {i.rhs.type})")
        if i.op in inst.FLOAT_BINOPS and not ty.is_float(i.lhs.type):
            raise ValidationError(f"{name}: float op on {i.lhs.type}")
        if i.op in inst.INT_BINOPS and not ty.is_int(i.lhs.type):
            raise ValidationError(f"{name}: int op on {i.lhs.type}")
    elif isinstance(i, inst.ICmp):
        if i.lhs.type != i.rhs.type:
            raise ValidationError(f"{name}: icmp operand mismatch")
        if i.result.type != ty.I1:
            raise ValidationError(f"{name}: icmp result must be i1")
    elif isinstance(i, inst.FCmp):
        if i.lhs.type != i.rhs.type:
            raise ValidationError(f"{name}: fcmp operand mismatch")
    elif isinstance(i, inst.Gep):
        if not isinstance(i.base.type, ty.PointerType):
            raise ValidationError(f"{name}: gep base is not a pointer")
        for index in i.indices:
            if not ty.is_int(index.type):
                raise ValidationError(
                    f"{name}: gep index of non-integer type {index.type}")
        try:
            inst.lower_gep(i.base.type.pointee, i.indices)
        except TypeError as error:
            raise ValidationError(f"{name}: gep: {error}") from None
    elif isinstance(i, inst.Call):
        signature = i.signature
        if signature.is_varargs:
            if len(i.args) < len(signature.params):
                raise ValidationError(
                    f"{name}: too few arguments in varargs call")
        elif len(i.args) != len(signature.params):
            raise ValidationError(
                f"{name}: call arity mismatch calling {i.callee.short()} "
                f"({len(i.args)} vs {len(signature.params)})")
    elif isinstance(i, inst.CondBr):
        if i.condition.type != ty.I1:
            raise ValidationError(f"{name}: branch condition must be i1")
    elif isinstance(i, inst.Phi):
        for _, value in i.incoming:
            if value.type != i.result.type:
                raise ValidationError(f"{name}: phi operand type mismatch")
