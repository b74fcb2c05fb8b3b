"""Textual IR printer (LLVM-assembly flavoured).

Round-trips with :mod:`repro.ir.parser`, which the test suite uses to check
that no information is lost between the front end and the executors.
"""

from __future__ import annotations

from . import instructions as inst
from . import types as ty
from .module import Function, Module
from .values import Value


def format_typed(value: Value) -> str:
    return f"{value.type} {value.short()}"


def format_instruction(instruction: inst.Instruction) -> str:
    head = ""
    if instruction.result is not None:
        head = f"%{instruction.result.name} = "
    body = _body(instruction)
    return head + body


def _body(i: inst.Instruction) -> str:
    if isinstance(i, inst.Alloca):
        return f"alloca {i.allocated_type} ; var {i.var_name}"
    if isinstance(i, inst.Load):
        return f"load {i.result.type}, {format_typed(i.pointer)}"
    if isinstance(i, inst.Store):
        return f"store {format_typed(i.value)}, {format_typed(i.pointer)}"
    if isinstance(i, inst.Gep):
        parts = ", ".join(format_typed(x) for x in i.indices)
        return (f"getelementptr {i.base.type.pointee}, "
                f"{format_typed(i.base)}, {parts}")
    if isinstance(i, inst.BinOp):
        return f"{i.op} {format_typed(i.lhs)}, {i.rhs.short()}"
    if isinstance(i, inst.ICmp):
        return f"icmp {i.predicate} {format_typed(i.lhs)}, {i.rhs.short()}"
    if isinstance(i, inst.FCmp):
        return f"fcmp {i.predicate} {format_typed(i.lhs)}, {i.rhs.short()}"
    if isinstance(i, inst.Cast):
        return f"{i.kind} {format_typed(i.value)} to {i.result.type}"
    if isinstance(i, inst.Select):
        return (f"select {format_typed(i.condition)}, "
                f"{format_typed(i.if_true)}, {format_typed(i.if_false)}")
    if isinstance(i, inst.Call):
        args = ", ".join(format_typed(a) for a in i.args)
        ret = i.signature.ret
        return f"call {ret} {i.callee.short()}({args})"
    if isinstance(i, inst.Phi):
        pairs = ", ".join(
            f"[ {value.short()}, %{block.label} ]"
            for block, value in i.incoming)
        return f"phi {i.result.type} {pairs}"
    if isinstance(i, inst.Br):
        return f"br label %{i.target.label}"
    if isinstance(i, inst.CondBr):
        return (f"br {format_typed(i.condition)}, "
                f"label %{i.if_true.label}, label %{i.if_false.label}")
    if isinstance(i, inst.Switch):
        cases = " ".join(
            f"i64 {value}, label %{block.label}" for value, block in i.cases)
        return (f"switch {format_typed(i.value)}, "
                f"label %{i.default.label} [ {cases} ]")
    if isinstance(i, inst.Ret):
        if i.value is None:
            return "ret void"
        return f"ret {format_typed(i.value)}"
    if isinstance(i, inst.Unreachable):
        return "unreachable"
    raise TypeError(f"cannot print {type(i).__name__}")


def print_function(func: Function) -> str:
    params = ", ".join(
        f"{p.type} %{p.name}" for p in func.params)
    if func.ftype.is_varargs:
        params = f"{params}, ..." if params else "..."
    header = f"define {func.ftype.ret} @{func.name}({params})"
    if not func.is_definition:
        return f"declare {func.ftype.ret} @{func.name}({params})"
    lines = [header + " {"]
    for block in func.blocks:
        lines.append(f"{block.label}:")
        for instruction in block.instructions:
            loc = ""
            if instruction.loc.line:
                loc = f"  ; {instruction.loc}"
            lines.append(f"  {format_instruction(instruction)}{loc}")
    lines.append("}")
    return "\n".join(lines)


def print_global(gvar) -> str:
    kind = "constant" if gvar.is_constant else "global"
    if gvar.is_external:
        kind = "external " + kind
    if gvar.initializer is not None:
        init = gvar.initializer.short()
    elif gvar.zero_initialized:
        init = "zeroinitializer"
    else:
        init = "undef"
    notes = []
    if gvar.zero_initialized:
        notes.append("common")
    if gvar.loc is not None and getattr(gvar.loc, "line", 0):
        notes.append(str(gvar.loc))
    comment = f" ; {' '.join(notes)}" if notes else ""
    return f"@{gvar.name} = {kind} {gvar.value_type} {init}{comment}"


def print_struct(struct: ty.StructType) -> str:
    if struct.is_opaque:
        return f"%{struct.name} = type opaque"
    keyword = "union" if struct.is_union else "type"
    fields = ", ".join(str(field.type) for field in struct.fields)
    # Field names reach allocation labels (objects.StructObject) and
    # therefore bug messages; carry them so the parser can restore them.
    names = " ".join(field.name for field in struct.fields)
    tail = f" ; fields {names}" if names else ""
    return f"%{struct.name} = {keyword} {{ {fields} }}{tail}"


def print_module(module: Module) -> str:
    chunks = [f"; module {module.name}"]
    for struct in module.structs.values():
        chunks.append(print_struct(struct))
    for gvar in module.globals.values():
        chunks.append(print_global(gvar))
    for func in module.functions.values():
        chunks.append(print_function(func))
    return "\n\n".join(chunks) + "\n"
