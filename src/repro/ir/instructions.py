"""IR instructions.

The instruction set is a faithful subset of LLVM IR: memory is accessed only
through ``load``/``store``, address arithmetic is explicit via ``gep``, and a
clang ``-O0``-style front end keeps every C local in an ``alloca``.  ``phi``
nodes appear only after the ``mem2reg`` optimization pass runs.
"""

from __future__ import annotations

from .. import source
from . import types as ty
from .values import ConstInt, Value, VirtualRegister


# Integer binary opcodes (signedness is in the opcode, as in LLVM).
INT_BINOPS = frozenset({
    "add", "sub", "mul", "sdiv", "udiv", "srem", "urem",
    "and", "or", "xor", "shl", "lshr", "ashr",
})
FLOAT_BINOPS = frozenset({"fadd", "fsub", "fmul", "fdiv", "frem"})
ICMP_PREDICATES = frozenset({
    "eq", "ne", "slt", "sle", "sgt", "sge", "ult", "ule", "ugt", "uge",
})
FCMP_PREDICATES = frozenset({"oeq", "one", "olt", "ole", "ogt", "oge", "une"})
CAST_KINDS = frozenset({
    "trunc", "zext", "sext", "fptrunc", "fpext", "fptosi", "fptoui",
    "sitofp", "uitofp", "ptrtoint", "inttoptr", "bitcast",
})


class Instruction:
    """Base class for all instructions.

    ``result`` is the virtual register the instruction defines (or ``None``
    for void instructions such as ``store`` and terminators).  ``loc`` is the
    C source location the instruction was generated from.
    """

    __slots__ = ("result", "loc")

    is_terminator = False

    def __init__(self, result: VirtualRegister | None = None,
                 loc: source.SourceLocation = source.UNKNOWN):
        self.result = result
        self.loc = loc

    def operands(self) -> list[Value]:
        """All value operands, for generic traversal by passes."""
        return []

    def replace_operand(self, old: Value, new: Value) -> None:
        """Substitute ``old`` with ``new`` everywhere it appears."""
        raise NotImplementedError(type(self).__name__)

    def __repr__(self) -> str:
        from .printer import format_instruction
        return format_instruction(self)


class Alloca(Instruction):
    """Allocate automatic storage for one object of ``allocated_type``."""

    __slots__ = ("allocated_type", "var_name")

    def __init__(self, result: VirtualRegister, allocated_type: ty.IRType,
                 var_name: str = "", loc=source.UNKNOWN):
        super().__init__(result, loc)
        self.allocated_type = allocated_type
        self.var_name = var_name or result.name

    def replace_operand(self, old, new):
        pass


class Load(Instruction):
    """``elide`` is set by the static check-elision pass
    (``opt/elide.py``): 0 = no proof, 1 = the pointer is proven
    non-null, 2 = additionally proven in-bounds of a non-freeable
    object.  No executor reads it: every access runs every check."""

    __slots__ = ("pointer", "elide")

    def __init__(self, result: VirtualRegister, pointer: Value,
                 loc=source.UNKNOWN):
        super().__init__(result, loc)
        self.pointer = pointer
        self.elide = 0

    def operands(self):
        return [self.pointer]

    def replace_operand(self, old, new):
        if self.pointer is old:
            self.pointer = new


class Store(Instruction):
    """``elide`` mirrors :class:`Load`'s static-proof levels."""

    __slots__ = ("value", "pointer", "elide")

    def __init__(self, value: Value, pointer: Value, loc=source.UNKNOWN):
        super().__init__(None, loc)
        self.value = value
        self.pointer = pointer
        self.elide = 0

    def operands(self):
        return [self.value, self.pointer]

    def replace_operand(self, old, new):
        if self.value is old:
            self.value = new
        if self.pointer is old:
            self.pointer = new


class Gep(Instruction):
    """``getelementptr``: typed address arithmetic.

    The first index scales by the size of the pointee; subsequent indices
    step into arrays and structs.  Struct indices must be constants.
    :func:`lower_gep` defines the address arithmetic.
    """

    __slots__ = ("base", "indices", "proven_nonnull")

    def __init__(self, result: VirtualRegister, base: Value,
                 indices: list[Value], loc=source.UNKNOWN):
        super().__init__(result, loc)
        self.base = base
        self.indices = list(indices)
        # Set by opt/elide.py: the base is statically proven to be a
        # real object address.  No executor reads it.
        self.proven_nonnull = False

    def operands(self):
        return [self.base, *self.indices]

    def replace_operand(self, old, new):
        if self.base is old:
            self.base = new
        self.indices = [new if op is old else op for op in self.indices]


class BinOp(Instruction):
    __slots__ = ("op", "lhs", "rhs")

    def __init__(self, result: VirtualRegister, op: str, lhs: Value,
                 rhs: Value, loc=source.UNKNOWN):
        if op not in INT_BINOPS and op not in FLOAT_BINOPS:
            raise ValueError(f"unknown binary opcode: {op}")
        super().__init__(result, loc)
        self.op = op
        self.lhs = lhs
        self.rhs = rhs

    def operands(self):
        return [self.lhs, self.rhs]

    def replace_operand(self, old, new):
        if self.lhs is old:
            self.lhs = new
        if self.rhs is old:
            self.rhs = new


class ICmp(Instruction):
    __slots__ = ("predicate", "lhs", "rhs")

    def __init__(self, result: VirtualRegister, predicate: str, lhs: Value,
                 rhs: Value, loc=source.UNKNOWN):
        if predicate not in ICMP_PREDICATES:
            raise ValueError(f"unknown icmp predicate: {predicate}")
        super().__init__(result, loc)
        self.predicate = predicate
        self.lhs = lhs
        self.rhs = rhs

    def operands(self):
        return [self.lhs, self.rhs]

    def replace_operand(self, old, new):
        if self.lhs is old:
            self.lhs = new
        if self.rhs is old:
            self.rhs = new


class FCmp(Instruction):
    __slots__ = ("predicate", "lhs", "rhs")

    def __init__(self, result: VirtualRegister, predicate: str, lhs: Value,
                 rhs: Value, loc=source.UNKNOWN):
        if predicate not in FCMP_PREDICATES:
            raise ValueError(f"unknown fcmp predicate: {predicate}")
        super().__init__(result, loc)
        self.predicate = predicate
        self.lhs = lhs
        self.rhs = rhs

    def operands(self):
        return [self.lhs, self.rhs]

    def replace_operand(self, old, new):
        if self.lhs is old:
            self.lhs = new
        if self.rhs is old:
            self.rhs = new


class Cast(Instruction):
    __slots__ = ("kind", "value")

    def __init__(self, result: VirtualRegister, kind: str, value: Value,
                 loc=source.UNKNOWN):
        if kind not in CAST_KINDS:
            raise ValueError(f"unknown cast kind: {kind}")
        super().__init__(result, loc)
        self.kind = kind
        self.value = value

    def operands(self):
        return [self.value]

    def replace_operand(self, old, new):
        if self.value is old:
            self.value = new


class Select(Instruction):
    __slots__ = ("condition", "if_true", "if_false")

    def __init__(self, result: VirtualRegister, condition: Value,
                 if_true: Value, if_false: Value, loc=source.UNKNOWN):
        super().__init__(result, loc)
        self.condition = condition
        self.if_true = if_true
        self.if_false = if_false

    def operands(self):
        return [self.condition, self.if_true, self.if_false]

    def replace_operand(self, old, new):
        if self.condition is old:
            self.condition = new
        if self.if_true is old:
            self.if_true = new
        if self.if_false is old:
            self.if_false = new


class Call(Instruction):
    """Direct or indirect call.  ``callee`` is a Function, a GlobalValue
    naming a declared-but-external function, or a register holding a
    function pointer."""

    __slots__ = ("callee", "args", "signature")

    def __init__(self, result: VirtualRegister | None, callee: Value,
                 args: list[Value], signature: ty.FunctionType,
                 loc=source.UNKNOWN):
        super().__init__(result, loc)
        self.callee = callee
        self.args = list(args)
        self.signature = signature

    def operands(self):
        return [self.callee, *self.args]

    def replace_operand(self, old, new):
        if self.callee is old:
            self.callee = new
        self.args = [new if op is old else op for op in self.args]


class Phi(Instruction):
    """SSA phi node; present only in optimized (post-mem2reg) IR."""

    __slots__ = ("incoming",)

    def __init__(self, result: VirtualRegister,
                 incoming: list[tuple["Block", Value]], loc=source.UNKNOWN):
        super().__init__(result, loc)
        self.incoming = list(incoming)

    def operands(self):
        return [value for _, value in self.incoming]

    def replace_operand(self, old, new):
        self.incoming = [
            (block, new if value is old else value)
            for block, value in self.incoming
        ]


class Br(Instruction):
    __slots__ = ("target",)
    is_terminator = True

    def __init__(self, target: "Block", loc=source.UNKNOWN):
        super().__init__(None, loc)
        self.target = target

    def successors(self):
        return [self.target]

    def replace_operand(self, old, new):
        pass


class CondBr(Instruction):
    __slots__ = ("condition", "if_true", "if_false")
    is_terminator = True

    def __init__(self, condition: Value, if_true: "Block", if_false: "Block",
                 loc=source.UNKNOWN):
        super().__init__(None, loc)
        self.condition = condition
        self.if_true = if_true
        self.if_false = if_false

    def operands(self):
        return [self.condition]

    def successors(self):
        return [self.if_true, self.if_false]

    def replace_operand(self, old, new):
        if self.condition is old:
            self.condition = new


class Switch(Instruction):
    __slots__ = ("value", "default", "cases")
    is_terminator = True

    def __init__(self, value: Value, default: "Block",
                 cases: list[tuple[int, "Block"]], loc=source.UNKNOWN):
        super().__init__(None, loc)
        self.value = value
        self.default = default
        self.cases = list(cases)

    def operands(self):
        return [self.value]

    def successors(self):
        return [self.default, *[block for _, block in self.cases]]

    def replace_operand(self, old, new):
        if self.value is old:
            self.value = new


class Ret(Instruction):
    __slots__ = ("value",)
    is_terminator = True

    def __init__(self, value: Value | None = None, loc=source.UNKNOWN):
        super().__init__(None, loc)
        self.value = value

    def operands(self):
        return [self.value] if self.value is not None else []

    def successors(self):
        return []

    def replace_operand(self, old, new):
        if self.value is old:
            self.value = new


class Unreachable(Instruction):
    is_terminator = True

    def __init__(self, loc=source.UNKNOWN):
        super().__init__(None, loc)

    def successors(self):
        return []

    def replace_operand(self, old, new):
        pass


def lower_gep(pointee: ty.IRType, indices: list) -> tuple[int, list, ty.IRType]:
    """Lower a GEP's indices to address arithmetic: the one definition
    the interpreter, the JIT, the native machine, the speculation
    planner and the pointer analysis all use, so they cannot diverge.

    Returns ``(offset, terms, final)``: the constant byte offset, one
    ``(index, stride)`` term per non-constant index (in index order; it
    adds ``signed(index) * stride`` bytes), and the type the result
    points to.  The first index scales by the size of ``pointee``; the
    rest navigate aggregates.  An index is a ``ConstInt``, an ``int``
    (already evaluated), or any other value, which becomes a term.  A
    struct index must be constant, since the field it selects decides
    the type; a non-constant one, one that names no field, or a step
    into a non-aggregate, is a TypeError (and
    :func:`~repro.ir.validate.validate_module` rejects all three).
    """
    offset = 0
    terms: list[tuple[Value, int]] = []
    current = pointee
    for position, index in enumerate(indices):
        if position == 0:
            stride = current.size
        elif isinstance(current, ty.ArrayType):
            stride = current.elem.size
            current = current.elem
        elif isinstance(current, ty.StructType):
            if isinstance(index, ConstInt):
                index = index.signed_value
            elif not isinstance(index, int):
                raise TypeError(f"non-constant struct index into {current}")
            if not 0 <= index < len(current.fields):
                raise TypeError(f"struct index {index} out of range for "
                                f"{current}")
            field = current.fields[index]
            offset += field.offset
            current = field.type
            continue
        else:
            raise TypeError(f"cannot GEP into {current}")
        if isinstance(index, ConstInt):
            offset += index.signed_value * stride
        elif isinstance(index, int):
            offset += index * stride
        else:
            terms.append((index, stride))
    return offset, terms, current


def gep_offset(pointee: ty.IRType, index_values: list[int]) -> tuple[int, ty.IRType]:
    """The byte offset and the final element type of a GEP whose
    indices are all known integers (:func:`lower_gep`)."""
    offset, _terms, final = lower_gep(pointee, index_values)
    return offset, final
