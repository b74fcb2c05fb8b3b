"""A convenience builder for constructing IR, used by the C front end,
the optimizer (when it materializes new code), and tests."""

from __future__ import annotations

from .. import source
from . import instructions as inst
from . import types as ty
from .module import Block, Function
from .values import ConstInt, ConstNull, Value, VirtualRegister


class IRBuilder:
    def __init__(self, function: Function):
        self.function = function
        self.block: Block | None = None
        self.loc: source.SourceLocation = source.UNKNOWN
        self._counter = 0
        self._names: set[str] = {p.name for p in function.params}
        self._alloca_count = 0

    # -- positioning -------------------------------------------------------

    def set_block(self, block: Block) -> None:
        self.block = block

    def set_loc(self, loc: source.SourceLocation | None) -> None:
        if loc is not None:
            self.loc = loc

    def new_block(self, label: str) -> Block:
        return self.function.add_block(label)

    @property
    def terminated(self) -> bool:
        return self.block is not None and self.block.terminator is not None

    # -- registers ---------------------------------------------------------

    def fresh(self, type: ty.IRType, hint: str = "t") -> VirtualRegister:
        name = hint
        while name in self._names:
            self._counter += 1
            name = f"{hint}{self._counter}"
        self._names.add(name)
        return VirtualRegister(name, type)

    def emit(self, instruction: inst.Instruction) -> Value | None:
        if self.block is None:
            raise RuntimeError("builder has no current block")
        if self.block.terminator is not None:
            # Dead code after a return/branch: drop it, as clang does.
            return instruction.result
        self.block.instructions.append(instruction)
        return instruction.result

    # -- memory ------------------------------------------------------------

    def alloca(self, allocated: ty.IRType, name: str = "local") -> Value:
        """Allocate a local.  Allocas are hoisted to the top of the entry
        block (as clang -O0 does), so locals declared inside loops occupy
        one stack slot instead of growing the frame per iteration."""
        reg = self.fresh(ty.PointerType(allocated), f"{name}.addr")
        instruction = inst.Alloca(reg, allocated, var_name=name,
                                  loc=self.loc)
        entry = self.function.blocks[0]
        entry.instructions.insert(self._alloca_count, instruction)
        self._alloca_count += 1
        return reg

    def load(self, pointer: Value) -> Value:
        pointee = pointer.type.pointee
        reg = self.fresh(pointee)
        self.emit(inst.Load(reg, pointer, loc=self.loc))
        return reg

    def store(self, value: Value, pointer: Value) -> None:
        self.emit(inst.Store(value, pointer, loc=self.loc))

    def gep(self, base: Value, indices: list[Value],
            result_type: ty.IRType | None = None) -> Value:
        if result_type is None:
            index_values = []
            for index in indices:
                index_values.append(
                    index.value if isinstance(index, ConstInt) else 0)
            _, final = inst.gep_offset(base.type.pointee, index_values)
            result_type = ty.PointerType(final)
        reg = self.fresh(result_type)
        self.emit(inst.Gep(reg, base, indices, loc=self.loc))
        return reg

    # -- arithmetic --------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value) -> Value:
        reg = self.fresh(lhs.type)
        self.emit(inst.BinOp(reg, op, lhs, rhs, loc=self.loc))
        return reg

    def icmp(self, predicate: str, lhs: Value, rhs: Value) -> Value:
        reg = self.fresh(ty.I1)
        self.emit(inst.ICmp(reg, predicate, lhs, rhs, loc=self.loc))
        return reg

    def fcmp(self, predicate: str, lhs: Value, rhs: Value) -> Value:
        reg = self.fresh(ty.I1)
        self.emit(inst.FCmp(reg, predicate, lhs, rhs, loc=self.loc))
        return reg

    def cast(self, kind: str, value: Value, to: ty.IRType) -> Value:
        reg = self.fresh(to)
        self.emit(inst.Cast(reg, kind, value, loc=self.loc))
        return reg

    def select(self, cond: Value, if_true: Value, if_false: Value) -> Value:
        reg = self.fresh(if_true.type)
        self.emit(inst.Select(reg, cond, if_true, if_false, loc=self.loc))
        return reg

    # -- control flow ------------------------------------------------------

    def call(self, callee: Value, args: list[Value],
             signature: ty.FunctionType | None = None) -> Value | None:
        if signature is None:
            callee_type = callee.type
            signature = callee_type.pointee  # type: ignore[union-attr]
        result = None
        if not isinstance(signature.ret, ty.VoidType):
            result = self.fresh(signature.ret)
        self.emit(inst.Call(result, callee, args, signature, loc=self.loc))
        return result

    def br(self, target: Block) -> None:
        self.emit(inst.Br(target, loc=self.loc))

    def cond_br(self, condition: Value, if_true: Block,
                if_false: Block) -> None:
        self.emit(inst.CondBr(condition, if_true, if_false, loc=self.loc))

    def switch(self, value: Value, default: Block,
               cases: list[tuple[int, Block]]) -> None:
        self.emit(inst.Switch(value, default, cases, loc=self.loc))

    def ret(self, value: Value | None = None) -> None:
        self.emit(inst.Ret(value, loc=self.loc))

    def unreachable(self) -> None:
        self.emit(inst.Unreachable(loc=self.loc))

    # -- constants ---------------------------------------------------------

    def null(self, pointer_type: ty.PointerType) -> ConstNull:
        return ConstNull(pointer_type)
