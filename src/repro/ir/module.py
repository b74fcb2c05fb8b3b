"""IR containers: basic blocks, functions, and modules.

A :class:`Module` is the unit of execution.  Running a C program means
linking its module with the libc module (`Module.link`) and handing the
result to an executor — the managed Safe Sulong engine, or the native
machine with or without sanitizer instrumentation.
"""

from __future__ import annotations

import itertools

from . import types as ty
from .instructions import Instruction, Phi
from .values import GlobalValue, GlobalVariable, VirtualRegister


class Block:
    """A basic block: a label plus a list of instructions ending in a
    terminator."""

    __slots__ = ("label", "instructions", "function")

    def __init__(self, label: str):
        self.label = label
        self.instructions: list[Instruction] = []
        self.function: Function | None = None

    @property
    def terminator(self) -> Instruction | None:
        if self.instructions and self.instructions[-1].is_terminator:
            return self.instructions[-1]
        return None

    def successors(self) -> list["Block"]:
        terminator = self.terminator
        return terminator.successors() if terminator else []

    def phis(self) -> list[Phi]:
        result = []
        for inst in self.instructions:
            if isinstance(inst, Phi):
                result.append(inst)
            else:
                break
        return result

    def __repr__(self) -> str:
        return f"<Block {self.label}: {len(self.instructions)} insts>"


class Function(GlobalValue):
    """A function definition or declaration.

    Declarations (``is_definition == False``) must be resolved at link time
    or provided as intrinsics by the runtime.
    """

    # Stamp of the last link that re-pointed one of this function's
    # operands (0: none has).
    _repointed = 0

    def __init__(self, name: str, ftype: ty.FunctionType,
                 param_names: list[str] | None = None, loc=None):
        self.name = name
        self.ftype = ftype
        self.type = ty.PointerType(ftype)
        self.loc = loc
        self.blocks: list[Block] = []
        names = param_names or [f"arg{i}" for i in range(len(ftype.params))]
        self.params = [
            VirtualRegister(pname, ptype)
            for pname, ptype in zip(names, ftype.params)
        ]

    @property
    def is_definition(self) -> bool:
        return bool(self.blocks)

    @property
    def entry(self) -> Block:
        return self.blocks[0]

    def add_block(self, label: str) -> Block:
        block = Block(self._unique_label(label))
        block.function = self
        self.blocks.append(block)
        return block

    def _unique_label(self, label: str) -> str:
        existing = {b.label for b in self.blocks}
        if label not in existing:
            return label
        index = 1
        while f"{label}.{index}" in existing:
            index += 1
        return f"{label}.{index}"

    def instructions(self):
        for block in self.blocks:
            yield from block.instructions

    def compute_predecessors(self) -> dict[Block, list[Block]]:
        preds: dict[Block, list[Block]] = {block: [] for block in self.blocks}
        for block in self.blocks:
            for succ in block.successors():
                preds[succ].append(block)
        return preds

    def remove_block(self, block: Block) -> None:
        self.blocks.remove(block)

    def __repr__(self) -> str:
        kind = "define" if self.is_definition else "declare"
        return f"<{kind} {self.ftype.ret} @{self.name}>"


class LinkError(Exception):
    """Raised when modules cannot be combined (duplicate or missing
    definitions)."""


class Module:
    """A translation unit (or the result of linking several of them)."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.globals: dict[str, GlobalVariable] = {}
        self.functions: dict[str, Function] = {}
        self.structs: dict[str, ty.StructType] = {}
        # Stamp of a link after which every Function operand of every
        # function here was this module's own entry (None: unknown).
        self._resolved: int | None = None

    def add_global(self, gvar: GlobalVariable) -> GlobalVariable:
        if gvar.name in self.globals:
            raise LinkError(f"duplicate global @{gvar.name}")
        self.globals[gvar.name] = gvar
        return gvar

    def add_function(self, func: Function) -> Function:
        existing = self.functions.get(func.name)
        if existing is not None and existing.is_definition and func.is_definition:
            raise LinkError(f"duplicate definition of @{func.name}")
        if existing is None or func.is_definition:
            self.functions[func.name] = func
        return self.functions[func.name]

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise LinkError(f"undefined function @{name}") from None

    def link(self, other: "Module", name: str | None = None) -> "Module":
        """Combine two modules into a new one, resolving declarations
        against definitions (a minimal static linker)."""
        linked = Module(name or f"{self.name}+{other.name}")
        for module in (self, other):
            for gvar in module.globals.values():
                existing = linked.globals.get(gvar.name)
                if existing is None:
                    linked.globals[gvar.name] = gvar
                elif existing.is_external:
                    linked.globals[gvar.name] = gvar
                elif not gvar.is_external:
                    raise LinkError(f"duplicate global @{gvar.name}")
            for struct_name, struct in module.structs.items():
                linked.structs.setdefault(struct_name, struct)
        # Definitions win over declarations; two definitions collide.
        for module in (self, other):
            for func in module.functions.values():
                existing = linked.functions.get(func.name)
                if existing is None:
                    linked.functions[func.name] = func
                elif func.is_definition:
                    if existing.is_definition:
                        raise LinkError(
                            f"duplicate definition of @{func.name}")
                    linked.functions[func.name] = func
        # Re-point calls that referenced declarations at the definitions.
        # An input is walked only if this link replaced one of its
        # entries, no link has vouched for it yet, or a link re-pointed
        # one of its functions since (functions are shared with every
        # module linked from them).  A program linked against libc walks
        # only the program.
        stamp = next(_LINK_STAMPS)
        for module in (self, other):
            replaced = any(linked.functions[fname] is not func
                           for fname, func in module.functions.items())
            if replaced or module._resolved is None or any(
                    func._repointed > module._resolved
                    for func in module.functions.values()):
                _resolve_references(module, linked.functions, stamp)
                if not replaced:
                    module._resolved = stamp
        linked._resolved = stamp
        return linked

    def undefined_functions(self) -> list[str]:
        return sorted(
            name for name, func in self.functions.items()
            if not func.is_definition)

    def __repr__(self) -> str:
        return (f"<Module {self.name}: {len(self.functions)} functions, "
                f"{len(self.globals)} globals>")


_LINK_STAMPS = itertools.count(1)


def _resolve_references(module: Module, canonical: dict[str, Function],
                        stamp: int) -> None:
    """Rewrite operands of ``module``'s functions that point at a
    Function other than ``canonical``'s entry of that name, and stamp
    each function so rewritten."""
    for func in module.functions.values():
        for inst in func.instructions():
            for op in list(inst.operands()):
                if isinstance(op, Function):
                    current = canonical.get(op.name)
                    if current is not None and current is not op:
                        inst.replace_operand(op, current)
                        func._repointed = stamp
                        # Its memoized safe-O2 clone (opt.pipeline)
                        # still calls the old callee.
                        func.__dict__.pop("_safe_o2_clone", None)
