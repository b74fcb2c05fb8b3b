"""The native machine: executes the same IR under the *native execution
model* the paper's baseline tools are built on.

Pointers are plain integers into a flat address space, the stack is a
bump-allocated region whose stale bytes leak into uninitialized locals,
malloc reuses freed blocks immediately, and nothing checks object bounds.
Undefined behaviour therefore does what it does on real hardware: silently
corrupts neighbouring memory or, if the access leaves the mapped regions,
segfaults.

Tools attach in two ways, mirroring §2.2:

* **compile-time instrumentation** (ASan): an IR pass inserts check calls
  and redzone'd allocas before the code reaches this machine, and
  interceptors wrap some builtins;
* **run-time instrumentation** (memcheck): a :class:`Tool` hooks every
  memory access this machine performs, including inside the "precompiled"
  builtin libc.
"""

from __future__ import annotations

from .. import ir
from ..ir import instructions as inst
from ..ir import types as irt
from ..core.errors import ProgramBug, ProgramCrash
from ..core.interpreter import (Frame, PreparedFunction, Process,
                                _NodeBuilder, prepare_body)
from ..core.bits import to_signed
from . import memory as layout
from .errors import Segfault
from .memory import BumpAllocator, FlatMemory


class Tool:
    """Run-time instrumentation hooks (the Valgrind attachment point)."""

    name = "none"

    def on_startup(self, machine: "NativeMachine") -> None:
        pass

    def on_read(self, machine, address: int, size: int, loc) -> None:
        pass

    def on_write(self, machine, address: int, size: int, loc) -> None:
        pass

    def on_malloc(self, machine, address: int, size: int,
                  zeroed: bool) -> None:
        pass

    def on_stack_alloc(self, machine, address: int, size: int) -> None:
        pass

    def on_free(self, machine, address: int, loc) -> None:
        pass

    def on_stack_restore(self, machine, low: int, high: int) -> None:
        pass

    def wrap_builtins(self, builtins: dict) -> dict:
        return builtins

    def reset(self, machine: "NativeMachine") -> None:
        """Reset tool state for a fresh in-process run."""


class _IntSpace:
    """Pointer<->integer adapter: native pointers already are integers."""

    @staticmethod
    def address_of(value):
        return value if value is not None else 0

    @staticmethod
    def to_pointer(value):
        return value

    @staticmethod
    def sort_key(value):
        return value if value is not None else 0


class NativeMachine(Process):
    """Executes an IR module under the native execution model."""

    def __init__(self, module: ir.Module, tool: Tool | None = None,
                 max_steps: int | None = None):
        from .nativelibc import default_builtins
        super().__init__(module, max_steps)
        self.memory = FlatMemory()
        self.allocator = BumpAllocator(self.memory)
        self.tool = tool or Tool()
        self.space = _IntSpace()
        self.sp = layout.STACK_TOP
        self.global_addresses: dict[str, int] = {}
        self.global_sizes: dict[str, int] = {}
        self.function_addresses: dict[str, int] = {}
        self.functions_by_address: dict[int, ir.Function] = {}
        self.current_frame: Frame | None = None
        # Bind access hooks only when the tool overrides them, so plain
        # and compile-time-instrumented execution pays no per-access call.
        tool_type = type(self.tool)
        self._read_hook = self.tool.on_read \
            if tool_type.on_read is not Tool.on_read else None
        self._write_hook = self.tool.on_write \
            if tool_type.on_write is not Tool.on_write else None
        self._layout_functions()
        self._layout_globals()
        self.builtins = self.tool.wrap_builtins(default_builtins())
        self.tool.on_startup(self)
        from .nativestdio import initialize_stdio
        initialize_stdio(self)

    def reset(self) -> None:
        """Reset program data for a fresh run on the same machine (the
        benchmark harness's 'process re-exec' between iterations; the
        prepared code is reused)."""
        super().reset()
        start = layout.GLOBALS_BASE
        self.memory.data[start:] = b"\x00" * (layout.MEMORY_SIZE - start)
        for name, gvar in self.module.globals.items():
            if gvar.initializer is not None:
                self._write_initializer(self.global_addresses[name],
                                        gvar.initializer)
        self.allocator = BumpAllocator(self.memory)
        self.sp = layout.STACK_TOP
        self._strtok_state = 0
        if hasattr(self, "_interned"):
            self._interned.clear()
        self.tool.reset(self)
        from .nativestdio import initialize_stdio
        initialize_stdio(self)

    # -- layout -----------------------------------------------------------------

    def _layout_functions(self) -> None:
        address = layout.CODE_BASE + 16
        for name in self.module.functions:
            self.function_addresses[name] = address
            self.functions_by_address[address] = \
                self.module.functions[name]
            address += 16

    def _layout_globals(self) -> None:
        # Globals are placed with 32-byte gaps; instrumentation may poison
        # the gaps as redzones.
        cursor = layout.GLOBALS_BASE + 64
        for name, gvar in self.module.globals.items():
            size = max(gvar.value_type.size, 1)
            align = max(gvar.value_type.align, 8)
            cursor = (cursor + align - 1) // align * align
            self.global_addresses[name] = cursor
            self.global_sizes[name] = size
            if gvar.initializer is not None:
                self._write_initializer(cursor, gvar.initializer)
            cursor += size + 32
            if cursor >= layout.GLOBALS_END:
                raise ProgramCrash("globals segment exhausted")

    def _write_initializer(self, address: int, const: ir.Constant) -> None:
        if isinstance(const, ir.ConstString):
            self.memory.store_bytes(address, const.data)
        elif isinstance(const, ir.ConstArray):
            elem_size = const.type.elem.size
            for i, element in enumerate(const.elements):
                self._write_initializer(address + i * elem_size, element)
        elif isinstance(const, ir.ConstStruct):
            for field, element in zip(const.type.fields, const.elements):
                self._write_initializer(address + field.offset, element)
        elif isinstance(const, (ir.ConstZero, ir.ConstUndef)):
            pass
        elif isinstance(const, ir.ConstFloat):
            self.memory.store_float(address, const.type.size, const.value)
        else:
            value = self.constant_value(const)
            self.memory.store_int(address, const.type.size, value)

    # -- constants ----------------------------------------------------------------

    def constant_value(self, const: ir.Value):
        if isinstance(const, ir.ConstInt):
            return const.value
        if isinstance(const, ir.ConstFloat):
            return const.value
        if isinstance(const, ir.ConstNull):
            return 0
        if isinstance(const, (ir.ConstUndef, ir.ConstZero)):
            return 0 if not isinstance(const.type, irt.FloatType) else 0.0
        if isinstance(const, ir.Function):
            return self.function_addresses[const.name]
        if isinstance(const, ir.GlobalVariable):
            return self.global_addresses[const.name]
        if isinstance(const, ir.ConstGEP):
            if isinstance(const.base, ir.Function):
                return self.function_addresses[const.base.name]
            return self.global_addresses[const.base.name] \
                + const.byte_offset
        raise TypeError(f"not a native constant: {const!r}")

    # -- checked memory access (tool hooks + segfault detection) ----------------

    def mem_read_int(self, address: int, size: int, loc=None) -> int:
        self.memory.check(address, size, "read", loc)
        if self._read_hook is not None:
            self._read_hook(self, address, size, loc)
        return self.memory.load_int(address, size)

    def mem_read_float(self, address: int, size: int, loc=None) -> float:
        self.memory.check(address, size, "read", loc)
        if self._read_hook is not None:
            self._read_hook(self, address, size, loc)
        return self.memory.load_float(address, size)

    def mem_write_int(self, address: int, size: int, value: int,
                      loc=None) -> None:
        self.memory.check(address, size, "write", loc)
        if self._write_hook is not None:
            self._write_hook(self, address, size, loc)
        self.memory.store_int(address, size, value)

    def mem_write_float(self, address: int, size: int, value: float,
                        loc=None) -> None:
        self.memory.check(address, size, "write", loc)
        if self._write_hook is not None:
            self._write_hook(self, address, size, loc)
        self.memory.store_float(address, size, value)

    def mem_read_bytes(self, address: int, count: int, loc=None) -> bytes:
        self.memory.check(address, max(count, 1), "read", loc)
        if self._read_hook is not None:
            self._read_hook(self, address, count, loc)
        return self.memory.load_bytes(address, count)

    def mem_write_bytes(self, address: int, data: bytes, loc=None) -> None:
        self.memory.check(address, max(len(data), 1), "write", loc)
        if self._write_hook is not None:
            self._write_hook(self, address, len(data), loc)
        self.memory.store_bytes(address, data)

    # -- function management ---------------------------------------------------

    def prepared_function(self, function: ir.Function) -> PreparedFunction:
        cached = self.prepared.get(function.name)
        if cached is not None and cached.function is function:
            return cached
        prepared = PreparedFunction(function)
        prepare_body(prepared, _NativeNodeBuilder, self, fuse=False)
        self.prepared[function.name] = prepared
        return prepared

    def intrinsic(self, name: str):
        handler = self.builtins.get(name)
        if handler is None:
            raise ir.LinkError(f"undefined symbol @{name} at native "
                               f"link time")
        return handler

    # -- calls --------------------------------------------------------------------

    def call_function(self, target, args: list):
        if isinstance(target, ir.Function):
            if not target.is_definition:
                return self.intrinsic(target.name)(self, self.current_frame,
                                                   args)
            target = self.prepared_function(target)
        prepared: PreparedFunction = target
        prepared.call_count += 1
        return self.interpret(prepared, args)

    def call_address(self, address: int, args: list):
        function = self.functions_by_address.get(address)
        if function is None:
            raise Segfault(address, 1, "execute")
        return self.call_function(function, args)

    def interpret(self, prepared: PreparedFunction, args: list):
        frame = Frame(prepared.nregs, prepared.name)
        frame.machine = self
        saved_sp = self.sp
        saved_frame = self.current_frame
        # Variadic tail: write 8-byte slots into the caller-visible
        # argument area on the stack (sized value + stale upper bytes).
        params = prepared.param_indices
        fixed = args[:len(params)]
        extra = args[len(params):]
        va_base = 0
        if extra:
            # Slots sit flush against the caller's frame, like spilled
            # argument registers.
            self.sp -= 8 * len(extra)
            va_base = self.sp
            for i, entry in enumerate(extra):
                value, vtype = entry if isinstance(entry, tuple) \
                    else (entry, irt.I64)
                slot = va_base + 8 * i
                if isinstance(vtype, irt.FloatType):
                    self.memory.store_float(slot, vtype.size, value)
                elif isinstance(vtype, irt.PointerType):
                    self.memory.store_int(slot, 8, value or 0)
                else:
                    # Only the value's own bytes are written; the upper
                    # bytes of the slot keep whatever the stack held.
                    self.memory.store_int(slot, min(vtype.size, 8), value)
                self.tool.on_write(self, slot, 8, None)
        frame.varargs = extra
        frame.va_base = va_base
        frame.saved_sp = saved_sp
        regs = frame.regs
        for i, index in enumerate(params):
            value = fixed[i]
            regs[index] = value[0] if isinstance(value, tuple) else value
        self.current_frame = frame
        try:
            return self._run_blocks(prepared, frame)
        finally:
            self.tool.on_stack_restore(self, self.sp, saved_sp)
            self.sp = saved_sp
            self.current_frame = saved_frame

    # -- stack allocation ---------------------------------------------------------

    def stack_alloc(self, size: int, align: int = 1) -> int:
        self.sp -= size
        if align > 1:
            self.sp &= ~(align - 1)
        if self.sp < layout.STACK_LIMIT:
            raise Segfault(self.sp, size, "stack-grow")
        self.tool.on_stack_alloc(self, self.sp, size)
        return self.sp

    # -- program entry -----------------------------------------------------------

    def _main_args(self, argv: list[str], nparams: int) -> list:
        """Write argv[] then envp[] contiguously into the loader area.
        argv has no guard after its NULL terminator: argv[argc+k] reads
        straight into the environment strings."""
        strings = [*argv, None, *self.ENVIRONMENT, None]
        table = layout.ARGV_BASE + 16
        cursor = table + 8 * len(strings)
        for i, string in enumerate(strings):
            pointer = 0
            if string is not None:
                data = string.encode() + b"\x00"
                self.memory.store_bytes(cursor, data)
                pointer = cursor
                cursor += len(data)
            self.memory.store_int(table + 8 * i, 8, pointer)
        return [len(argv), table, table + 8 * (len(argv) + 1)]


# ---------------------------------------------------------------------------
# Native node builder: shares all pure-value nodes with the managed
# interpreter's builder; overrides everything that touches memory.
# ---------------------------------------------------------------------------

class _NativeNodeBuilder(_NodeBuilder):
    """The machine holds its prepared functions, and they hold these
    nodes, so a node that captured the machine would make every run
    cyclic garbage: nodes read it from their frame instead."""

    def __init__(self, machine: NativeMachine, index_of, block_index):
        super().__init__(machine, index_of, block_index)
        self.machine = machine

    # constants resolve to integers/floats via the machine
    def getter(self, value: ir.Value):
        if isinstance(value, ir.VirtualRegister):
            index = self.index_of(value)
            return lambda frame, _i=index: frame.regs[_i]
        constant = self.machine.constant_value(value)
        return lambda frame, _c=constant: _c

    def _node_Alloca(self, instruction: inst.Alloca):
        dst = self.index_of(instruction.result)
        size = max(instruction.allocated_type.size, 1)
        # Natural alignment: locals pack tightly, as real frames do.
        align = max(instruction.allocated_type.align, 1)

        def node(frame):
            frame.regs[dst] = frame.machine.stack_alloc(size, align)
        return node

    def _node_Load(self, instruction: inst.Load):
        dst = self.index_of(instruction.result)
        pointer = self.getter(instruction.pointer)
        value_type = instruction.result.type
        loc = instruction.loc
        size = value_type.size
        if isinstance(value_type, irt.FloatType):
            def node(frame):
                frame.regs[dst] = frame.machine.mem_read_float(
                    pointer(frame), size, loc)
            return node
        mask = value_type.mask if isinstance(value_type, irt.IntType) \
            else (1 << 64) - 1

        def node(frame):
            frame.regs[dst] = frame.machine.mem_read_int(
                pointer(frame), size, loc) & mask
        return node

    def _node_Store(self, instruction: inst.Store):
        pointer = self.getter(instruction.pointer)
        value = self.getter(instruction.value)
        value_type = instruction.value.type
        loc = instruction.loc
        size = value_type.size
        if isinstance(value_type, irt.FloatType):
            def node(frame):
                frame.machine.mem_write_float(pointer(frame), size,
                                              value(frame), loc)
            return node

        def node(frame):
            frame.machine.mem_write_int(pointer(frame), size,
                                        value(frame) or 0, loc)
        return node

    def _node_Gep(self, instruction: inst.Gep):
        dst = self.index_of(instruction.result)
        base = self.getter(instruction.base)
        const_offset, dynamic = self._gep_parts(instruction)

        if not dynamic:
            def node(frame, _off=const_offset):
                frame.regs[dst] = (base(frame) + _off) \
                    & 0xFFFFFFFFFFFFFFFF
            return node

        def node(frame):
            offset = const_offset
            for getter, stride, bits in dynamic:
                offset += to_signed(getter(frame), bits) * stride
            frame.regs[dst] = (base(frame) + offset) & 0xFFFFFFFFFFFFFFFF
        return node

    def _node_Cast(self, instruction: inst.Cast):
        kind = instruction.kind
        if kind == "bitcast":
            dst = self.index_of(instruction.result)
            value = self.getter(instruction.value)
            return lambda frame: frame.regs.__setitem__(dst, value(frame))
        if kind == "inttoptr":
            dst = self.index_of(instruction.result)
            value = self.getter(instruction.value)
            return lambda frame: frame.regs.__setitem__(dst, value(frame))
        if kind == "ptrtoint":
            dst = self.index_of(instruction.result)
            value = self.getter(instruction.value)
            mask = instruction.result.type.mask
            return lambda frame: frame.regs.__setitem__(
                dst, value(frame) & mask)
        return super()._node_Cast(instruction)

    def _node_Call(self, instruction: inst.Call):
        dst = None
        if instruction.result is not None:
            dst = self.index_of(instruction.result)
        arg_getters = [self.getter(arg) for arg in instruction.args]
        arg_types = [arg.type for arg in instruction.args]
        signature = instruction.signature
        n_fixed = len(signature.params)
        loc = instruction.loc
        callee = instruction.callee
        site_id = id(instruction)

        def pack(frame):
            values = [getter(frame) for getter in arg_getters]
            if len(values) == n_fixed:
                return values
            packed = values[:n_fixed]
            for value, vtype in zip(values[n_fixed:], arg_types[n_fixed:]):
                packed.append((value, vtype))
            return packed

        # Compile-time instrumentation is cheap at run time: the shadow
        # check call is inlined into the executing code (as ASan's two
        # shadow instructions are), rather than dispatched like a call.
        tool = self.machine.tool
        if isinstance(callee, ir.Function) \
                and callee.name == "__asan_check" \
                and hasattr(tool, "shadow") \
                and isinstance(instruction.args[1], ir.ConstInt):
            shadow = tool.shadow.shadow
            address_getter = arg_getters[0]
            size = instruction.args[1].value
            is_write = bool(isinstance(instruction.args[2], ir.ConstInt)
                            and instruction.args[2].value)

            def node(frame):
                address = address_getter(frame)
                if shadow.count(0, address, address + size) != size:
                    tool.check(frame.machine, address, size, is_write, loc)
            return node

        if isinstance(callee, ir.Function):
            if callee.is_definition:
                def node(frame, _target=callee):
                    machine = frame.machine
                    try:
                        result = machine.call_function(_target, pack(frame))
                    except ProgramBug as bug:
                        bug.attach_location(loc)
                        raise
                    except RecursionError:
                        raise Segfault(machine.sp, 0, "stack-grow",
                                       loc) from None
                    if dst is not None:
                        frame.regs[dst] = result
                return node

            builtin_name = callee.name

            def node(frame):
                machine = frame.machine
                handler = machine.intrinsic(builtin_name)
                machine.current_site = site_id
                machine.current_loc = loc
                try:
                    result = handler(machine, frame, pack(frame))
                except ProgramBug as bug:
                    bug.attach_location(loc)
                    raise
                if dst is not None:
                    frame.regs[dst] = result
            return node

        target_getter = self.getter(callee)

        def node(frame):
            machine = frame.machine
            address = target_getter(frame)
            try:
                result = machine.call_address(address, pack(frame))
            except ProgramBug as bug:
                bug.attach_location(loc)
                raise
            except RecursionError:
                raise Segfault(machine.sp, 0, "stack-grow", loc) from None
            if dst is not None:
                frame.regs[dst] = result
        return node
