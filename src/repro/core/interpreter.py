"""The managed IR interpreter (the paper's "LLVM IR Interpreter" on
Truffle).

Like a Truffle AST interpreter, each IR function is *prepared* once into a
tree of executable closures ("nodes"); executing a function walks its basic
blocks, running each node.  All memory accesses go through the managed
object model, so every check of §3.4 happens automatically.  A profiling
counter per function drives the dynamic-compilation tier in
:mod:`repro.core.jit` (the Graal stand-in).
"""

from __future__ import annotations

import math
import weakref

from .. import ir
from ..ir import instructions as inst
from ..ir import types as irt
from . import objects as mo
from .bits import int_divrem, round_to_f32, to_signed
from .errors import (CallDepthExceeded, DeoptSignal, InterpreterLimit,
                     NullDereferenceError, ProgramBug, ProgramCrash,
                     ProgramExit, SulongError, TypeViolationError)


class Frame:
    __slots__ = ("regs", "varargs", "vararg_boxes", "function",
                 "stack_objects", "va_base", "saved_sp")

    def __init__(self, nregs: int, function_name: str):
        self.regs: list = [None] * nregs
        self.varargs: list = ()
        self.vararg_boxes: list | None = None
        self.function = function_name
        self.stack_objects: list | None = None
        # Used only by the native machine (varargs area / stack frames).
        self.va_base = 0
        self.saved_sp = 0


class _Return(Exception):
    """Internal unwinding for ret (only used by the JIT tier)."""

    def __init__(self, value):
        self.value = value


class PreparedBlock:
    __slots__ = ("steps", "terminator", "phi_moves", "label", "ninstr")

    def __init__(self, label: str):
        self.label = label
        self.steps: list = []
        self.terminator = None
        self.phi_moves: dict[int, list] = {}
        self.ninstr = 1  # steps + terminator, set after preparation


class PreparedFunction:
    __slots__ = ("function", "nregs", "blocks", "param_indices",
                 "call_count", "compiled", "name", "obs_instructions",
                 "source_function", "speculation", "frame_pool")

    def __init__(self, function: ir.Function):
        self.function = function
        self.name = function.name
        self.nregs = 0
        self.blocks: list[PreparedBlock] = []
        self.param_indices: list[int] = []
        self.call_count = 0
        self.compiled = None  # installed by the JIT tier
        self.obs_instructions = 0  # retired here, observer-enabled only
        # Speculative tier: the original function when ``function`` is a
        # safe-O2 clone; the SpeculationState (loop plans) the JIT
        # compiled into ``compiled``.
        self.source_function: ir.Function | None = None
        self.speculation = None
        # Recycled Frame objects (interpret's fast path).  SSA form
        # guarantees every register read was written earlier in the same
        # activation, so stale slot values are never observable.
        self.frame_pool: list = []


class Runtime:
    """Shared execution state: globals, prepared functions, intrinsics,
    I/O buffers, allocation-site mementos, and engine options."""

    def __init__(self, module: ir.Module, intrinsics: dict | None = None,
                 max_steps: int | None = None,
                 detect_use_after_scope: bool = False,
                 jit_threshold: int | None = None,
                 jit_compile_latency: int = 0,
                 track_heap: bool = False,
                 elide_checks: bool = False,
                 max_heap_bytes: int | None = None,
                 max_call_depth: int | None = None,
                 max_output_bytes: int | None = None,
                 observer=None,
                 speculate: bool = False,
                 fuse: bool = True):
        self.module = module
        # Observability (obs/observer.py).  ``_obs`` is None unless an
        # *enabled* observer is attached — every hot-path hook branches
        # on that one local/attribute, and node preparation specializes
        # on it, so a run without one executes the exact pre-layer code.
        self.observer = observer
        self._obs = observer if (observer is not None
                                 and observer.enabled) else None
        self.intrinsics = dict(intrinsics or {})
        self.max_steps = max_steps
        self.steps = 0
        # Resource quotas (harness hardening).  All default to None
        # (unlimited); when set, exceeding one raises a QuotaExceeded —
        # an InterpreterLimit — which the engine boundary converts into
        # ExecutionResult.limit_exceeded.
        self.max_call_depth = max_call_depth
        self.max_output_bytes = max_output_bytes
        self.call_depth = 0
        self.heap_meter = mo.AllocationMeter(max_heap_bytes)
        # (function name, error) pairs for JIT compilations that failed;
        # the function stays on the interpreter tier (graceful in-process
        # degradation, mirroring the harness's rung ladder).
        self.compile_errors: list[tuple[str, str]] = []
        # (function name, reason) pairs for CompileUnsupported bailouts
        # (the function was never compilable, as opposed to a compiler
        # *failure* above).
        self.compile_bailouts: list[tuple[str, str]] = []
        # Background-compiler model: a function that crosses the call
        # threshold is *queued*; the "compiler thread" installs machine
        # code at a rate of one function per jit_compile_latency seconds
        # (Graal compiles in the background while the interpreter keeps
        # running).  Latency 0 compiles immediately on threshold.
        self.jit_compile_latency = jit_compile_latency
        self.compile_queue: list[tuple[float, PreparedFunction]] = []
        self.detect_use_after_scope = detect_use_after_scope
        self.jit_threshold = jit_threshold
        self.track_heap = track_heap
        # Speculative tier (opt/speculate.py): functions are prepared
        # from their safe-O2 clone, and the JIT compiles eligible counted
        # loops to one guard plus raw accesses.  A failed guard deopts
        # (DeoptSignal); ``guard_trips`` and ``deopts`` both count it.
        # ``elide_checks`` is the retired spelling of the same request:
        # no executor reads static-elision marks.
        self.speculate = speculate or elide_checks
        self.guard_trips = 0
        self.deopts = 0
        # Superinstruction fusion (prepare-time pair merging).  On by
        # default; benchmarks switch it off to measure the pre-fusion
        # dispatch baseline.
        self.fuse = fuse
        self.heap_objects: list = []
        self.global_objects: dict[str, mo.ManagedObject] = {}
        self.prepared: dict[str, PreparedFunction] = {}
        self.alloc_site_memo: dict[int, object] = {}
        self.stdout = bytearray()
        self.stderr = bytearray()
        self.stdin = bytearray()
        self.stdin_pos = 0
        self.files: dict[int, dict] = {}
        self.next_fd = 3
        self.space = mo.address_space()
        self.compiled_functions = 0
        self.compile_log: list[tuple[int, str]] = []
        # Allocation-site plumbing: before dispatching an intrinsic the
        # call node stores its identity (mementos, §3.3) and its source
        # location (crash provenance) here, so malloc-family intrinsics
        # can stamp the objects they build.
        self.current_site = None
        self.current_loc = None
        self.vfs: dict[str, bytearray] = {}
        self._init_globals()

    # -- globals ------------------------------------------------------------

    def _init_globals(self) -> None:
        # Phase 1: allocate objects (so cross-references resolve).
        for name, gvar in self.module.globals.items():
            self.global_objects[name] = self._allocate_global(gvar)
        # Phase 2: fill initial values.
        for name, gvar in self.module.globals.items():
            if gvar.initializer is not None:
                self._fill_initializer(self.global_objects[name], 0,
                                       gvar.initializer)

    def _allocate_global(self, gvar: ir.GlobalVariable) -> mo.ManagedObject:
        return mo.allocate(gvar.value_type, f"@{gvar.name}", "global",
                           getattr(gvar, "loc", None))

    def reset(self) -> None:
        """Reset mutable program state for a fresh in-process run (used by
        the benchmark harness between iterations)."""
        for name, gvar in self.module.globals.items():
            obj = self.global_objects[name]
            obj.zero_range(0, obj.byte_size)
            if gvar.initializer is not None:
                self._fill_initializer(obj, 0, gvar.initializer)
        self.stdout.clear()
        self.stderr.clear()
        self.stdin_pos = 0
        self.files.clear()
        self.next_fd = 3
        self.heap_objects.clear()
        self.call_depth = 0
        self.heap_meter = mo.AllocationMeter(self.heap_meter.limit)

    def _fill_initializer(self, obj: mo.ManagedObject, offset: int,
                          const: ir.Constant) -> None:
        if isinstance(const, ir.ConstString):
            for i, byte in enumerate(const.data):
                obj.write(offset + i, irt.I8, byte)
        elif isinstance(const, ir.ConstArray):
            elem_size = const.type.elem.size
            for i, element in enumerate(const.elements):
                self._fill_initializer(obj, offset + i * elem_size, element)
        elif isinstance(const, ir.ConstStruct):
            for field, element in zip(const.type.fields, const.elements):
                self._fill_initializer(obj, offset + field.offset, element)
        elif isinstance(const, ir.ConstZero):
            pass  # objects are zero-initialized on allocation
        elif isinstance(const, ir.ConstUndef):
            pass
        else:
            obj.write(offset, const.type, self.constant_value(const))

    def constant_value(self, const: ir.Value):
        """Translate an IR constant into a runtime value."""
        if isinstance(const, ir.ConstInt):
            return const.value
        if isinstance(const, ir.ConstFloat):
            return const.value
        if isinstance(const, ir.ConstNull):
            return None
        if isinstance(const, ir.ConstUndef):
            return 0 if isinstance(const.type, irt.IntType) else (
                0.0 if isinstance(const.type, irt.FloatType) else None)
        if isinstance(const, ir.ConstZero):
            return 0
        if isinstance(const, ir.Function):
            return const
        if isinstance(const, ir.GlobalVariable):
            return mo.Address(self.global_objects[const.name], 0)
        if isinstance(const, ir.ConstGEP):
            base = const.base
            if isinstance(base, ir.Function):
                return base
            return mo.Address(self.global_objects[base.name],
                              const.byte_offset)
        raise TypeError(f"not a runtime constant: {const!r}")

    # -- function management ----------------------------------------------------

    def prepared_function(self, function: ir.Function) -> PreparedFunction:
        cached = self.prepared.get(function.name)
        if cached is not None and (cached.function is function
                                   or cached.source_function is function):
            return cached
        target = function
        if self.speculate:
            # The speculative tier runs the safe-O2-optimized private
            # clone (pipeline.optimized_clone); the original stays
            # pristine for every other engine in the process.
            from ..opt import pipeline
            target = pipeline.optimized_clone(function)
        from ..obs.spans import span
        with span("prepare", function=function.name):
            prepared = prepare_function(self, target)
        if target is not function:
            prepared.source_function = function
        self.prepared[function.name] = prepared
        return prepared

    def intrinsic(self, name: str):
        handler = self.intrinsics.get(name)
        if handler is None:
            raise ir.LinkError(
                f"call to undefined function @{name} (no definition, no "
                f"intrinsic) — the paper's Safe Sulong likewise requires "
                f"all code to be available as IR (§3.1)")
        return handler

    # -- the call protocol --------------------------------------------------------

    def call_function(self, target, args: list):
        """Invoke a function (IR-defined or intrinsic) with runtime
        values."""
        depth = self.call_depth + 1
        if self.max_call_depth is not None and depth > self.max_call_depth:
            raise CallDepthExceeded(
                f"call depth quota exceeded ({self.max_call_depth} frames)")
        self.call_depth = depth
        if self._obs is not None:
            self._obs.counters["calls"] += 1
        try:
            return self._dispatch_call(target, args)
        finally:
            self.call_depth = depth - 1

    def _compile_now(self, prepared: "PreparedFunction") -> None:
        """Compile on the dynamic tier; an internal compiler failure must
        never kill the run — the function just stays interpreted (the
        in-process analogue of the harness's JIT→interpreter rung)."""
        if self._obs is not None and (
                getattr(self._obs, "lines", False)
                or getattr(self._obs, "recorder", None) is not None):
            # Per-line attribution and block-trace recording both need
            # the per-instruction interpreter nodes; the compiled tier
            # aggregates whole blocks and would silently stop counting
            # lines / entering the recorder.  Functions stay interpreted.
            prepared.compiled = None
            reason = ("line-attribution mode pins code to the interpreter"
                      if getattr(self._obs, "lines", False) else
                      "block-trace recording pins code to the interpreter")
            self.compile_bailouts.append((prepared.name, reason))
            self._obs.emit("jit-bailout", function=prepared.name,
                           reason=reason)
            return
        from .jit import compile_function
        try:
            compile_function(self, prepared)
        except SulongError:
            raise
        except Exception as err:
            prepared.compiled = None
            self.compile_errors.append((prepared.name, repr(err)))

    def _dispatch_call(self, target, args: list):
        if isinstance(target, ir.Function):
            if not target.is_definition:
                return self.intrinsic(target.name)(self, None, args)
            target = self.prepared_function(target)
        prepared: PreparedFunction = target
        prepared.call_count += 1
        if prepared.compiled is not None:
            try:
                return prepared.compiled(self, args)
            except DeoptSignal:
                self._deoptimize(prepared)
                return self.interpret(prepared, args)
        if self.jit_threshold is not None \
                and prepared.call_count == self.jit_threshold:
            if self.jit_compile_latency:
                import time
                self.compile_queue.append(
                    (time.monotonic() + self.jit_compile_latency,
                     prepared))
            else:
                self._compile_now(prepared)
                if prepared.compiled is not None:
                    try:
                        return prepared.compiled(self, args)
                    except DeoptSignal:
                        self._deoptimize(prepared)
                        return self.interpret(prepared, args)
        if self.compile_queue:
            import time
            now = time.monotonic()
            if self.compile_queue[0][0] <= now:
                _, queued = self.compile_queue.pop(0)
                if queued.compiled is None:
                    self._compile_now(queued)
                # The compiler thread moves on to the next queued
                # function only after another latency period.
                if self.compile_queue:
                    due, head = self.compile_queue[0]
                    self.compile_queue[0] = (
                        max(due, now + self.jit_compile_latency), head)
        return self.interpret(prepared, args)

    def _deoptimize(self, prepared: PreparedFunction) -> None:
        """A compiled speculation guard failed before any side effect:
        throw the compiled code away; the call re-runs, and the function
        stays, on the fully checked interpreter."""
        prepared.compiled = None
        self.guard_trips += 1
        self.deopts += 1
        if self._obs is not None:
            self._obs.emit("deopt", function=prepared.name)

    def interpret(self, prepared: PreparedFunction, args: list):
        pool = prepared.frame_pool
        frame = pool.pop() if pool else Frame(prepared.nregs,
                                              prepared.name)
        params = prepared.param_indices
        regs = frame.regs
        for i, index in enumerate(params):
            regs[index] = args[i]
        if len(args) > len(params):
            frame.varargs = args[len(params):]
        if self.detect_use_after_scope:
            frame.stack_objects = []
        try:
            return self._run_blocks(prepared, frame)
        finally:
            if frame.stack_objects:
                for obj in frame.stack_objects:
                    obj.scope_exited = True
                    if hasattr(obj, "data"):
                        obj.data = None
                    elif isinstance(obj, mo.StructObject):
                        obj.values = None
                frame.stack_objects = None
            if frame.varargs:
                frame.varargs = ()
                frame.vararg_boxes = None
            if len(pool) < 16:
                pool.append(frame)

    def _run_blocks(self, prepared: PreparedFunction, frame: Frame):
        if self._obs is not None:
            return self._run_blocks_counting(prepared, frame)
        blocks = prepared.blocks
        index = 0
        previous = -1
        max_steps = self.max_steps
        while True:
            block = blocks[index]
            if block.phi_moves:
                moves = block.phi_moves.get(previous)
                if moves:
                    if len(moves) == 1:
                        dst, getter = moves[0]
                        frame.regs[dst] = getter(frame)
                    else:
                        # Parallel semantics: read all, then write all.
                        values = [getter(frame) for _, getter in moves]
                        regs = frame.regs
                        for (dst, _), value in zip(moves, values):
                            regs[dst] = value
            for step in block.steps:
                step(frame)
            result = block.terminator(frame)
            if type(result) is tuple:
                return result[0]
            previous = index
            index = result
            self.steps += 1
            if max_steps is not None and self.steps > max_steps:
                raise InterpreterLimit(
                    f"exceeded {max_steps} interpreter steps")

    def _run_blocks_counting(self, prepared: PreparedFunction,
                             frame: Frame):
        recorder = getattr(self._obs, "recorder", None)
        if recorder is not None:
            return self._run_blocks_recording(prepared, frame, recorder)
        blocks = prepared.blocks
        index = 0
        previous = -1
        max_steps = self.max_steps
        counters = self._obs.counters
        while True:
            block = blocks[index]
            if block.phi_moves:
                moves = block.phi_moves.get(previous)
                if moves:
                    values = [getter(frame) for _, getter in moves]
                    for (dst, _), value in zip(moves, values):
                        frame.regs[dst] = value
            for step in block.steps:
                step(frame)
            counters["instructions"] += block.ninstr
            prepared.obs_instructions += block.ninstr
            result = block.terminator(frame)
            if type(result) is tuple:
                return result[0]
            previous = index
            index = result
            self.steps += 1
            if max_steps is not None and self.steps > max_steps:
                raise InterpreterLimit(
                    f"exceeded {max_steps} interpreter steps")

    def _run_blocks_recording(self, prepared: PreparedFunction,
                              frame: Frame, recorder):
        """The counting loop plus the ``repro explain`` block recorder:
        every block entry is recorded *before* its steps run, so when a
        check fires the newest ring entry is the faulting block with
        its entry-state register file."""
        from ..obs.slices import MAX_OUT_MARKS, MAX_VISITED, REG_CAP
        blocks = prepared.blocks
        index = 0
        previous = -1
        max_steps = self.max_steps
        counters = self._obs.counters
        stdout = self.stdout
        regs = frame.regs
        ring_append = recorder.ring.append
        visits = recorder.visits
        while True:
            block = blocks[index]
            if block.phi_moves:
                moves = block.phi_moves.get(previous)
                if moves:
                    values = [getter(frame) for _, getter in moves]
                    for (dst, _), value in zip(moves, values):
                        frame.regs[dst] = value
            # Recorded inline (a call per block entry is measurable;
            # BENCH_explain.json gates this loop at <2x).  Recorder
            # fields reload every iteration: callees mutate them through
            # their own recording loops.
            step_no = recorder.steps
            recorder.steps = step_no + 1
            out_len = len(stdout)
            ring_append((step_no, prepared, index, regs[:REG_CAP],
                         out_len))
            key = (prepared, index)
            count = visits.get(key)
            if count is not None:
                visits[key] = count + 1
            elif len(visits) < MAX_VISITED:
                visits[key] = 1
            else:
                recorder.visits_capped = True
            if out_len != recorder.last_out:
                recorder.last_out = out_len
                # Attribute the write to the previously-entered block:
                # the bytes appeared during its steps.
                if len(recorder.out_marks) < MAX_OUT_MARKS:
                    recorder.out_marks.append((recorder.prev, out_len))
                else:
                    recorder.out_marks_capped = True
            recorder.prev = (step_no, prepared, index)
            for step in block.steps:
                step(frame)
            counters["instructions"] += block.ninstr
            prepared.obs_instructions += block.ninstr
            result = block.terminator(frame)
            if type(result) is tuple:
                return result[0]
            previous = index
            index = result
            self.steps += 1
            if max_steps is not None and self.steps > max_steps:
                raise InterpreterLimit(
                    f"exceeded {max_steps} interpreter steps")

    # -- entry point ----------------------------------------------------------------

    def run_main(self, argv: list[str] | None = None,
                 stdin: bytes = b"") -> int:
        self.stdin = bytearray(stdin)
        self.stdin_pos = 0
        main = self.module.functions.get("main")
        if main is None or not main.is_definition:
            raise ir.LinkError("program has no main()")
        args = []
        nparams = len(main.ftype.params)
        if nparams >= 1:
            argv = list(argv or ["program"])
            argc = len(argv)
            args.append(argc)
        if nparams >= 2:
            argv_obj = self._build_main_args(argv)
            args.append(mo.Address(argv_obj, 0))
        if nparams >= 3:
            envp_obj = self._build_envp()
            args.append(mo.Address(envp_obj, 0))
        args = args[:nparams]
        mo.set_allocation_meter(self.heap_meter)
        try:
            status = self.call_function(main, args)
        except ProgramExit as exit_request:
            return exit_request.status
        finally:
            mo.set_allocation_meter(None)
        if status is None:
            return 0
        return to_signed(status & 0xFFFFFFFF, 32)

    def _build_main_args(self, argv: list[str]) -> mo.ManagedObject:
        """argv is a managed AddressArray of exactly argc + 1 entries
        (the final NULL), so argv[argc + k] is an out-of-bounds access —
        the check ASan and Valgrind lack (§4.1 case 1)."""
        array = mo.AddressArrayObject(len(argv) + 1, "argv")
        array.__class__ = mo.with_storage(mo.AddressArrayObject, "main-args")
        for i, arg in enumerate(argv):
            data = arg.encode("utf-8") + b"\x00"
            string = mo.ByteArrayObject(len(data), f"argv[{i}]")
            string.__class__ = mo.with_storage(mo.ByteArrayObject,
                                               "main-args")
            string.data[:] = data
            array.data[i] = mo.Address(string, 0)
        array.data[len(argv)] = None
        return array

    def _build_envp(self) -> mo.ManagedObject:
        env = ["SULONG_SECRET=hunter2", "PATH=/usr/bin", "HOME=/root"]
        array = mo.AddressArrayObject(len(env) + 1, "envp")
        array.__class__ = mo.with_storage(mo.AddressArrayObject, "main-args")
        for i, entry in enumerate(env):
            data = entry.encode() + b"\x00"
            string = mo.ByteArrayObject(len(data), f"envp[{i}]")
            string.data[:] = data
            array.data[i] = mo.Address(string, 0)
        return array


# ---------------------------------------------------------------------------
# Preparation: turn IR instructions into executable closures
# ---------------------------------------------------------------------------

def prepare_function(runtime: Runtime, function: ir.Function) -> PreparedFunction:
    prepared = PreparedFunction(function)
    # Superinstruction fusion collapses the hottest adjacent pairs
    # (cmp+br, gep+load, gep+store) into one node.  Fused nodes cannot
    # count per-instruction, so fusion only runs without an observer —
    # counting runs keep the exact one-node-per-instruction tree.
    prepare_body(prepared, _NodeBuilder, runtime,
                 runtime._obs is None and runtime.fuse)
    return prepared


def prepare_body(prepared: PreparedFunction, builder_class, runtime,
                 fuse: bool) -> None:
    """Build the node tree of ``prepared.function`` with a
    ``builder_class`` over ``runtime`` (the interpreter's or the native
    machine's): one node per instruction, and each block's phis as the
    moves they make on entry, keyed by the predecessor's block index.
    With ``fuse``, an instruction fuses with the next one into a
    superinstruction where :meth:`_NodeBuilder.try_fuse` allows.
    Parameters take the first frame slots; every other register takes
    the next free slot at its first use."""
    function = prepared.function
    reg_index: dict[int, int] = {}

    def index_of(reg: ir.VirtualRegister) -> int:
        idx = reg_index.get(id(reg))
        if idx is None:
            idx = len(reg_index)
            reg_index[id(reg)] = idx
        return idx

    for param in function.params:
        prepared.param_indices.append(index_of(param))
    block_index = {block: i for i, block in enumerate(function.blocks)}
    builder = builder_class(runtime, index_of, block_index)
    use_counts = _use_counts(function) if fuse else None
    for block in function.blocks:
        pblock = PreparedBlock(block.label)
        instructions = block.instructions
        count = len(instructions)
        pos = 0
        while pos < count:
            instruction = instructions[pos]
            pos += 1
            if isinstance(instruction, inst.Phi):
                continue
            if instruction.is_terminator:
                pblock.terminator = builder.terminator(instruction)
                continue
            if use_counts is not None and pos < count:
                fused = builder.try_fuse(instruction, instructions[pos],
                                         use_counts)
                if fused is not None:
                    kind, node = fused
                    pos += 1
                    if kind == "terminator":
                        pblock.terminator = node
                    else:
                        pblock.steps.append(node)
                    continue
            pblock.steps.append(builder.step(instruction))
        pblock.ninstr = len(pblock.steps) + 1
        prepared.blocks.append(pblock)
    for block, pblock in zip(function.blocks, prepared.blocks):
        for phi in block.phis():
            dst = index_of(phi.result)
            for pred_block, value in phi.incoming:
                pblock.phi_moves.setdefault(
                    block_index[pred_block], []).append(
                        (dst, builder.getter(value)))
    prepared.nregs = len(reg_index)


def _use_counts(function: ir.Function) -> dict[int, int]:
    """Register-use counts (by ``id``) across the whole function —
    fusion consumes an intermediate register only when the following
    instruction is its sole consumer.  Memoized on the function: IR is
    immutable once a runtime prepares from it, and every new Runtime
    (each ``run_module`` call) re-prepares the same shared functions."""
    cached = getattr(function, "_use_counts_memo", None)
    if cached is not None:
        return cached
    counts: dict[int, int] = {}
    for block in function.blocks:
        for instruction in block.instructions:
            for operand in instruction.operands():
                if isinstance(operand, ir.VirtualRegister):
                    key = id(operand)
                    counts[key] = counts.get(key, 0) + 1
    try:
        function._use_counts_memo = counts
    except AttributeError:
        pass
    return counts


def _located(error: ProgramBug, loc, function: str | None = None):
    """``error`` with ``loc`` attached and, given ``function``, that
    activation noted, ready to raise.  Raise sites raise the result
    directly: an exception bound to a local would reach its own frame
    through its traceback, and so keep every frame of the unwind alive,
    the engine's runtime included."""
    error.attach_location(loc)
    if function is not None:
        error.note_frame(function, loc)
    return error


def _check_pointer(value, loc):
    if value is None:
        raise _located(NullDereferenceError("NULL dereference"), loc)
    if type(value) is mo.Address:
        if value.pointee is None:
            raise _located(NullDereferenceError(
                f"dereference of invalid pointer 0x{value.offset:x}"), loc)
        return value
    if isinstance(value, ir.Function):
        raise _located(TypeViolationError(
            f"data access through function pointer @{value.name}"), loc)
    return value


def _counter_key(instruction) -> str | None:
    """The observer counter a node increments, or None.  Resolved at
    prepare time, so uncounted instructions pay nothing even when the
    observer is enabled."""
    if isinstance(instruction, inst.Load):
        return "check.load.full"
    if isinstance(instruction, inst.Store):
        return "check.store.full"
    if isinstance(instruction, inst.Gep):
        return "check.gep"
    if isinstance(instruction, inst.Call):
        callee = instruction.callee
        if isinstance(callee, ir.Function) and not callee.is_definition:
            return "intrinsic.calls"
    return None


class _NodeBuilder:
    """Builds one executable closure ("node") per instruction."""

    def __init__(self, runtime: Runtime, index_of, block_index):
        self.runtime = runtime
        self.index_of = index_of
        self.block_index = block_index
        # The native machine reuses this builder and carries no observer.
        self.obs = getattr(runtime, "_obs", None)

    # -- operand access -------------------------------------------------------

    def getter(self, value: ir.Value):
        if isinstance(value, ir.VirtualRegister):
            index = self.index_of(value)
            return lambda frame, _i=index: frame.regs[_i]
        constant = self.runtime.constant_value(value)
        return lambda frame, _c=constant: _c

    # -- steps -------------------------------------------------------------------

    def step(self, instruction: inst.Instruction):
        method = getattr(self, "_node_" + type(instruction).__name__)
        node = method(instruction)
        if self.obs is not None:
            key = _counter_key(instruction)
            if key is not None:
                counters = self.obs.counters

                def node(frame, _inner=node, _c=counters, _k=key):
                    _c[_k] += 1
                    _inner(frame)
            if getattr(self.obs, "lines", False):
                node = self._wrap_lines(instruction, key, node)
        return node

    def _wrap_lines(self, instruction, key, node):
        """Line-attribution wrapper (``Observer(lines=True)`` only): one
        extra list-increment per retired instruction, keyed by the IR's
        retained source location.  Never active on the default path."""
        loc = getattr(instruction, "loc", None)
        if loc is None or loc.line <= 0:
            return node
        row = self.obs.line_counters[(loc.filename, loc.line)]
        is_check = key is not None and key.startswith("check.")
        is_alloc = isinstance(instruction, inst.Alloca)
        if not is_alloc and isinstance(instruction, inst.Call):
            callee = instruction.callee
            if isinstance(callee, ir.Function) and not callee.is_definition \
                    and callee.name in ("malloc", "calloc", "realloc"):
                is_alloc = True

        def wrapped(frame, _inner=node, _row=row, _chk=is_check,
                    _alloc=is_alloc):
            _row[0] += 1
            if _chk:
                _row[1] += 1
            if _alloc:
                _row[2] += 1
            return _inner(frame)
        return wrapped

    def terminator(self, instruction: inst.Instruction):
        method = getattr(self, "_node_" + type(instruction).__name__)
        return method(instruction)

    # -- superinstruction fusion -----------------------------------------------

    def try_fuse(self, instruction, following, use_counts):
        """A single node covering ``instruction`` + ``following`` when
        the pair matches a hot superinstruction shape (cmp+br, gep+load,
        gep+store) and the intermediate register has no other use, else
        None.  Only built without an observer (fused nodes cannot count
        per instruction); the fused node reproduces the unfused pair's
        semantics — including exception behavior — exactly."""
        result = instruction.result
        if result is None or use_counts.get(id(result), 0) != 1:
            return None
        if isinstance(following, inst.CondBr) \
                and following.condition is result:
            if isinstance(instruction, inst.ICmp):
                test = self._icmp_test(instruction)
            elif isinstance(instruction, inst.FCmp):
                test = self._fcmp_test(instruction)
            else:
                return None
            # The intermediate register keeps its frame slot, so the
            # frame layout does not depend on fusion.
            self.index_of(result)
            if_true = self.block_index[following.if_true]
            if_false = self.block_index[following.if_false]
            return ("terminator",
                    lambda frame: if_true if test(frame) else if_false)
        if isinstance(instruction, inst.Gep):
            if isinstance(following, inst.Load) \
                    and following.pointer is result:
                return ("step", self._fused_gep_access(instruction,
                                                       following, False))
            if isinstance(following, inst.Store) \
                    and following.pointer is result:
                return ("step", self._fused_gep_access(instruction,
                                                       following, True))
        return None

    def _icmp_test(self, instruction: inst.ICmp):
        """ICmp lowered to a bool-returning closure (for fused
        branches); mirrors ``_node_ICmp`` case by case."""
        a = self.getter(instruction.lhs)
        b = self.getter(instruction.rhs)
        predicate = instruction.predicate
        operand_type = instruction.lhs.type
        import operator as _op

        if isinstance(operand_type, irt.PointerType):
            space = self.runtime.space
            if predicate in ("eq", "ne"):
                want = predicate == "eq"
                return lambda frame: _ptr_eq(a(frame), b(frame),
                                             space) == want
            compare = {"ult": _op.lt, "ule": _op.le, "ugt": _op.gt,
                       "uge": _op.ge, "slt": _op.lt, "sle": _op.le,
                       "sgt": _op.gt, "sge": _op.ge}[predicate]
            return lambda frame: compare(space.sort_key(a(frame)),
                                         space.sort_key(b(frame)))

        bits = operand_type.bits
        compare = {"eq": _op.eq, "ne": _op.ne,
                   "slt": _op.lt, "sle": _op.le, "sgt": _op.gt,
                   "sge": _op.ge, "ult": _op.lt, "ule": _op.le,
                   "ugt": _op.gt, "uge": _op.ge}[predicate]
        if predicate.startswith("s"):
            return lambda frame: compare(to_signed(a(frame), bits),
                                         to_signed(b(frame), bits))
        space = self.runtime.space

        def test(frame):
            lhs = a(frame)
            rhs = b(frame)
            if type(lhs) is not int:
                lhs = space.sort_key(lhs)
            if type(rhs) is not int:
                rhs = space.sort_key(rhs)
            return compare(lhs, rhs)
        return test

    def _fcmp_test(self, instruction: inst.FCmp):
        a = self.getter(instruction.lhs)
        b = self.getter(instruction.rhs)
        predicate = instruction.predicate
        import operator as _op
        if predicate == "une":
            def test(frame):
                lhs, rhs = a(frame), b(frame)
                return lhs != lhs or rhs != rhs or lhs != rhs
            return test
        compare = {"oeq": _op.eq, "one": _op.ne, "olt": _op.lt,
                   "ole": _op.le, "ogt": _op.gt, "oge": _op.ge}[predicate]

        def test(frame):
            lhs, rhs = a(frame), b(frame)
            if lhs != lhs or rhs != rhs:
                return False  # NaN: ordered predicates are false
            return compare(lhs, rhs)
        return test

    def _gep_parts(self, gep: inst.Gep):
        """``gep``'s constant byte offset and its dynamic terms as
        (getter, stride, bits), from the shared ``inst.lower_gep``."""
        const_offset, terms, _final = inst.lower_gep(gep.base.type.pointee,
                                                     gep.indices)
        return const_offset, [(self.getter(index), stride, index.type.bits)
                              for index, stride in terms]

    def _offset_closure(self, const_offset, dynamic):
        if not dynamic:
            return lambda frame, _c=const_offset: _c
        if len(dynamic) == 1:
            getter, stride, bits = dynamic[0]
            if const_offset == 0:
                return lambda frame: to_signed(getter(frame),
                                               bits) * stride
            return lambda frame: const_offset + \
                to_signed(getter(frame), bits) * stride

        def offset_of(frame):
            offset = const_offset
            for getter, stride, bits in dynamic:
                offset += to_signed(getter(frame), bits) * stride
            return offset
        return offset_of

    def _fused_gep_access(self, gep, access, is_store):
        """One node for gep+load / gep+store, skipping the intermediate
        Address allocation.  It performs every check the unfused pair
        performs, and raises the same errors at the same locations."""
        const_offset, dynamic = self._gep_parts(gep)
        offset_of = self._offset_closure(const_offset, dynamic)
        self.index_of(gep.result)  # keep the frame layout fusion-independent
        base = self.getter(gep.base)
        gep_loc = gep.loc
        loc = access.loc

        if is_store:
            value_type = access.value.type
            value = self.getter(access.value)

            def node(frame):
                address = base(frame)
                offset = offset_of(frame)
                if type(address) is mo.Address:
                    total = address.offset + offset
                    try:
                        pointee = address.pointee
                        if pointee is None:
                            raise NullDereferenceError(
                                f"dereference of invalid pointer "
                                f"0x{total:x}")
                        pointee.write(total, value_type, value(frame))
                    except ProgramBug as bug:
                        bug.attach_location(loc)
                        bug.note_frame(frame.function, loc)
                        raise
                elif address is None:
                    raise _located(NullDereferenceError(
                        f"dereference of invalid pointer 0x{offset:x}"
                        if offset else "NULL dereference"),
                        loc, frame.function)
                else:
                    _bad_gep(address, gep_loc)
            return node

        dst = self.index_of(access.result)
        value_type = access.result.type

        def node(frame):
            address = base(frame)
            offset = offset_of(frame)
            if type(address) is mo.Address:
                total = address.offset + offset
                try:
                    pointee = address.pointee
                    if pointee is None:
                        raise NullDereferenceError(
                            f"dereference of invalid pointer 0x{total:x}")
                    frame.regs[dst] = pointee.read(total, value_type)
                except ProgramBug as bug:
                    bug.attach_location(loc)
                    bug.note_frame(frame.function, loc)
                    raise
            elif address is None:
                raise _located(NullDereferenceError(
                    f"dereference of invalid pointer 0x{offset:x}"
                    if offset else "NULL dereference"),
                    loc, frame.function)
            else:
                _bad_gep(address, gep_loc)
        return node

    def _node_Alloca(self, instruction: inst.Alloca):
        dst = self.index_of(instruction.result)
        allocated = instruction.allocated_type
        name = instruction.var_name
        loc = instruction.loc

        def node(frame):
            obj = mo.allocate(allocated, name, "stack", loc)
            if frame.stack_objects is not None:
                frame.stack_objects.append(obj)
            frame.regs[dst] = mo.Address(obj, 0)
        return node

    def _node_Load(self, instruction: inst.Load):
        dst = self.index_of(instruction.result)
        pointer = self.getter(instruction.pointer)
        value_type = instruction.result.type
        loc = instruction.loc

        def node(frame):
            try:
                address = pointer(frame)
                address = _check_pointer(address, loc)
                frame.regs[dst] = address.pointee.read(address.offset,
                                                       value_type)
            except ProgramBug as bug:
                bug.attach_location(loc)
                bug.note_frame(frame.function, loc)
                raise
        return node

    def _node_Store(self, instruction: inst.Store):
        pointer = self.getter(instruction.pointer)
        value = self.getter(instruction.value)
        value_type = instruction.value.type
        loc = instruction.loc

        def node(frame):
            try:
                address = pointer(frame)
                address = _check_pointer(address, loc)
                address.pointee.write(address.offset, value_type,
                                      value(frame))
            except ProgramBug as bug:
                bug.attach_location(loc)
                bug.note_frame(frame.function, loc)
                raise
        return node

    def _node_Gep(self, instruction: inst.Gep):
        dst = self.index_of(instruction.result)
        base = self.getter(instruction.base)
        loc = instruction.loc
        const_offset, dynamic = self._gep_parts(instruction)

        if not dynamic:
            def node(frame, _off=const_offset):
                value = base(frame)
                if type(value) is mo.Address:
                    frame.regs[dst] = mo.Address(value.pointee,
                                                 value.offset + _off)
                elif value is None:
                    frame.regs[dst] = mo.Address(None, _off) if _off \
                        else None
                else:
                    _bad_gep(value, loc)
            return node

        def node(frame):
            offset = const_offset
            for getter, stride, bits in dynamic:
                offset += to_signed(getter(frame), bits) * stride
            value = base(frame)
            if type(value) is mo.Address:
                frame.regs[dst] = mo.Address(value.pointee,
                                             value.offset + offset)
            elif value is None:
                frame.regs[dst] = mo.Address(None, offset) if offset \
                    else None
            else:
                _bad_gep(value, loc)
        return node

    def _node_BinOp(self, instruction: inst.BinOp):
        dst = self.index_of(instruction.result)
        a = self.getter(instruction.lhs)
        b = self.getter(instruction.rhs)
        op = instruction.op
        loc = instruction.loc
        vtype = instruction.lhs.type

        if op in inst.FLOAT_BINOPS:
            return _float_binop_node(dst, a, b, op, vtype, loc)
        bits = vtype.bits
        mask = (1 << bits) - 1
        if op == "add":
            return lambda frame: frame.regs.__setitem__(
                dst, (a(frame) + b(frame)) & mask)
        if op == "sub":
            return lambda frame: frame.regs.__setitem__(
                dst, (a(frame) - b(frame)) & mask)
        if op == "mul":
            return lambda frame: frame.regs.__setitem__(
                dst, (a(frame) * b(frame)) & mask)
        if op == "and":
            return lambda frame: frame.regs.__setitem__(
                dst, a(frame) & b(frame))
        if op == "or":
            return lambda frame: frame.regs.__setitem__(
                dst, a(frame) | b(frame))
        if op == "xor":
            return lambda frame: frame.regs.__setitem__(
                dst, (a(frame) ^ b(frame)) & mask)
        if op == "shl":
            return lambda frame: frame.regs.__setitem__(
                dst, (a(frame) << (b(frame) % bits)) & mask)
        if op == "lshr":
            return lambda frame: frame.regs.__setitem__(
                dst, a(frame) >> (b(frame) % bits))
        if op == "ashr":
            def node(frame):
                shift = b(frame) % bits
                frame.regs[dst] = (to_signed(a(frame), bits) >> shift) & mask
            return node
        if op in ("sdiv", "srem", "udiv", "urem"):
            signed = op[0] == "s"
            want_rem = op.endswith("rem")

            def node(frame):
                frame.regs[dst] = int_divrem(a(frame), b(frame), bits,
                                             signed, want_rem, loc)
            return node
        raise TypeError(f"unknown binop {op}")

    def _node_ICmp(self, instruction: inst.ICmp):
        dst = self.index_of(instruction.result)
        a = self.getter(instruction.lhs)
        b = self.getter(instruction.rhs)
        predicate = instruction.predicate
        operand_type = instruction.lhs.type

        if isinstance(operand_type, irt.PointerType):
            space = self.runtime.space
            if predicate in ("eq", "ne"):
                want = predicate == "eq"

                def node(frame):
                    frame.regs[dst] = 1 if _ptr_eq(a(frame), b(frame),
                                                   space) == want else 0
                return node

            import operator as _op
            compare = {"ult": _op.lt, "ule": _op.le, "ugt": _op.gt,
                       "uge": _op.ge, "slt": _op.lt, "sle": _op.le,
                       "sgt": _op.gt, "sge": _op.ge}[predicate]

            def node(frame):
                frame.regs[dst] = 1 if compare(space.sort_key(a(frame)),
                                               space.sort_key(b(frame))) \
                    else 0
            return node

        bits = operand_type.bits
        signed = predicate.startswith("s")
        import operator as _op
        compare = {"eq": _op.eq, "ne": _op.ne,
                   "slt": _op.lt, "sle": _op.le, "sgt": _op.gt,
                   "sge": _op.ge, "ult": _op.lt, "ule": _op.le,
                   "ugt": _op.gt, "uge": _op.ge}[predicate]
        if signed:
            def node(frame):
                frame.regs[dst] = 1 if compare(to_signed(a(frame), bits),
                                               to_signed(b(frame), bits)) \
                    else 0
            return node

        space = self.runtime.space

        def node(frame):
            lhs = a(frame)
            rhs = b(frame)
            if type(lhs) is not int:
                lhs = space.sort_key(lhs)
            if type(rhs) is not int:
                rhs = space.sort_key(rhs)
            frame.regs[dst] = 1 if compare(lhs, rhs) else 0
        return node

    def _node_FCmp(self, instruction: inst.FCmp):
        dst = self.index_of(instruction.result)
        a = self.getter(instruction.lhs)
        b = self.getter(instruction.rhs)
        predicate = instruction.predicate
        import operator as _op
        if predicate == "une":
            def node(frame):
                lhs, rhs = a(frame), b(frame)
                unordered = lhs != lhs or rhs != rhs
                frame.regs[dst] = 1 if (unordered or lhs != rhs) else 0
            return node
        compare = {"oeq": _op.eq, "one": _op.ne, "olt": _op.lt,
                   "ole": _op.le, "ogt": _op.gt, "oge": _op.ge}[predicate]

        def node(frame):
            lhs, rhs = a(frame), b(frame)
            if lhs != lhs or rhs != rhs:
                frame.regs[dst] = 0  # NaN: ordered predicates are false
            else:
                frame.regs[dst] = 1 if compare(lhs, rhs) else 0
        return node

    def _node_Cast(self, instruction: inst.Cast):
        dst = self.index_of(instruction.result)
        value = self.getter(instruction.value)
        kind = instruction.kind
        src_type = instruction.value.type
        dst_type = instruction.result.type
        runtime = self.runtime
        loc = instruction.loc

        if kind == "trunc":
            mask = dst_type.mask
            return lambda frame: frame.regs.__setitem__(
                dst, value(frame) & mask)
        if kind == "zext":
            return lambda frame: frame.regs.__setitem__(dst, value(frame))
        if kind == "sext":
            src_bits = src_type.bits
            mask = dst_type.mask
            return lambda frame: frame.regs.__setitem__(
                dst, to_signed(value(frame), src_bits) & mask)
        if kind in ("fptosi", "fptoui"):
            mask = dst_type.mask

            def node(frame):
                raw = value(frame)
                try:
                    frame.regs[dst] = int(raw) & mask
                except (OverflowError, ValueError):
                    frame.regs[dst] = 0  # NaN/inf conversion is UB; pin it
            return node
        if kind == "sitofp":
            src_bits = src_type.bits
            if isinstance(dst_type, irt.FloatType) and dst_type.bits == 32:
                return lambda frame: frame.regs.__setitem__(
                    dst, round_to_f32(float(to_signed(value(frame),
                                                      src_bits))))
            return lambda frame: frame.regs.__setitem__(
                dst, float(to_signed(value(frame), src_bits)))
        if kind == "uitofp":
            if isinstance(dst_type, irt.FloatType) and dst_type.bits == 32:
                return lambda frame: frame.regs.__setitem__(
                    dst, round_to_f32(float(value(frame))))
            return lambda frame: frame.regs.__setitem__(
                dst, float(value(frame)))
        if kind == "fpext":
            return lambda frame: frame.regs.__setitem__(dst, value(frame))
        if kind == "fptrunc":
            return lambda frame: frame.regs.__setitem__(
                dst, round_to_f32(value(frame)))
        if kind == "ptrtoint":
            space = runtime.space
            mask = dst_type.mask

            def node(frame):
                frame.regs[dst] = space.address_of(value(frame)) & mask
            return node
        if kind == "inttoptr":
            space = runtime.space

            def node(frame):
                frame.regs[dst] = space.to_pointer(value(frame))
            return node
        if kind == "bitcast":
            if isinstance(dst_type, irt.PointerType):
                factory = mo.factory_for_pointee(dst_type.pointee)

                def node(frame):
                    pointer = value(frame)
                    if factory is not None and type(pointer) is mo.Address:
                        pointee = pointer.pointee
                        if isinstance(pointee, mo.UntypedHeapMemory) \
                                and pointee.target is None:
                            pointee.materialize(factory)
                    frame.regs[dst] = pointer
                return node
            return lambda frame: frame.regs.__setitem__(dst, value(frame))
        raise TypeError(f"unknown cast {kind}")

    def _node_Select(self, instruction: inst.Select):
        dst = self.index_of(instruction.result)
        cond = self.getter(instruction.condition)
        a = self.getter(instruction.if_true)
        b = self.getter(instruction.if_false)
        return lambda frame: frame.regs.__setitem__(
            dst, a(frame) if cond(frame) else b(frame))

    def _node_Call(self, instruction: inst.Call):
        dst = None
        if instruction.result is not None:
            dst = self.index_of(instruction.result)
        arg_getters = [self.getter(arg) for arg in instruction.args]
        arg_types = [arg.type for arg in instruction.args]
        signature = instruction.signature
        n_fixed = len(signature.params)
        # The runtime holds its prepared functions, and they hold these
        # nodes: a node that captured the runtime would make every run
        # cyclic garbage.  Each executed call dereferences it once.
        runtime_ref = weakref.ref(self.runtime)
        loc = instruction.loc
        callee = instruction.callee
        site_id = id(instruction)

        def evaluate_args(frame):
            return [getter(frame) for getter in arg_getters]

        if isinstance(callee, ir.Function):
            if callee.is_definition:
                # Direct-call threading: the first execution resolves the
                # callee's PreparedFunction and caches it in the node
                # (monomorphic by construction — a direct call has one
                # callee).  When no quota/JIT/observer machinery is
                # active the node invokes the interpreter directly,
                # skipping the call_function bookkeeping; the JIT tier
                # and quota configs take the full protocol path.
                fixed_arity = len(instruction.args) == n_fixed
                fast = (self.obs is None
                        and self.runtime.max_call_depth is None
                        and self.runtime.jit_threshold is None)
                cell: list = [None]

                def node(frame, _target=callee):
                    runtime = runtime_ref()
                    prepared = cell[0]
                    if prepared is None:
                        prepared = runtime.prepared_function(_target)
                        cell[0] = prepared
                    args = [getter(frame) for getter in arg_getters]
                    if not fixed_arity:
                        args = _pack_args(args, arg_types, n_fixed)
                    try:
                        if fast and prepared.compiled is None:
                            prepared.call_count += 1
                            result = runtime.interpret(prepared, args)
                        else:
                            result = runtime.call_function(prepared, args)
                    except ProgramBug as bug:
                        bug.attach_location(loc)
                        bug.note_frame(frame.function, loc)
                        raise
                    except RecursionError:
                        raise ProgramCrash(
                            f"call stack exhausted at {loc}") from None
                    if dst is not None:
                        frame.regs[dst] = result

                if self.obs is not None and getattr(self.obs, "lines",
                                                    False):
                    # Caller→callee edges feed the collapsed-stack
                    # (flamegraph) export; lines mode only.
                    edges = self.obs.call_edges
                    cname = callee.name

                    def node(frame, _inner=node, _e=edges, _c=cname):
                        _e[(frame.function, _c)] += 1
                        return _inner(frame)
                return node

            handler_name = callee.name
            handler = self.runtime.intrinsics.get(handler_name)
            if handler is None:
                # The LinkError surfaces at the first call, not here.
                def node(frame):
                    runtime_ref().intrinsic(handler_name)
                return node

            def node(frame):
                runtime = runtime_ref()
                runtime.current_site = site_id
                runtime.current_loc = loc
                try:
                    result = handler(runtime, frame,
                                     _pack_args(evaluate_args(frame),
                                                arg_types, n_fixed))
                except ProgramBug as bug:
                    bug.attach_location(loc)
                    bug.note_frame(frame.function, loc)
                    raise
                if dst is not None:
                    frame.regs[dst] = result
            return node

        # Indirect call through a function pointer, with a polymorphic
        # inline cache: two monomorphic entries (MRU first, like a
        # Truffle dispatch chain), then a megamorphic dict fallback once
        # a third distinct target shows up at this site.  ``ic`` is
        # [key0, value0, key1, value1, megamorphic-dict-or-None].
        target_getter = self.getter(callee)
        ic: list = [None, None, None, None, None]
        counters = self.obs.counters if self.obs is not None else None
        observer = self.obs

        def resolve(runtime, target):
            if observer is not None and observer.enabled:
                # Once per distinct (site, target): the inline cache
                # absorbs every later dispatch to this target.
                observer.icall_targets[site_id].add(target.name)
            if target.is_definition:
                return runtime.prepared_function(target)
            return runtime.intrinsic(target.name)

        def node(frame):
            target = target_getter(frame)
            if target is None:
                raise _located(NullDereferenceError(
                    "call through NULL function pointer"),
                    loc, frame.function)
            if isinstance(target, mo.Address):
                raise _located(TypeViolationError(
                    "call through pointer to a data object"),
                    loc, frame.function)
            runtime = runtime_ref()
            if target is ic[0]:
                resolved = ic[1]
                if counters is not None:
                    counters["icall.hit"] += 1
            elif target is ic[2]:
                resolved = ic[3]
                # Promote to most-recently-used.
                ic[0], ic[1], ic[2], ic[3] = target, resolved, ic[0], ic[1]
                if counters is not None:
                    counters["icall.hit"] += 1
            else:
                mega = ic[4]
                if mega is not None:
                    resolved = mega.get(target)
                    if resolved is None:
                        resolved = resolve(runtime, target)
                        mega[target] = resolved
                        if counters is not None:
                            counters["icall.miss"] += 1
                    elif counters is not None:
                        counters["icall.mega.hit"] += 1
                else:
                    resolved = resolve(runtime, target)
                    if counters is not None:
                        counters["icall.miss"] += 1
                    if ic[0] is None:
                        ic[0], ic[1] = target, resolved
                    elif ic[2] is None:
                        ic[2], ic[3] = ic[0], ic[1]
                        ic[0], ic[1] = target, resolved
                    else:
                        # Third distinct target: go megamorphic (the
                        # inline pair stays live for the two hot ones).
                        ic[4] = {ic[0]: ic[1], ic[2]: ic[3],
                                 target: resolved}
            try:
                packed = _pack_args(evaluate_args(frame), arg_types, n_fixed)
                if isinstance(resolved, PreparedFunction):
                    result = runtime.call_function(resolved, packed)
                else:
                    runtime.current_site = site_id
                    runtime.current_loc = loc
                    result = resolved(runtime, frame, packed)
            except ProgramBug as bug:
                bug.attach_location(loc)
                bug.note_frame(frame.function, loc)
                raise
            except RecursionError:
                raise ProgramCrash(
                    f"call stack exhausted at {loc}") from None
            if dst is not None:
                frame.regs[dst] = result
        return node

    # -- terminators ------------------------------------------------------------

    def _node_Br(self, instruction: inst.Br):
        target = self.block_index[instruction.target]
        return lambda frame: target

    def _node_CondBr(self, instruction: inst.CondBr):
        cond = self.getter(instruction.condition)
        if_true = self.block_index[instruction.if_true]
        if_false = self.block_index[instruction.if_false]
        return lambda frame: if_true if cond(frame) else if_false

    def _node_Switch(self, instruction: inst.Switch):
        value = self.getter(instruction.value)
        default = self.block_index[instruction.default]
        table = {case: self.block_index[block]
                 for case, block in instruction.cases}
        return lambda frame: table.get(value(frame), default)

    def _node_Ret(self, instruction: inst.Ret):
        if instruction.value is None:
            return lambda frame: (None,)
        value = self.getter(instruction.value)
        return lambda frame: (value(frame),)

    def _node_Unreachable(self, instruction: inst.Unreachable):
        loc = instruction.loc

        def node(frame):
            raise ProgramCrash(f"reached unreachable code at {loc}")
        return node


def _bad_gep(value, loc):
    raise _located(TypeViolationError(
        "pointer arithmetic on a non-pointer value"), loc)


def _pack_args(values: list, types: list, n_fixed: int) -> list:
    """Named arguments stay bare; variadic tail entries carry their static
    IR type so ``get_vararg`` can box them with the right managed type."""
    if len(values) == n_fixed:
        return values
    packed = values[:n_fixed]
    for value, vtype in zip(values[n_fixed:], types[n_fixed:]):
        packed.append((value, vtype))
    return packed


def _float_binop_node(dst, a, b, op, vtype, loc):
    single = isinstance(vtype, irt.FloatType) and vtype.bits == 32
    if op == "fadd":
        calc = lambda x, y: x + y
    elif op == "fsub":
        calc = lambda x, y: x - y
    elif op == "fmul":
        calc = lambda x, y: x * y
    elif op == "fdiv":
        def calc(x, y):
            try:
                return x / y
            except ZeroDivisionError:
                if x != x or x == 0:
                    return math.nan
                sign = math.copysign(1.0, x) * math.copysign(1.0, y)
                return math.copysign(math.inf, sign)
    else:  # frem
        def calc(x, y):
            try:
                return math.fmod(x, y)
            except ValueError:
                return math.nan
    if single:
        def node(frame):
            frame.regs[dst] = round_to_f32(calc(a(frame), b(frame)))
        return node

    def node(frame):
        frame.regs[dst] = calc(a(frame), b(frame))
    return node


def _ptr_eq(lhs, rhs, space) -> bool:
    if lhs is None or rhs is None:
        return _is_nullish(lhs) and _is_nullish(rhs)
    if type(lhs) is mo.Address and type(rhs) is mo.Address:
        return lhs.pointee is rhs.pointee and lhs.offset == rhs.offset
    if lhs is rhs:
        return True
    return space.sort_key(lhs) == space.sort_key(rhs)


def _is_nullish(value) -> bool:
    if value is None:
        return True
    return (type(value) is mo.Address and value.pointee is None
            and value.offset == 0)
