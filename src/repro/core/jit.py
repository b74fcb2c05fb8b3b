"""The dynamic-compilation tier (the paper's Graal stand-in).

When a function's call count reaches the engine's threshold, it is
compiled: the IR is translated into Python source (registers become local
variables, blocks become a dispatch loop) and ``exec``'d into a callable.
Like Graal compiling Truffle ASTs, the compiled code is faster than the
node-by-node interpreter, **but it optimizes under safe semantics**: every
bounds/NULL/free check from the managed object model is still performed,
so compilation can never remove a bug (contrast with P2, where static
compilers delete UB).  If compilation is not possible for a function, it
simply stays in the interpreter (deoptimization by non-promotion).
"""

from __future__ import annotations

import math
import time

from .. import ir
from ..ir import instructions as inst
from ..ir import types as irt
from . import objects as mo
from .bits import int_divrem, round_to_f32, to_signed
from .errors import (DeoptSignal, InterpreterLimit, NullDereferenceError,
                     ProgramBug, ProgramCrash, TypeViolationError)
from .interpreter import (Frame, PreparedFunction, _check_pointer,
                          _counter_key, _is_nullish, _pack_args, _ptr_eq)


# Part of ``tools.engine_version()``: bump whenever a change to the
# generated code could change what compiled functions detect.
CODEGEN_VERSION = 5


class CompileUnsupported(Exception):
    """The function uses a construct the compiler does not handle; it keeps
    running in the interpreter."""


# -- helpers available to generated code -------------------------------------
#
# Integer division is `bits.int_divrem`, shared verbatim with the
# interpreter's BinOp node: both tiers mask the result to the operand
# width and truncate toward zero, so they cannot drift.

def _jit_fdiv(a: float, b: float) -> float:
    try:
        return a / b
    except ZeroDivisionError:
        if a != a or a == 0:
            return math.nan
        return math.copysign(math.inf,
                             math.copysign(1.0, a) * math.copysign(1.0, b))


def _jit_frem(a: float, b: float) -> float:
    try:
        return math.fmod(a, b)
    except ValueError:
        return math.nan


def _jit_gep(base, offset: int):
    if type(base) is mo.Address:
        return mo.Address(base.pointee, base.offset + offset)
    if base is None:
        return mo.Address(None, offset) if offset else None
    raise TypeViolationError("pointer arithmetic on a non-pointer value")


def _jit_call(runtime, target, args, loc, frame, site):
    """Shared call path for compiled code (direct, intrinsic, indirect)."""
    try:
        if isinstance(target, ir.Function):
            if target.is_definition:
                return runtime.call_function(target, args)
            runtime.current_site = site
            runtime.current_loc = loc
            return runtime.intrinsic(target.name)(runtime, frame, args)
        if isinstance(target, PreparedFunction):
            return runtime.call_function(target, args)
        if target is None:
            raise NullDereferenceError("call through NULL function pointer")
        if isinstance(target, mo.Address):
            raise TypeViolationError("call through pointer to a data object")
        raise TypeViolationError(f"call through non-function {target!r}")
    except ProgramBug as bug:
        bug.attach_location(loc)
        raise
    except RecursionError:
        raise ProgramCrash(f"call stack exhausted at {loc}") from None


def _jit_fptoint(value: float, mask: int) -> int:
    try:
        return int(value) & mask
    except (OverflowError, ValueError):
        return 0


_HELPER_NAMESPACE = {
    "_Addr": mo.Address,
    "_alloc": mo.allocate,
    "_chk": _check_pointer,
    "_ts": to_signed,
    "_f32": round_to_f32,
    "_divrem": int_divrem,
    "_fdiv": _jit_fdiv,
    "_frem": _jit_frem,
    "_gep": _jit_gep,
    "_call": _jit_call,
    "_fptoint": _jit_fptoint,
    "_ptr_eq": _ptr_eq,
    "_nullish": _is_nullish,
    "_pack": _pack_args,
    "_Frame": Frame,
    "_Bug": ProgramBug,
    "_Crash": ProgramCrash,
    "_fmod": math.fmod,
    "_nan": math.nan,
    # Speculative tier: guard failures raise _Deopt, caught at the
    # innermost compiled-call boundary (``Runtime._deoptimize``).
    "_Deopt": DeoptSignal,
    "_Limit": InterpreterLimit,
    "_IntArr": mo.IntArrayObject,
    "_FloatArr": mo.FloatArrayObject,
}


class _Emitter:
    def __init__(self, runtime, prepared: PreparedFunction):
        self.runtime = runtime
        self.prepared = prepared
        self.lines: list[str] = []
        self.consts: dict[str, object] = {}
        self.reg_names: dict[int, str] = {}
        self.indent = 3
        # With an enabled observer, compiled code counts the same
        # things the interpreter's counting nodes do; without one, the
        # generated source is byte-identical to the pre-obs compiler.
        self.counting = runtime._obs is not None
        if self.counting:
            self.consts["_ctr"] = runtime._obs.counters
            self.consts["_tally"] = prepared.obs_instructions
        # Speculative tier: each loop plan compiles to a guard at the
        # header plus raw-array accesses in the body; a failed guard
        # raises DeoptSignal before any side effect of the activation.
        # Counting runs never speculate (profiling wants full checks).
        self.spec_plans: list = []
        # id(instruction) -> fast-site emission info / skip set.
        self.spec_sites: dict[int, tuple] = {}
        self.spec_skip: set[int] = set()
        self.spec_guards: dict[int, tuple] = {}
        self.block_index_current = 0
        self.needs_prev = False
        if runtime.speculate and not self.counting:
            prepared.speculation = _speculation_state(prepared.function)
            self.spec_plans = prepared.speculation.plans
        for k, plan in enumerate(self.spec_plans):
            self.spec_guards[id(plan.header)] = (k, plan)
            self.spec_skip.update(plan.dead)
            for g, group in enumerate(plan.groups):
                names = (f"_d{k}_{g}", f"_b{k}_{g}")
                spe = group.stride // group.elem
                for site in group.sites:
                    self.spec_sites[id(site.instruction)] = (
                        plan, group, names, spe,
                        site.const_offset // group.elem)
                    if site.drop_gep:
                        self.spec_skip.add(id(site.gep))

    # -- plumbing -----------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append("    " * self.indent + text)

    def const(self, value, hint: str = "k") -> str:
        name = f"_{hint}{len(self.consts)}"
        self.consts[name] = value
        return name

    def reg(self, register: ir.VirtualRegister) -> str:
        name = self.reg_names.get(id(register))
        if name is None:
            name = f"r{len(self.reg_names)}"
            self.reg_names[id(register)] = name
        return name

    def operand(self, value: ir.Value) -> str:
        if isinstance(value, ir.VirtualRegister):
            return self.reg(value)
        if isinstance(value, ir.ConstInt):
            return repr(value.value)
        if isinstance(value, ir.ConstFloat):
            return self.const(value.value, "f")
        if isinstance(value, (ir.ConstNull,)):
            return "None"
        runtime_value = self.runtime.constant_value(value)
        if runtime_value is None:
            return "None"
        if isinstance(runtime_value, (int, float)):
            return repr(runtime_value)
        return self.const(runtime_value, "g")

    def loc_const(self, instruction) -> str:
        return self.const(instruction.loc, "L")

    # -- function skeleton -----------------------------------------------------

    def build(self) -> str:
        function = self.prepared.function
        has_phis = any(isinstance(phi_check, inst.Phi)
                       for phi_check in function.instructions())
        # ``_prev`` (the index of the block just left) drives both phi
        # selection and the speculation guard's entry-edge test.
        self.needs_prev = has_phis or bool(self.spec_plans)

        header = [
            f"def __compiled__(rt, args):",
            f"    frame = _Frame(0, {function.name!r})",
        ]
        nparams = len(function.params)
        body_lines: list[str] = []
        self.lines = body_lines
        self.indent = 1
        for i, param in enumerate(function.params):
            self.emit(f"{self.reg(param)} = args[{i}]")
        if function.ftype.is_varargs:
            self.emit(f"frame.varargs = args[{nparams}:]")
        self.emit("_loc = None")
        self.emit("_b = 0")
        if self.needs_prev:
            self.emit("_prev = -1")
        if self.spec_plans:
            # A deopt replays the activation on the interpreter, which
            # counts its steps again.
            self.emit("_s0 = rt.steps")
        self.emit("try:")
        self.indent = 2
        self.emit("while True:")
        self.indent = 3
        for index, block in enumerate(function.blocks):
            self.block_index_current = index
            prefix = "if" if index == 0 else "elif"
            self.emit(f"{prefix} _b == {index}:")
            self.indent = 4
            if self.counting:
                ninstr = len(block.instructions)
                self.emit(f"_ctr['instructions'] += {ninstr}")
                self.emit(f"_tally[0] += {ninstr}")
            emitted = False
            instructions = block.instructions
            leading = 0
            while leading < len(instructions) \
                    and isinstance(instructions[leading], inst.Phi):
                leading += 1
            for rest in instructions[leading:]:
                if isinstance(rest, inst.Phi):
                    raise CompileUnsupported("phi not at block start")
            if leading:
                emitted = True
                self._emit_phis(instructions[:leading])
            guard = self.spec_guards.get(id(block))
            if guard is not None:
                emitted = True
                self._emit_guard(*guard)
            for instruction in instructions[leading:]:
                emitted = True
                self.instruction(instruction)
            if not emitted and not self.counting:
                self.emit("pass")
            self.indent = 3
        self.emit("else:")
        self.emit("    raise _Crash('invalid block index')")
        self.indent = 1
        self.emit("except _Bug as bug:")
        self.emit("    bug.attach_location(_loc)")
        # One frame per activation, exactly like the interpreter's
        # per-node handlers; _jit_call deliberately notes nothing, or
        # frames would be duplicated on every call boundary.
        self.emit(f"    bug.note_frame({function.name!r}, _loc)")
        self.emit("    raise")
        return "\n".join(header + body_lines)

    # -- instructions ------------------------------------------------------------

    def instruction(self, i: inst.Instruction) -> None:
        if id(i) in self.spec_skip:
            # A speculated site's single-use GEP / index arithmetic:
            # nothing consumes its register once the site is emitted as
            # a raw access.
            return
        method = getattr(self, "_i_" + type(i).__name__, None)
        if method is None:
            raise CompileUnsupported(type(i).__name__)
        if self.counting:
            key = _counter_key(i)
            if key is not None:
                self.emit(f"_ctr[{key!r}] += 1")
        method(i)

    # -- phis and speculation --------------------------------------------------

    def _emit_phis(self, phis: list) -> None:
        """One ``if _prev == p: rA, rB = eA, eB`` arm per predecessor —
        tuple assignment gives the parallel read-all-then-write-all
        semantics phi nodes require."""
        names = []
        pred_order: list[int] = []
        table: dict[int, list[str]] = {}
        for phi in phis:
            names.append(self.reg(phi.result))
            seen = set()
            for pred, value in phi.incoming:
                pidx = self._block_index(pred)
                if pidx in seen:
                    continue
                seen.add(pidx)
                arm = table.get(pidx)
                if arm is None:
                    arm = table[pidx] = []
                    pred_order.append(pidx)
                arm.append(self.operand(value))
        for pidx in pred_order:
            if len(table[pidx]) != len(phis):
                raise CompileUnsupported("phi predecessor sets differ")
        lhs = ", ".join(names)
        for n, pidx in enumerate(pred_order):
            keyword = "if" if n == 0 else "elif"
            self.emit(f"{keyword} _prev == {pidx}:")
            self.emit(f"    {lhs} = {', '.join(table[pidx])}")
        self.emit("else:")
        self.emit("    raise _Crash('phi with unmatched predecessor')")

    def _emit_guard(self, k: int, plan) -> None:
        """The loop-invariant guard, run on the preheader→header edge:
        the induction range cannot wrap, and each base is a live typed
        array of the right element kind that the whole range stays in.
        Any failure raises DeoptSignal (the preheader is deopt-clean, so
        the activation replays on the interpreter from scratch)."""
        pre = self._block_index(plan.preheader)
        deopt = (f"rt.steps = _s0; raise _Deopt("
                 f"{self.prepared.function.name!r}, "
                 f"'speculation guard failed')")
        signed = plan.predicate in ("slt", "sle")
        inclusive = plan.predicate in ("sle", "ule")
        half = 1 << (plan.bits - 1)
        reach = max(plan.step, plan.guard_addend)
        init = self.operand(plan.init)
        limit = self.operand(plan.limit)
        self.emit(f"if _prev == {pre}:")
        self.indent += 1
        self.emit(f"_gi = {init}")
        self.emit(f"_gl = {limit}")
        self.emit(f"if type(_gi) is not int or type(_gl) is not int: "
                  f"{deopt}")
        if signed:
            self.emit(f"_gi = _ts(_gi, {plan.bits})")
            self.emit(f"_gl = _ts(_gl, {plan.bits})")
        self.emit(f"if _gi < {plan.init_floor}: {deopt}")
        self.emit(f"_gb = _gl" if inclusive else "_gb = _gl - 1")
        self.emit(f"_gla = _gi if _gb < _gi else "
                  f"_gi + ((_gb - _gi) // {plan.step}) * {plan.step}")
        self.emit(f"if _gla + {reach} >= {half}: {deopt}")
        for g, group in enumerate(plan.groups):
            base = self.operand(group.base)
            array_class = "_IntArr" if group.kind == "int" \
                else "_FloatArr"
            self.emit(f"_ga = {base}")
            self.emit(f"if type(_ga) is not _Addr: {deopt}")
            self.emit("_go = _ga.pointee")
            self.emit(f"if not isinstance(_go, {array_class}): {deopt}")
            self.emit("_gd = _go.data")
            self.emit(f"if _gd is None or _go.elem_size != {group.elem}: "
                      f"{deopt}")
            self.emit("_gf = _ga.offset")
            self.emit(f"if _gf % {group.elem}: {deopt}")
            self.emit(f"if _gf + _gi * {group.stride} + {group.lo} < 0: "
                      f"{deopt}")
            self.emit(f"if _gf + _gla * {group.stride} + {group.hi} "
                      f"+ {group.elem} > len(_gd) * {group.elem}: {deopt}")
            self.emit(f"_d{k}_{g} = _gd")
            self.emit(f"_b{k}_{g} = _gf // {group.elem}")
        self.indent -= 1

    def _spec_index(self, spec) -> str:
        plan, group, names, spe, ce = spec
        phi_name = self.reg(plan.phi.result)
        expression = f"{names[1]} + {phi_name}"
        if spe != 1:
            expression += f" * {spe}"
        if ce:
            expression += f" + {ce}" if ce > 0 else f" - {-ce}"
        return f"{names[0]}[{expression}]"

    def _i_Alloca(self, i: inst.Alloca) -> None:
        dst = self.reg(i.result)
        type_name = self.const(i.allocated_type, "t")
        loc = self.loc_const(i)
        self.emit(f"{dst} = _Addr(_alloc({type_name}, {i.var_name!r}, "
                  f"'stack', {loc}), 0)")

    def _i_Load(self, i: inst.Load) -> None:
        dst = self.reg(i.result)
        spec = self.spec_sites.get(id(i))
        if spec is not None:
            # Speculated site: raw element access under the plan's
            # guard, mirroring the typed arrays' aligned fast paths
            # (mask on integer load, raw floats).
            if spec[1].kind == "int":
                self.emit(f"{dst} = {self._spec_index(spec)} "
                          f"& {i.result.type.mask}")
            else:
                self.emit(f"{dst} = {self._spec_index(spec)}")
            return
        pointer = self.operand(i.pointer)
        type_name = self.const(i.result.type, "t")
        loc = self.loc_const(i)
        self.emit(f"_loc = {loc}")
        self.emit(f"_p = _chk({pointer}, {loc})")
        self.emit(f"{dst} = _p.pointee.read(_p.offset, {type_name})")

    def _i_Store(self, i: inst.Store) -> None:
        spec = self.spec_sites.get(id(i))
        if spec is not None:
            value = self.operand(i.value)
            if spec[1].kind == "int":
                width_mask = (1 << (8 * spec[1].elem)) - 1
                self.emit(f"{self._spec_index(spec)} = {value} "
                          f"& {width_mask}")
            else:
                self.emit(f"{self._spec_index(spec)} = {value}")
            return
        pointer = self.operand(i.pointer)
        value = self.operand(i.value)
        type_name = self.const(i.value.type, "t")
        loc = self.loc_const(i)
        self.emit(f"_loc = {loc}")
        self.emit(f"_p = _chk({pointer}, {loc})")
        self.emit(f"_p.pointee.write(_p.offset, {type_name}, {value})")

    def _i_Gep(self, i: inst.Gep) -> None:
        dst = self.reg(i.result)
        base = self.operand(i.base)
        const_offset, lowered, _final = inst.lower_gep(i.base.type.pointee,
                                                       i.indices)
        terms: list[str] = []
        for index, stride in lowered:
            term = f"_ts({self.operand(index)}, {index.type.bits})"
            terms.append(f"{term} * {stride}" if stride != 1 else term)
        expression = " + ".join(terms) if terms else ""
        if const_offset or not expression:
            expression = f"{expression} + {const_offset}" if expression \
                else str(const_offset)
        self.emit(f"{dst} = _gep({base}, {expression})")

    def _i_BinOp(self, i: inst.BinOp) -> None:
        dst = self.reg(i.result)
        a = self.operand(i.lhs)
        b = self.operand(i.rhs)
        op = i.op
        if op in inst.FLOAT_BINOPS:
            wrap = isinstance(i.lhs.type, irt.FloatType) \
                and i.lhs.type.bits == 32
            expr = {
                "fadd": f"({a} + {b})", "fsub": f"({a} - {b})",
                "fmul": f"({a} * {b})", "fdiv": f"_fdiv({a}, {b})",
                "frem": f"_frem({a}, {b})",
            }[op]
            self.emit(f"{dst} = _f32({expr})" if wrap
                      else f"{dst} = {expr}")
            return
        bits = i.lhs.type.bits
        mask = (1 << bits) - 1
        if op == "add":
            self.emit(f"{dst} = ({a} + {b}) & {mask}")
        elif op == "sub":
            self.emit(f"{dst} = ({a} - {b}) & {mask}")
        elif op == "mul":
            self.emit(f"{dst} = ({a} * {b}) & {mask}")
        elif op == "and":
            self.emit(f"{dst} = {a} & {b}")
        elif op == "or":
            self.emit(f"{dst} = {a} | {b}")
        elif op == "xor":
            self.emit(f"{dst} = ({a} ^ {b}) & {mask}")
        elif op == "shl":
            self.emit(f"{dst} = ({a} << ({b} % {bits})) & {mask}")
        elif op == "lshr":
            self.emit(f"{dst} = {a} >> ({b} % {bits})")
        elif op == "ashr":
            self.emit(f"{dst} = (_ts({a}, {bits}) >> ({b} % {bits})) "
                      f"& {mask}")
        else:
            loc = self.loc_const(i)
            signed = op[0] == "s"
            want_rem = op.endswith("rem")
            self.emit(f"{dst} = _divrem({a}, {b}, {bits}, {signed}, "
                      f"{want_rem}, {loc})")

    def _i_ICmp(self, i: inst.ICmp) -> None:
        dst = self.reg(i.result)
        a = self.operand(i.lhs)
        b = self.operand(i.rhs)
        predicate = i.predicate
        if isinstance(i.lhs.type, irt.PointerType):
            space = self.const(self.runtime.space, "sp")
            if predicate in ("eq", "ne"):
                flip = "" if predicate == "eq" else "not "
                self.emit(f"{dst} = 1 if {flip}_ptr_eq({a}, {b}, {space}) "
                          f"else 0")
            else:
                symbol = {"ult": "<", "ule": "<=", "ugt": ">", "uge": ">=",
                          "slt": "<", "sle": "<=", "sgt": ">",
                          "sge": ">="}[predicate]
                self.emit(f"{dst} = 1 if {space}.sort_key({a}) {symbol} "
                          f"{space}.sort_key({b}) else 0")
            return
        bits = i.lhs.type.bits
        if predicate in ("eq", "ne"):
            symbol = "==" if predicate == "eq" else "!="
            self.emit(f"{dst} = 1 if {a} {symbol} {b} else 0")
            return
        symbol = {"slt": "<", "sle": "<=", "sgt": ">", "sge": ">=",
                  "ult": "<", "ule": "<=", "ugt": ">",
                  "uge": ">="}[predicate]
        if predicate.startswith("s"):
            self.emit(f"{dst} = 1 if _ts({a}, {bits}) {symbol} "
                      f"_ts({b}, {bits}) else 0")
        else:
            self.emit(f"{dst} = 1 if {a} {symbol} {b} else 0")

    def _i_FCmp(self, i: inst.FCmp) -> None:
        dst = self.reg(i.result)
        a = self.operand(i.lhs)
        b = self.operand(i.rhs)
        predicate = i.predicate
        if predicate == "une":
            self.emit(f"{dst} = 0 if {a} == {b} else 1")
            return
        symbol = {"oeq": "==", "one": "!=", "olt": "<", "ole": "<=",
                  "ogt": ">", "oge": ">="}[predicate]
        # Python comparisons on NaN are already False, matching ordered
        # semantics (except 'one', which needs the NaN guard).
        if predicate == "one":
            self.emit(f"{dst} = 1 if ({a} == {a} and {b} == {b} "
                      f"and {a} != {b}) else 0")
        else:
            self.emit(f"{dst} = 1 if {a} {symbol} {b} else 0")

    def _i_Cast(self, i: inst.Cast) -> None:
        dst = self.reg(i.result)
        value = self.operand(i.value)
        kind = i.kind
        src_type = i.value.type
        dst_type = i.result.type
        if kind == "trunc":
            self.emit(f"{dst} = {value} & {dst_type.mask}")
        elif kind == "zext":
            self.emit(f"{dst} = {value}")
        elif kind == "sext":
            self.emit(f"{dst} = _ts({value}, {src_type.bits}) "
                      f"& {dst_type.mask}")
        elif kind in ("fptosi", "fptoui"):
            self.emit(f"{dst} = _fptoint({value}, {dst_type.mask})")
        elif kind in ("sitofp", "uitofp"):
            expr = f"float(_ts({value}, {src_type.bits}))" \
                if kind == "sitofp" else f"float({value})"
            if isinstance(dst_type, irt.FloatType) and dst_type.bits == 32:
                expr = f"_f32({expr})"
            self.emit(f"{dst} = {expr}")
        elif kind == "fpext":
            self.emit(f"{dst} = {value}")
        elif kind == "fptrunc":
            self.emit(f"{dst} = _f32({value})")
        elif kind == "ptrtoint":
            space = self.const(self.runtime.space, "sp")
            self.emit(f"{dst} = {space}.address_of({value}) "
                      f"& {dst_type.mask}")
        elif kind == "inttoptr":
            space = self.const(self.runtime.space, "sp")
            self.emit(f"{dst} = {space}.to_pointer({value})")
        elif kind == "bitcast":
            if isinstance(dst_type, irt.PointerType):
                factory = mo.factory_for_pointee(dst_type.pointee)
                if factory is not None:
                    factory_name = self.const(factory, "fac")
                    untyped = self.const(mo.UntypedHeapMemory, "ut")
                    self.emit(f"_v = {value}")
                    self.emit(f"if type(_v) is _Addr and "
                              f"isinstance(_v.pointee, {untyped}) and "
                              f"_v.pointee.target is None:")
                    self.emit(f"    _v.pointee.materialize({factory_name})")
                    self.emit(f"{dst} = _v")
                    return
            self.emit(f"{dst} = {value}")
        else:
            raise CompileUnsupported(f"cast {kind}")

    def _i_Select(self, i: inst.Select) -> None:
        dst = self.reg(i.result)
        self.emit(f"{dst} = {self.operand(i.if_true)} "
                  f"if {self.operand(i.condition)} "
                  f"else {self.operand(i.if_false)}")

    def _i_Call(self, i: inst.Call) -> None:
        loc = self.loc_const(i)
        n_fixed = len(i.signature.params)
        args = [self.operand(arg) for arg in i.args]
        if len(args) > n_fixed:
            # Variadic tail entries carry their static type (for boxing).
            packed = args[:n_fixed]
            for k, (arg, expression) in enumerate(
                    zip(i.args[n_fixed:], args[n_fixed:]), start=n_fixed):
                packed.append(f"({expression}, "
                              f"{self.const(arg.type, 't')})")
            args = packed
        arg_list = "[" + ", ".join(args) + "]"
        if isinstance(i.callee, ir.Function):
            target = self.const(i.callee, "fn")
        else:
            target = self.operand(i.callee)
        site = self.const(id(i), "site")
        self.emit(f"_loc = {loc}")
        call = (f"_call(rt, {target}, {arg_list}, {loc}, frame, "
                f"{site})")
        if i.result is not None:
            self.emit(f"{self.reg(i.result)} = {call}")
        else:
            self.emit(call)

    def _i_Br(self, i: inst.Br) -> None:
        self._transfer(str(self._block_index(i.target)))

    def _i_CondBr(self, i: inst.CondBr) -> None:
        self._transfer(f"{self._block_index(i.if_true)} "
                       f"if {self.operand(i.condition)} "
                       f"else {self._block_index(i.if_false)}")

    def _i_Switch(self, i: inst.Switch) -> None:
        table = {case: self._block_index(block) for case, block in i.cases}
        self._transfer(f"{self.const(table, 'sw')}.get("
                       f"{self.operand(i.value)}, "
                       f"{self._block_index(i.default)})")

    def _transfer(self, target: str) -> None:
        """Go to block ``target``, counting the step where
        ``_run_blocks`` counts it, against the same budget."""
        if self.needs_prev:
            self.emit(f"_prev = {self.block_index_current}")
        self.emit(f"_b = {target}")
        self.emit("rt.steps += 1")
        limit = self.runtime.max_steps
        if limit is not None:
            self.emit(f"if rt.steps > {limit}: raise _Limit("
                      f"'exceeded {limit} interpreter steps')")
        self.emit("continue")

    def _i_Ret(self, i: inst.Ret) -> None:
        if i.value is None:
            self.emit("return None")
        else:
            self.emit(f"return {self.operand(i.value)}")

    def _i_Unreachable(self, i: inst.Unreachable) -> None:
        loc = self.loc_const(i)
        self.emit(f"raise _Crash('reached unreachable code at ' + "
                  f"str({loc}))")

    def _block_index(self, block) -> int:
        return self.prepared.function.blocks.index(block)


def _speculation_state(function: ir.Function):
    """The loop plans of ``function``, memoized on it: analysis depends
    only on the IR, which is immutable once a runtime prepares it.  Each
    analysis, not a memo hit, is one ``opt.speculate`` span."""
    state = getattr(function, "_spec_state_memo", None)
    if state is None:
        from ..obs.spans import span
        from ..opt import speculate
        with span("opt.speculate", of=function.name):
            state = speculate.SpeculationState(
                speculate.analyze_function(function))
        function._spec_state_memo = state
    return state


def compile_function(runtime, prepared: PreparedFunction) -> None:
    """Compile ``prepared`` to Python; on success installs
    ``prepared.compiled``, on a bailout leaves it None."""
    from ..obs.spans import span as _span
    with _span("jit-compile", function=prepared.name):
        _compile_function(runtime, prepared)


def _compile_function(runtime, prepared: PreparedFunction) -> None:
    obs = runtime._obs
    started = time.perf_counter()
    try:
        emitter = _Emitter(runtime, prepared)
        source = emitter.build()
    except CompileUnsupported as unsupported:
        _bail(runtime, prepared, str(unsupported))
        return
    namespace = dict(_HELPER_NAMESPACE)
    namespace.update(emitter.consts)
    try:
        exec(compile(source, f"<jit:{prepared.name}>", "exec"), namespace)
    except SyntaxError as error:  # pragma: no cover - compiler bug guard
        _bail(runtime, prepared, repr(error))
        return
    prepared.compiled = namespace["__compiled__"]
    runtime.compiled_functions += 1
    if obs is not None:
        obs.emit("jit-compile", function=prepared.name,
                 compile_ms=round(
                     (time.perf_counter() - started) * 1000.0, 3),
                 code_bytes=len(source), steps=runtime.steps)


def _bail(runtime, prepared: PreparedFunction, reason: str) -> None:
    """The function stays on the interpreter tier."""
    prepared.compiled = None
    runtime.compile_bailouts.append((prepared.name, reason))
    if runtime._obs is not None:
        runtime._obs.emit("jit-bailout", function=prepared.name,
                          reason=reason)
