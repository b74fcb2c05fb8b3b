"""Whole-module call graph with indirect-call resolution.

Direct edges come straight from ``Call`` instructions whose callee is a
:class:`~repro.ir.module.Function`.  Indirect sites (calls through a
function-pointer register) are resolved by a flow-insensitive
Andersen-style points-to pass over function-address constants: every
place a function's address can flow — register copies (bitcast, phi,
select), non-escaping -O0 stack slots, global variables and their
initializers, argument/return plumbing of direct calls — becomes an
inclusion constraint, and the solver propagates *sets of function
names* to a fixpoint.  A pointer the pass cannot track falls back to
the set of address-taken functions with a compatible signature, so the
resolved target set is always a sound over-approximation: the dynamic
inline cache (PR 4) can only ever observe a subset of it (the
differential test in ``tests/analysis`` pins exactly that).

SCCs of the defined-function subgraph come from Tarjan's algorithm;
``sccs`` lists them callees-first, which is the bottom-up order the
summary computation consumes.
"""

from __future__ import annotations

from ... import ir
from ...ir import instructions as inst
from ...ir import types as irt
from ...ir import values as irv
from ..dataflow import scalar_slots

# Points-to lattice top: "this pointer may hold any address-taken
# function" (resolved per site against the signature-compatible set).
_TOP = object()


class IndirectSite:
    """One indirect call site and its resolved target set."""

    __slots__ = ("call", "caller", "targets", "exact")

    def __init__(self, call: inst.Call, caller: str,
                 targets: frozenset[str], exact: bool):
        self.call = call
        self.caller = caller
        self.targets = targets  # function names (sound over-approx)
        self.exact = exact      # False when the fallback set was used

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "fallback"
        return (f"<IndirectSite in @{self.caller} {kind} "
                f"targets={sorted(self.targets)}>")


class CallGraph:
    """Call graph over one module (typically the linked program)."""

    def __init__(self, module: ir.Module):
        self.module = module
        self.defined = {name: function
                        for name, function in module.functions.items()
                        if function.is_definition}
        # caller name -> set of callee names (incl. declarations).
        self.direct_edges: dict[str, set[str]] = {
            name: set() for name in self.defined}
        # Direct calls whose callee is not a Function value or names no
        # function known to the module (must stay empty on the corpus).
        self.unresolved_direct: list[tuple[str, str]] = []
        self.address_taken: set[str] = set()
        self.indirect_sites: dict[int, IndirectSite] = {}
        self._collect_direct_and_address_taken()
        self._resolve_indirect()
        # Defined-to-defined edges only; SCCs and the bottom-up order
        # are over these.
        self.edges: dict[str, set[str]] = {
            name: {callee for callee in callees if callee in self.defined}
            for name, callees in self.direct_edges.items()}
        for site in self.indirect_sites.values():
            self.edges[site.caller].update(
                name for name in site.targets if name in self.defined)
        self.sccs: list[list[str]] = self._tarjan()

    # -- queries ------------------------------------------------------------

    def callees(self, name: str) -> set[str]:
        """Defined functions ``name`` may call (direct + indirect)."""
        return set(self.edges.get(name, ()))

    # -- direct edges & address-taken ---------------------------------------

    def _collect_direct_and_address_taken(self) -> None:
        for gvar in self.module.globals.values():
            self._functions_in_constant(gvar.initializer,
                                        self.address_taken)
        for name, function in self.defined.items():
            for instruction in function.instructions():
                if isinstance(instruction, inst.Call):
                    callee = instruction.callee
                    if isinstance(callee, ir.Function):
                        self.direct_edges[name].add(callee.name)
                    elif isinstance(callee, irv.VirtualRegister):
                        pass  # indirect; resolved below
                    elif isinstance(callee, irv.GlobalValue):
                        if callee.name in self.module.functions:
                            self.direct_edges[name].add(callee.name)
                        else:
                            self.unresolved_direct.append(
                                (name, callee.name))
                    else:
                        self.unresolved_direct.append(
                            (name, repr(callee)))
                    operands = instruction.args
                else:
                    operands = instruction.operands()
                for operand in operands:
                    self._functions_in_constant(operand,
                                                self.address_taken)

    def _functions_in_constant(self, value, into: set[str]) -> None:
        if value is None:
            return
        if isinstance(value, ir.Function):
            into.add(value.name)
        elif isinstance(value, (irv.ConstArray, irv.ConstStruct)):
            for element in value.elements:
                self._functions_in_constant(element, into)
        elif isinstance(value, irv.ConstGEP):
            self._functions_in_constant(value.base, into)

    # -- Andersen-style points-to over function constants -------------------

    def _resolve_indirect(self) -> None:
        pts: dict[object, object] = {}   # var -> set[str] | _TOP
        copies: dict[object, set] = {}   # src var -> {dst vars}

        def add(var, names) -> bool:
            current = pts.get(var)
            if current is _TOP:
                return False
            if names is _TOP:
                pts[var] = _TOP
                return True
            if current is None:
                current = pts[var] = set()
            before = len(current)
            current.update(names)
            return len(current) != before

        def copy_edge(src, dst) -> None:
            copies.setdefault(src, set()).add(dst)

        def value_var(value, slots):
            """The points-to variable for ``value``, a seed set for a
            function constant, or _TOP for anything untracked."""
            if isinstance(value, ir.Function):
                return ("seed", frozenset((value.name,)))
            if isinstance(value, irv.VirtualRegister):
                return ("r", id(value))
            if isinstance(value, irv.ConstNull):
                return ("seed", frozenset())
            if isinstance(value, irv.GlobalVariable):
                return ("seed", frozenset())  # address of data, not code
            return ("seed", _TOP) if _may_hold_function(value) \
                else ("seed", frozenset())

        seeds: list[tuple[object, object]] = []
        for gname, gvar in self.module.globals.items():
            names: set[str] = set()
            self._functions_in_constant(gvar.initializer, names)
            if names:
                seeds.append((("g", gname), names))

        indirect_calls: list[tuple[str, inst.Call]] = []
        for fname, function in self.defined.items():
            slots = scalar_slots(
                function,
                lambda t: isinstance(t, irt.PointerType) and
                isinstance(t.pointee, irt.FunctionType))

            def link(value, dst) -> None:
                var = value_var(value, slots)
                if var[0] == "seed":
                    seeds.append((dst, var[1]))
                else:
                    copy_edge(var, dst)

            for instruction in function.instructions():
                result = instruction.result
                if isinstance(instruction, inst.Cast):
                    if result is not None and \
                            _may_hold_function(result):
                        link(instruction.value, ("r", id(result)))
                elif isinstance(instruction, inst.Phi):
                    if _may_hold_function(result):
                        for _, value in instruction.incoming:
                            link(value, ("r", id(result)))
                elif isinstance(instruction, inst.Select):
                    if _may_hold_function(result):
                        link(instruction.if_true, ("r", id(result)))
                        link(instruction.if_false, ("r", id(result)))
                elif isinstance(instruction, inst.Load):
                    if not _may_hold_function(result):
                        continue
                    pointer = instruction.pointer
                    if isinstance(pointer, irv.VirtualRegister) and \
                            id(pointer) in slots:
                        copy_edge(("m", id(pointer)), ("r", id(result)))
                    elif isinstance(pointer, irv.GlobalVariable):
                        copy_edge(("g", pointer.name), ("r", id(result)))
                    elif isinstance(pointer, irv.ConstGEP) and \
                            isinstance(pointer.base, irv.GlobalVariable):
                        copy_edge(("g", pointer.base.name),
                                  ("r", id(result)))
                    else:
                        seeds.append((("r", id(result)), _TOP))
                elif isinstance(instruction, inst.Store):
                    value = instruction.value
                    if not _may_hold_function(value):
                        continue
                    pointer = instruction.pointer
                    if isinstance(pointer, irv.VirtualRegister) and \
                            id(pointer) in slots:
                        link(value, ("m", id(pointer)))
                    elif isinstance(pointer, irv.GlobalVariable):
                        link(value, ("g", pointer.name))
                    elif isinstance(pointer, irv.ConstGEP) and \
                            isinstance(pointer.base, irv.GlobalVariable):
                        # Mirror of the Load case: an element of a
                        # global aggregate shares the whole global's
                        # points-to variable.
                        link(value, ("g", pointer.base.name))
                    else:
                        # Stored through a pointer the pass does not
                        # model (runtime GEP, heap, ...).  Loads through
                        # such pointers are TOP and tracked slots are
                        # non-escaping, but a ConstGEP load from a
                        # global still resolves from its ("g", name)
                        # variable — so any global the destination could
                        # alias must absorb the value.
                        for gname in self.module.globals:
                            link(value, ("g", gname))
                elif isinstance(instruction, inst.Call):
                    callee = instruction.callee
                    if isinstance(callee, irv.VirtualRegister):
                        indirect_calls.append((fname, instruction))
                    target = callee if isinstance(callee, ir.Function) \
                        else self.module.functions.get(
                            getattr(callee, "name", ""))
                    if target is not None and target.is_definition:
                        for index, arg in enumerate(instruction.args):
                            if index >= len(target.params):
                                break
                            if _may_hold_function(target.params[index]):
                                link(arg, ("p", target.name, index))
                        if result is not None and \
                                _may_hold_function(result):
                            copy_edge(("ret", target.name),
                                      ("r", id(result)))
                    elif result is not None and \
                            _may_hold_function(result):
                        seeds.append((("r", id(result)), _TOP))
                elif isinstance(instruction, inst.Ret):
                    if instruction.value is not None and \
                            _may_hold_function(instruction.value):
                        link(instruction.value, ("ret", fname))
            for index, param in enumerate(function.params):
                if _may_hold_function(param):
                    copy_edge(("p", fname, index), ("r", id(param)))
                    if fname == "main" or fname in self.address_taken:
                        # Params of entry points / address-taken
                        # functions can receive anything.
                        seeds.append((("p", fname, index), _TOP))

        worklist: list[object] = []
        for var, names in seeds:
            if add(var, names):
                worklist.append(var)
        while worklist:
            var = worklist.pop()
            names = pts.get(var)
            for dst in copies.get(var, ()):
                if add(dst, names):
                    worklist.append(dst)

        for caller, call in indirect_calls:
            entry = pts.get(("r", id(call.callee)))
            if entry is _TOP or entry is None or not entry:
                targets = frozenset(
                    name for name in sorted(self.address_taken)
                    if self._signature_compatible(name, call))
                exact = False
            else:
                targets = frozenset(entry)
                exact = True
            self.indirect_sites[id(call)] = IndirectSite(
                call, caller, targets, exact)

    def _signature_compatible(self, name: str, call: inst.Call) -> bool:
        function = self.module.functions.get(name)
        if function is None:
            return True  # unknown shape: keep it (over-approximate)
        ftype = function.ftype
        fixed = len(ftype.params)
        if ftype.is_varargs:
            return len(call.args) >= fixed
        return len(call.args) == fixed

    # -- SCCs (Tarjan, iterative) -------------------------------------------

    def _tarjan(self) -> list[list[str]]:
        index: dict[str, int] = {}
        lowlink: dict[str, int] = {}
        on_stack: set[str] = set()
        stack: list[str] = []
        sccs: list[list[str]] = []
        counter = [0]

        def strongconnect(root: str) -> None:
            work = [(root, iter(sorted(self.edges.get(root, ()))))]
            index[root] = lowlink[root] = counter[0]
            counter[0] += 1
            stack.append(root)
            on_stack.add(root)
            while work:
                node, successors = work[-1]
                advanced = False
                for succ in successors:
                    if succ not in index:
                        index[succ] = lowlink[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append(
                            (succ, iter(sorted(self.edges.get(succ, ())))))
                        advanced = True
                        break
                    if succ in on_stack:
                        lowlink[node] = min(lowlink[node], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
                if lowlink[node] == index[node]:
                    component: list[str] = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    sccs.append(sorted(component))

        for name in sorted(self.defined):
            if name not in index:
                strongconnect(name)
        # Tarjan emits each SCC only after every SCC it reaches, so the
        # emission order is already callees-first (bottom-up).
        return sccs

    def is_recursive(self, scc: list[str]) -> bool:
        """Does this SCC contain a cycle (mutual or self recursion)?"""
        if len(scc) > 1:
            return True
        (name,) = scc
        return name in self.edges.get(name, ())


def _may_hold_function(value) -> bool:
    """Can this value's type hold a function address?"""
    vtype = getattr(value, "type", None)
    while isinstance(vtype, irt.PointerType):
        vtype = vtype.pointee
        if isinstance(vtype, irt.FunctionType):
            return True
    # i64 round-trips of function pointers (ptrtoint) are rare; the
    # pass treats them as untracked only if they feed an indirect call,
    # which goes TOP through the Cast rule's absence anyway.
    return False
