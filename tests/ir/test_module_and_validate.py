"""Modules, the mini-linker, the builder, and the verifier."""

import pytest

from repro import ir
from repro.ir import types as ty


def make_identity(name: str = "id") -> ir.Function:
    func = ir.Function(name, ty.FunctionType(ty.I32, [ty.I32]), ["x"])
    builder = ir.IRBuilder(func)
    entry = builder.new_block("entry")
    builder.set_block(entry)
    builder.ret(func.params[0])
    return func


class TestBuilder:
    def test_fresh_register_names_unique(self):
        func = make_identity()
        builder = ir.IRBuilder(func)
        a = builder.fresh(ty.I32)
        b = builder.fresh(ty.I32)
        assert a.name != b.name

    def test_dead_code_after_terminator_dropped(self):
        func = ir.Function("f", ty.FunctionType(ty.I32, []))
        builder = ir.IRBuilder(func)
        builder.set_block(builder.new_block("entry"))
        builder.ret(ir.ConstInt(ty.I32, 1))
        builder.ret(ir.ConstInt(ty.I32, 2))  # ignored
        assert len(func.entry.instructions) == 1

    def test_allocas_hoisted_to_entry(self):
        func = ir.Function("f", ty.FunctionType(ty.VOID, []))
        builder = ir.IRBuilder(func)
        entry = builder.new_block("entry")
        other = builder.new_block("loop")
        builder.set_block(entry)
        builder.br(other)
        builder.set_block(other)
        builder.alloca(ty.I32, "inside_loop")
        builder.ret()
        assert isinstance(entry.instructions[0], ir.Alloca)
        assert not any(isinstance(i, ir.Alloca)
                       for i in other.instructions)

    def test_unique_block_labels(self):
        func = ir.Function("f", ty.FunctionType(ty.VOID, []))
        a = func.add_block("body")
        b = func.add_block("body")
        assert a.label != b.label


class TestValidator:
    def test_valid_function_passes(self):
        ir.validate_function(make_identity())

    def test_missing_terminator(self):
        func = ir.Function("f", ty.FunctionType(ty.I32, []))
        builder = ir.IRBuilder(func)
        builder.set_block(builder.new_block("entry"))
        reg = builder.binop("add", ir.ConstInt(ty.I32, 1),
                            ir.ConstInt(ty.I32, 2))
        with pytest.raises(ir.ValidationError, match="terminator"):
            ir.validate_function(func)

    def test_use_of_undefined_register(self):
        func = ir.Function("f", ty.FunctionType(ty.I32, []))
        builder = ir.IRBuilder(func)
        builder.set_block(builder.new_block("entry"))
        ghost = ir.VirtualRegister("ghost", ty.I32)
        builder.ret(ghost)
        with pytest.raises(ir.ValidationError, match="undefined register"):
            ir.validate_function(func)

    def test_load_type_mismatch(self):
        func = ir.Function("f", ty.FunctionType(ty.I32, []))
        builder = ir.IRBuilder(func)
        builder.set_block(builder.new_block("entry"))
        slot = builder.alloca(ty.I64, "x")
        bad = ir.VirtualRegister("bad", ty.I32)
        func.entry.instructions.append(ir.Load(bad, slot))
        builder.ret(bad)
        with pytest.raises(ir.ValidationError, match="load type"):
            ir.validate_function(func)

    def test_binop_operand_mismatch(self):
        func = ir.Function("f", ty.FunctionType(ty.I32, []))
        builder = ir.IRBuilder(func)
        builder.set_block(builder.new_block("entry"))
        reg = ir.VirtualRegister("r", ty.I32)
        func.entry.instructions.append(
            ir.BinOp(reg, "add", ir.ConstInt(ty.I32, 1),
                     ir.ConstInt(ty.I64, 2)))
        builder.ret(reg)
        with pytest.raises(ir.ValidationError, match="binop operand"):
            ir.validate_function(func)

    def test_ret_in_void_function(self):
        func = ir.Function("f", ty.FunctionType(ty.VOID, []))
        builder = ir.IRBuilder(func)
        builder.set_block(builder.new_block("entry"))
        builder.ret(ir.ConstInt(ty.I32, 0))
        with pytest.raises(ir.ValidationError):
            ir.validate_function(func)


class TestLinker:
    def test_definition_resolves_declaration(self):
        lib = ir.Module("lib")
        lib.add_function(make_identity("helper"))

        app = ir.Module("app")
        declaration = ir.Function("helper",
                                  ty.FunctionType(ty.I32, [ty.I32]))
        app.add_function(declaration)
        main = ir.Function("main", ty.FunctionType(ty.I32, []))
        builder = ir.IRBuilder(main)
        builder.set_block(builder.new_block("entry"))
        result = builder.call(declaration, [ir.ConstInt(ty.I32, 7)])
        builder.ret(result)
        app.add_function(main)

        linked = lib.link(app)
        assert linked.get_function("helper").is_definition
        # The call site now references the definition object.
        call = linked.get_function("main").entry.instructions[0]
        assert call.callee is linked.get_function("helper")

    def test_duplicate_definitions_rejected(self):
        a = ir.Module("a")
        a.add_function(make_identity("f"))
        b = ir.Module("b")
        b.add_function(make_identity("f"))
        with pytest.raises(ir.LinkError, match="duplicate definition"):
            a.link(b)

    def test_extern_global_resolved(self):
        a = ir.Module("a")
        a.add_global(ir.GlobalVariable("counter", ty.I32,
                                       is_external=True))
        b = ir.Module("b")
        b.add_global(ir.GlobalVariable("counter", ty.I32,
                                       initializer=ir.ConstInt(ty.I32,
                                                               5)))
        linked = a.link(b)
        assert linked.globals["counter"].initializer is not None

    def test_duplicate_global_definitions_rejected(self):
        a = ir.Module("a")
        a.add_global(ir.GlobalVariable("g", ty.I32, zero_initialized=True))
        b = ir.Module("b")
        b.add_global(ir.GlobalVariable("g", ty.I32, zero_initialized=True))
        with pytest.raises(ir.LinkError, match="duplicate global"):
            a.link(b)

    def test_undefined_functions_listed(self):
        module = ir.Module("m")
        module.add_function(ir.Function("ext",
                                        ty.FunctionType(ty.VOID, [])))
        assert module.undefined_functions() == ["ext"]


class TestPrinter:
    def test_module_print_roundtrip_smoke(self):
        module = ir.Module("m")
        module.add_function(make_identity())
        text = ir.print_module(module)
        assert "define i32 @id(i32 %x)" in text
        assert "ret i32 %x" in text


# A program that defines a function libc only declares: linking it
# re-points libc's own calls (strdup's call of malloc) at the program.
DEFINES_MALLOC = """
#include <stddef.h>
#include <string.h>
static char pool[256];
static size_t used;
void *malloc(size_t size) {
    void *p = pool + used;
    used += size;
    return p;
}
int main(void) { return strdup("abc")[2] == 'c' ? 0 : 1; }
"""
CALLS_STRDUP = """
#include <string.h>
int main(void) { return strdup("hi")[1] == 'i' ? 0 : 1; }
"""


def stale_references(module):
    """(function, callee) for every Function operand that is not the
    module's own entry of that name.  Printed IR names callees by name,
    so only this identity check can see a stale reference."""
    return [(func.name, op.name)
            for func in module.functions.values()
            for instruction in func.instructions()
            for op in instruction.operands()
            if isinstance(op, ir.Function)
            and module.functions[op.name] is not op]


def calls_hook(module_name):
    """A module whose ``caller`` calls its own declaration of ``hook``."""
    module = ir.Module(module_name)
    hook = module.add_function(
        ir.Function("hook", ty.FunctionType(ty.I32, [ty.I32])))
    caller = ir.Function("caller", ty.FunctionType(ty.I32, []))
    builder = ir.IRBuilder(caller)
    builder.set_block(builder.new_block("entry"))
    builder.ret(builder.call(hook, [ir.ConstInt(ty.I32, 1)]))
    module.add_function(caller)
    return module


def defines(name):
    module = ir.Module(name)
    module.add_function(make_identity("hook"))
    return module


class TestLinkInvariant:
    def test_libc_relinked_after_a_program_that_defines_malloc(
            self, monkeypatch):
        from repro.cfront import compile_source
        from repro.libc import include_dir, libc_module, loader
        monkeypatch.setattr(loader, "_CACHED", loader._CACHED)
        libc = libc_module(force_reload=True)

        # Linked modules share libc's functions, so each is checked
        # before the next link re-points them.
        for source, name in ((DEFINES_MALLOC, "a.c"), (CALLS_STRDUP, "b.c"),
                             (CALLS_STRDUP, "c.c")):
            program = compile_source(source, filename=name,
                                     include_dirs=[include_dir()],
                                     defines={"__SAFE_SULONG__": "1"})
            linked = libc.link(program, name=name)
            assert linked.functions["malloc"].is_definition == \
                (name == "a.c")
            assert stale_references(linked) == [], name
        assert stale_references(libc) == []

    def test_function_re_pointed_through_another_module(self):
        # ``lib``'s caller is shared with ``combined``; relinking
        # ``combined`` against a definition of hook re-points it, so
        # the next link of ``lib`` itself must walk it back.
        lib = calls_hook("lib")
        combined = lib.link(ir.Module("empty"))
        assert stale_references(combined.link(defines("app"))) == []
        assert stale_references(lib.link(ir.Module("other"))) == []
        assert stale_references(lib) == []
