"""Interpreter-level details: uncommon widths, inline caches, pointer
identity, the virtual address space."""

import pytest

from repro import ir
from repro.core import objects as mo
from repro.core.interpreter import Runtime
from repro.core.intrinsics import default_intrinsics
from repro.ir import types as ty
from repro.ir.parser import parse_module


class TestUncommonWidths:
    def test_i48_global_roundtrip(self, engine):
        # The paper's example of an uncommon width is i48; our front end
        # cannot emit one from C, but the object model handles any width.
        obj = mo.IntArrayObject(6, 2)
        i48 = ty.int_type(48)
        obj.write(0, i48, 0xABCDEF123456)
        assert obj.read(0, i48) == 0xABCDEF123456

    def test_i1_semantics(self, engine):
        assert engine.run_source("""
            int main(void) {
                _Bool t = 5;     /* any non-zero collapses to 1 */
                _Bool f = 0;
                return t * 10 + f + (sizeof(_Bool) == 1) * 100;
            }
        """).status == 110


class TestFunctionPointerDispatch:
    def test_polymorphic_call_site(self, engine):
        # Exercises the inline cache with a megamorphic call site.
        assert engine.run_source("""
            static int add1(int x) { return x + 1; }
            static int dbl(int x) { return x * 2; }
            static int neg(int x) { return -x; }
            static int idn(int x) { return x; }
            int main(void) {
                int (*ops[4])(int);
                int total = 0;
                ops[0] = add1; ops[1] = dbl; ops[2] = neg; ops[3] = idn;
                for (int round = 0; round < 3; round++)
                    for (int i = 0; i < 4; i++)
                        total += ops[i](round + 1);
                return total + 50;
            }
        """).status == 50 + sum((r + 2) + 2 * (r + 1) - (r + 1) + (r + 1)
                                for r in range(3))

    def test_function_pointer_through_struct(self, engine):
        assert engine.run_source("""
            struct vtable { int (*area)(int, int); };
            static int rect(int w, int h) { return w * h; }
            int main(void) {
                struct vtable v;
                v.area = rect;
                return v.area(6, 7);
            }
        """).status == 42

    def test_function_pointer_equality(self, engine):
        assert engine.run_source("""
            static int f(void) { return 0; }
            static int g(void) { return 1; }
            int main(void) {
                int (*p)(void) = f;
                int (*q)(void) = f;
                int (*r)(void) = g;
                return (p == q) + (p != r) * 10;
            }
        """).status == 11


class TestIntrinsicCalls:
    # main calls @absent only when given an argument.
    ABSENT = """
        declare i32 @absent(i32)

        define i32 @main(i32 %argc) {
        entry:
          %c = icmp eq i32 %argc, 2
          br i1 %c, label %call, label %done
        call:
          %r = call i32 @absent(i32 1)
          ret i32 %r
        done:
          ret i32 7
        }
    """

    @pytest.mark.parametrize("jit_threshold", [None, 1])
    def test_missing_intrinsic_fails_at_its_first_call(self, jit_threshold):
        # A call node looks its handler up when its function is
        # prepared; a missing one is still a LinkError only when the
        # call runs.
        module = parse_module(self.ABSENT)
        runtime = Runtime(module, intrinsics=default_intrinsics(),
                          jit_threshold=jit_threshold)
        assert runtime.run_main(["program"]) == 7
        runtime = Runtime(module, intrinsics=default_intrinsics(),
                          jit_threshold=jit_threshold)
        with pytest.raises(ir.LinkError, match="@absent"):
            runtime.run_main(["program", "argument"])


class TestAddressSpace:
    def test_distinct_objects_distinct_addresses(self):
        space = mo.address_space()
        a = mo.ByteArrayObject(16)
        b = mo.ByteArrayObject(16)
        addr_a = space.address_of(mo.Address(a, 0))
        addr_b = space.address_of(mo.Address(b, 0))
        assert addr_a != addr_b

    def test_address_stable_per_object(self):
        space = mo.address_space()
        obj = mo.ByteArrayObject(8)
        first = space.address_of(mo.Address(obj, 0))
        second = space.address_of(mo.Address(obj, 0))
        assert first == second

    def test_offset_arithmetic_in_address(self):
        space = mo.address_space()
        obj = mo.ByteArrayObject(32)
        base = space.address_of(mo.Address(obj, 0))
        assert space.address_of(mo.Address(obj, 5)) == base + 5

    def test_interior_pointer_roundtrip(self):
        space = mo.address_space()
        obj = mo.ByteArrayObject(32)
        raw = space.address_of(mo.Address(obj, 7))
        back = space.to_pointer(raw)
        assert back.pointee is obj and back.offset == 7

    def test_null_roundtrip(self):
        space = mo.address_space()
        assert space.address_of(None) == 0
        assert space.to_pointer(0) is None

    def test_unknown_raw_pointer_is_dangling(self):
        space = mo.address_space()
        dangling = space.to_pointer(0x5)
        assert isinstance(dangling, mo.Address)
        assert dangling.pointee is None


class TestSwitchSemantics:
    def test_negative_case_values(self, engine):
        assert engine.run_source("""
            int classify(int x) {
                switch (x) {
                case -1: return 10;
                case 0: return 20;
                case 1: return 30;
                default: return 40;
                }
            }
            int main(void) {
                return classify(-1) + classify(0) + classify(1)
                     + classify(7);
            }
        """).status == 100

    def test_switch_on_char(self, engine):
        assert engine.run_source("""
            int main(void) {
                char grade = 'B';
                switch (grade) {
                case 'A': return 4;
                case 'B': return 3;
                case 'C': return 2;
                }
                return 0;
            }
        """).status == 3

    def test_switch_without_default_falls_through(self, engine):
        assert engine.run_source("""
            int main(void) {
                int x = 9;
                switch (x) { case 1: return 1; }
                return 77;
            }
        """).status == 77


class TestStringsAsObjects:
    def test_identical_literals_are_shared(self, engine):
        assert engine.run_source("""
            int main(void) {
                const char *a = "same";
                const char *b = "same";
                return a == b;  /* interned per module */
            }
        """).status == 1

    def test_literal_is_nul_terminated(self, engine):
        assert engine.run_source("""
            #include <string.h>
            int main(void) { return (int)strlen("12345"); }
        """).status == 5
