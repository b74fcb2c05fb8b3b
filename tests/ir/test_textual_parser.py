"""Textual IR parser: hand-written IR, and print→parse→execute
round-trips of front-end output."""

import pytest

from repro import ir
from repro.cfront import compile_source
from repro.core.interpreter import Runtime
from repro.core.intrinsics import default_intrinsics
from repro.ir.parser import IRParseError, parse_module
from repro.ir.printer import print_module
from repro.native import run_native


class TestHandWrittenIR:
    def test_minimal_function(self):
        module = parse_module("""
            define i32 @main() {
            entry:
              ret i32 42
            }
        """)
        ir.validate_module(module)
        assert run_native(module).status == 42

    def test_arithmetic_and_branches(self):
        module = parse_module("""
            define i32 @main() {
            entry:
              %a = add i32 30, 12
              %c = icmp sgt i32 %a, 40
              br i1 %c, label %big, label %small
            big:
              ret i32 %a
            small:
              ret i32 0
            }
        """)
        ir.validate_module(module)
        assert run_native(module).status == 42

    def test_memory_and_gep(self):
        module = parse_module("""
            define i32 @main() {
            entry:
              %slot = alloca [4 x i32]
              %p = getelementptr [4 x i32], [4 x i32]* %slot, i64 0, i64 2
              store i32 7, i32* %p
              %v = load i32, i32* %p
              ret i32 %v
            }
        """)
        ir.validate_module(module)
        assert run_native(module).status == 7

    def test_calls_and_forward_references(self):
        module = parse_module("""
            define i32 @main() {
            entry:
              %r = call i32 @late(i32 20)
              ret i32 %r
            }

            define i32 @late(i32 %x) {
            entry:
              %d = mul i32 %x, 2
              ret i32 %d
            }
        """)
        ir.validate_module(module)
        assert run_native(module).status == 40

    def test_phi_nodes(self):
        module = parse_module("""
            define i32 @main() {
            entry:
              br i1 1, label %a, label %b
            a:
              br label %join
            b:
              br label %join
            join:
              %v = phi i32 [ 10, %a ], [ 20, %b ]
              ret i32 %v
            }
        """)
        ir.validate_module(module)
        assert run_native(module).status == 10

    def test_globals_and_switch(self):
        module = parse_module("""
            @seed = global i32 2

            define i32 @main() {
            entry:
              %v = load i32, i32* @seed
              %w = sext i32 %v to i64
              switch i64 %w, label %other [ i64 1, label %one i64 2, label %two ]
            one:
              ret i32 10
            two:
              ret i32 20
            other:
              ret i32 30
            }
        """)
        ir.validate_module(module)
        assert run_native(module).status == 20

    def test_unknown_instruction_rejected(self):
        with pytest.raises(IRParseError):
            parse_module("""
                define void @f() {
                entry:
                  frobnicate i32 1
                }
            """)

    @pytest.mark.parametrize("index, field_value", [("1", 2), ("%i", None)])
    def test_struct_index_lowered_alike_or_rejected(self, index, field_value):
        # Field 1 holds 2.  A constant index reads it on every executor;
        # a register index names no field, so the verifier rejects it
        # and no executor falls back to field 0 (which holds 1).
        text = PAIR_FIELD.replace("INDEX", index)
        if field_value is None:
            with pytest.raises(ir.ValidationError, match="struct index"):
                ir.validate_module(parse_module(text))
        else:
            ir.validate_module(parse_module(text))
        for run in _EXECUTORS:
            if field_value is None:
                with pytest.raises(TypeError, match="struct index"):
                    run(parse_module(text))
            else:
                assert run(parse_module(text)) == field_value


PAIR_FIELD = """
    %pair = type { i32, i32 }

    define i32 @main() {
    entry:
      %p.addr = alloca %pair
      %f0 = getelementptr %pair, %pair* %p.addr, i64 0, i32 0
      store i32 1, i32* %f0
      %f1 = getelementptr %pair, %pair* %p.addr, i64 0, i32 1
      store i32 2, i32* %f1
      %i = add i32 0, 1
      %q = getelementptr %pair, %pair* %p.addr, i64 0, i32 INDEX
      %v = load i32, i32* %q
      ret i32 %v
    }
"""


def _managed(module, **options):
    runtime = Runtime(module, intrinsics=default_intrinsics(), **options)
    status = runtime.run_main()
    assert runtime.compile_errors == []
    return status


# The interpreter, the JIT (compiling main at its first call), and the
# native machine.
_EXECUTORS = [_managed,
              lambda module: _managed(module, jit_threshold=1),
              lambda module: run_native(module).status]

SOURCES = [
    """
    int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
    int main(void) { return fib(11); }
    """,
    """
    static const char banner[8] = "ok";
    int main(void) {
        int total = 0;
        for (int i = 0; banner[i] != 0; i++) total += banner[i];
        return total & 0x7F;
    }
    """,
    """
    struct point { int x; int y; };
    static struct point origin = {3, 4};
    int main(void) {
        struct point p = origin;
        return p.x * 10 + p.y;
    }
    """,
    """
    int apply(int (*f)(int), int v) { return f(v); }
    static int triple(int v) { return 3 * v; }
    int main(void) { return apply(triple, 9); }
    """,
]


class TestRoundTrip:
    @pytest.mark.parametrize("index", range(len(SOURCES)))
    def test_print_parse_execute(self, index):
        source = SOURCES[index]
        original = compile_source(source, include_dirs=[])
        reference = run_native(original)

        text = print_module(original)
        reparsed = parse_module(text)
        ir.validate_module(reparsed)
        replayed = run_native(reparsed)

        assert replayed.status == reference.status
        assert replayed.stdout == reference.stdout

    def test_double_round_trip_is_stable(self):
        original = compile_source(SOURCES[0], include_dirs=[])
        once = print_module(parse_module(print_module(original)))
        twice = print_module(parse_module(once))
        assert once == twice
