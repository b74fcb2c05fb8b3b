"""Optimizer passes: correctness and, crucially, the UB-exploiting
behaviour the paper warns about (P2)."""

import pytest

from repro import ir
from repro.cfront import compile_source
from repro.ir.parser import parse_module
from repro.native import compile_native, run_native
from repro.opt import (backendfold, constfold, dce, deadstore, loopdelete,
                       mem2reg, simplifycfg)
from repro.opt.pipeline import run_o3


def compile_plain(source):
    return compile_source(source, include_dirs=[])


def run_with_status(module, **kwargs):
    return run_native(module, **kwargs).status


class TestMem2Reg:
    def test_promotes_scalars(self):
        module = compile_plain("""
            int main(void) {
                int a = 3;
                int b = 4;
                return a * b;
            }
        """)
        main = module.functions["main"]
        assert mem2reg.run(main)
        allocas = [i for i in main.instructions()
                   if isinstance(i, ir.Alloca)]
        assert not allocas
        ir.validate_function(main)
        assert run_with_status(module) == 12

    def test_control_flow_values_preserved(self):
        source = """
            int pick(int c) {
                int x;
                if (c) x = 10; else x = 20;
                return x + 1;
            }
            int main(void) { return pick(1) + pick(0); }
        """
        module = compile_plain(source)
        for func in module.functions.values():
            if func.is_definition:
                mem2reg.run(func)
                ir.validate_function(func)
        assert run_with_status(module) == 32

    def test_loop_variable(self):
        module = compile_plain("""
            int main(void) {
                int sum = 0;
                for (int i = 0; i < 5; i++) sum += i;
                return sum;
            }
        """)
        main = module.functions["main"]
        mem2reg.run(main)
        ir.validate_function(main)
        assert run_with_status(module) == 10

    def test_address_taken_not_promoted(self):
        module = compile_plain("""
            static void bump(int *p) { (*p)++; }
            int main(void) {
                int x = 5;
                bump(&x);
                return x;
            }
        """)
        main = module.functions["main"]
        mem2reg.run(main)
        allocas = [i for i in main.instructions()
                   if isinstance(i, ir.Alloca)]
        assert allocas  # x escapes, must stay in memory
        assert run_with_status(module) == 6

    def test_store_laid_out_before_its_defining_load(self):
        # b1 stores %t, but %t's load sits in b2, which runs first and
        # comes later in the block list.  The stored value must resolve
        # through the promoted load, not linger in b3's phi.
        module = parse_module("""
            define i32 @main() {
            entry:
              %x.addr = alloca i32
              %y.addr = alloca i32
              store i32 5, i32* %x.addr
              br label %b2
            b1:
              store i32 %t, i32* %y.addr
              br label %b3
            b2:
              %t = load i32, i32* %x.addr
              br label %b1
            b3:
              %r = load i32, i32* %y.addr
              ret i32 %r
            }
        """)
        main = module.functions["main"]
        ir.validate_function(main)
        assert mem2reg.run(main)
        ir.validate_function(main)
        last = main.blocks[-1].instructions[-1]
        assert isinstance(last, ir.Ret)
        assert isinstance(last.value, ir.ConstInt) and last.value.value == 5
        assert run_with_status(module) == 5


class TestConstFold:
    def test_folds_arithmetic(self):
        module = compile_plain("int main(void){ return 6 * 7; }")
        main = module.functions["main"]
        mem2reg.run(main)
        constfold.run(main)
        ir.validate_function(main)
        assert run_with_status(module) == 42

    def test_identities(self):
        module = compile_plain("""
            int main(void) {
                int x = 9;
                return (x + 0) * 1 + (x & 0);
            }
        """)
        main = module.functions["main"]
        mem2reg.run(main)
        before = sum(1 for _ in main.instructions())
        constfold.run(main)
        dce.run(main)
        after = sum(1 for _ in main.instructions())
        assert after < before
        assert run_with_status(module) == 9

    def test_keeps_division_by_zero_trap(self):
        module = compile_plain("""
            int main(void) { int z = 0; return 5 / z; }
        """)
        run_o3(module)
        result = run_native(module)
        assert result.crashed


class TestDeadCodeElimination:
    def test_removes_unused_load(self):
        # THE P2 hazard: a dead out-of-bounds load disappears.
        module = compile_plain("""
            int main(void) {
                int a[4];
                a[0] = 1;
                int unused = a[100];   /* OOB, but dead */
                return a[0];
            }
        """)
        run_o3(module)
        main = module.functions["main"]
        loads = [i for i in main.instructions() if isinstance(i, ir.Load)]
        assert len(loads) == 1, "only the live a[0] load may survive"
        assert run_with_status(module) == 1


class TestLoopDeletion:
    def test_figure3_reduced_to_return_zero(self):
        module = compile_plain("""
            int test(unsigned long length) {
                int arr[10] = {0};
                for (unsigned long i = 0; i < length; i++) {
                    arr[i] = (int)i;
                }
                return 0;
            }
            int main(void) { return test(1000); }
        """)
        run_o3(module)
        test_fn = module.functions["test"]
        stores = [i for i in test_fn.instructions()
                  if isinstance(i, ir.Store)]
        assert not stores, "the dead store loop must be deleted"
        assert run_with_status(module) == 0

    def test_live_loop_not_deleted(self):
        module = compile_plain("""
            int main(void) {
                int sum = 0;
                for (int i = 0; i < 10; i++) sum += i;
                return sum;
            }
        """)
        run_o3(module)
        assert run_with_status(module) == 45

    def test_loop_with_call_not_deleted(self):
        module = compile_plain("""
            int putchar(int c);
            int main(void) {
                for (int i = 0; i < 3; i++) putchar('x');
                putchar(10);
                return 0;
            }
        """)
        run_o3(module)
        result = run_native(module)
        assert result.stdout == b"xxx\n"

    def test_loop_with_side_effects_survives(self):
        module = compile_plain("""
            int out;
            int main(void) {
                for (int i = 0; i < 4; i++) out += i;
                return out;
            }
        """)
        run_o3(module)
        assert run_with_status(module) == 6


class TestSimplifyCfg:
    def test_removes_unreachable_blocks(self):
        module = compile_plain("""
            int main(void) {
                if (1) return 4;
                return 5;
            }
        """)
        main = module.functions["main"]
        mem2reg.run(main)
        constfold.run(main)
        before = len(main.blocks)
        simplifycfg.run(main)
        assert len(main.blocks) < before
        ir.validate_function(main)
        assert run_with_status(module) == 4


class TestBackendFolds:
    def test_zero_global_const_index_folds_even_oob(self):
        # Figure 13: the OOB read of a never-written zero global folds to
        # 0 even at -O0, deleting the bug before instrumentation.
        module = compile_native("""
            int count[7];
            int main(void) { return count[7]; }
        """)
        main = module.functions["main"]
        loads = [i for i in main.instructions() if isinstance(i, ir.Load)]
        assert not loads
        assert run_with_status(module) == 0

    def test_written_global_not_folded(self):
        module = compile_native("""
            int hist[4];
            int main(void) {
                hist[1] = 9;
                return hist[1];
            }
        """)
        assert run_with_status(module) == 9

    def test_variable_index_not_folded(self):
        module = compile_native("""
            int zeros[4];
            int main(int argc, char **argv) {
                (void)argv;
                return zeros[argc];
            }
        """)
        main = module.functions["main"]
        loads = [i for i in main.instructions() if isinstance(i, ir.Load)]
        assert loads  # dynamic index survives

    def test_global_passed_to_function_not_folded(self):
        module = compile_native("""
            static long touch(int *p) { return (long)p; }
            int data[4];
            int main(void) {
                touch(data);
                return data[0];
            }
        """)
        main = module.functions["main"]
        loads = [i for i in main.instructions() if isinstance(i, ir.Load)]
        assert loads


class TestO3PreservesSemantics:
    PROGRAMS = [
        ("""
         int gcd(int a, int b) { while (b) { int t = a % b; a = b;
                                              b = t; } return a; }
         int main(void) { return gcd(48, 36); }
         """, 12),
        ("""
         int main(void) {
             int primes = 0;
             for (int n = 2; n < 30; n++) {
                 int is_prime = 1;
                 for (int d = 2; d * d <= n; d++)
                     if (n % d == 0) { is_prime = 0; break; }
                 primes += is_prime;
             }
             return primes;
         }
         """, 10),
        ("""
         int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
         int main(void) { return fib(10); }
         """, 55),
    ]

    @pytest.mark.parametrize("source,expected", PROGRAMS)
    def test_o3_matches_o0(self, source, expected):
        o0 = compile_native(source)
        o3 = compile_native(source, opt_level=3)
        assert run_with_status(o0) == expected
        assert run_with_status(o3) == expected
