"""Interpreter-vs-JIT differential suite.

Every program runs twice — once purely interpreted, once with the
dynamic tier forced on from the first call — and the two executions
must be indistinguishable: same exit status, same output, same bug
signatures, same crash/limit classification.  The corpus is the
examples directory plus generated snippets chosen to cover the IR
surface where tier divergence historically hides (division/remainder
masking, shifts, narrowing casts, function pointers, recursion).
"""

import glob
import os

import pytest

from repro.tools import SafeSulongRunner

pytestmark = pytest.mark.differential

EXAMPLES_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "examples")

EXAMPLES = sorted(glob.glob(os.path.join(EXAMPLES_DIR, "*.c")))

SNIPPETS = {
    "div_rem_signed": """
        #include <stdio.h>
        int div3(int a, int b) { return a / b + a % b; }
        int main(void) {
            int total = 0;
            int values[] = {7, -7, 100000, -100000, 1, -1, 2147483647};
            for (int i = 0; i < 7; i++)
                for (int j = 0; j < 7; j++)
                    if (values[j] != 0)
                        total += div3(values[i], values[j]);
            printf("%d\\n", total);
            return 0;
        }
    """,
    "div_int_min_by_minus_one": """
        #include <stdio.h>
        #include <limits.h>
        int wrap_div(int a, int b) { return a / b; }
        int wrap_rem(int a, int b) { return a % b; }
        int main(void) {
            int q = 0, r = 0;
            for (int i = 0; i < 4; i++) {
                q ^= wrap_div(INT_MIN, -1);
                r ^= wrap_rem(INT_MIN, -1);
            }
            printf("%d %d\\n", q, r);
            return 0;
        }
    """,
    "div_rem_unsigned_narrow": """
        #include <stdio.h>
        unsigned char du8(unsigned char a, unsigned char b) {
            return (unsigned char)(a / b);
        }
        unsigned short ru16(unsigned short a, unsigned short b) {
            return (unsigned short)(a % b);
        }
        int main(void) {
            unsigned total = 0;
            for (unsigned i = 1; i < 200; i += 7)
                total += du8((unsigned char)(i * 3), (unsigned char)i)
                       + ru16((unsigned short)(i * 211), (unsigned short)i);
            printf("%u\\n", total);
            return 0;
        }
    """,
    "div_by_zero_crash": """
        int divide(int a, int b) { return a / b; }
        int main(void) {
            int total = 0;
            for (int i = 3; i >= 0; i--) total += divide(12, i);
            return total;
        }
    """,
    "shifts_and_masks": """
        #include <stdio.h>
        unsigned mix(unsigned x, int s) {
            return (x << (s & 31)) ^ (x >> ((32 - s) & 31));
        }
        int main(void) {
            unsigned acc = 0x9E3779B9u;
            for (int i = 1; i < 64; i++) acc = mix(acc, i) + i;
            printf("%u\\n", acc);
            return 0;
        }
    """,
    "casts_and_compares": """
        #include <stdio.h>
        int clamp(long v) {
            if (v > 127) return 127;
            if (v < -128) return -128;
            return (int)v;
        }
        int main(void) {
            long total = 0;
            for (long v = -300; v < 300; v += 7) {
                signed char c = (signed char)v;
                unsigned char u = (unsigned char)v;
                total += clamp(v) + c + u + (c < u) + (v == (long)c);
            }
            printf("%ld\\n", total);
            return 0;
        }
    """,
    "arrays_and_structs": """
        #include <stdio.h>
        struct point { int x, y; };
        int taxi(const struct point *p) {
            return (p->x < 0 ? -p->x : p->x) + (p->y < 0 ? -p->y : p->y);
        }
        int main(void) {
            struct point grid[16];
            for (int i = 0; i < 16; i++) {
                grid[i].x = i * 3 - 20;
                grid[i].y = 7 - i;
            }
            int total = 0;
            for (int i = 0; i < 16; i++) total += taxi(&grid[i]);
            printf("%d\\n", total);
            return 0;
        }
    """,
    "heap_lifecycle": """
        #include <stdio.h>
        #include <stdlib.h>
        int fill(int *slots, int n) {
            int total = 0;
            for (int i = 0; i < n; i++) { slots[i] = i * i; total += slots[i]; }
            return total;
        }
        int main(void) {
            int total = 0;
            for (int round = 1; round <= 8; round++) {
                int *slots = malloc(round * sizeof(int));
                total += fill(slots, round);
                free(slots);
            }
            printf("%d\\n", total);
            return 0;
        }
    """,
    "heap_overflow_bug": """
        #include <stdlib.h>
        int get(int *slots, int i) { return slots[i]; }
        int main(void) {
            int *slots = malloc(4 * sizeof(int));
            int total = 0;
            for (int i = 0; i <= 4; i++) total += get(slots, i);
            return total;
        }
    """,
    "function_pointers": """
        #include <stdio.h>
        int add(int a, int b) { return a + b; }
        int sub(int a, int b) { return a - b; }
        int mul(int a, int b) { return a * b; }
        int main(void) {
            int (*ops[3])(int, int) = {add, sub, mul};
            int total = 0;
            for (int i = 0; i < 30; i++) total += ops[i % 3](total | 1, i);
            printf("%d\\n", total);
            return 0;
        }
    """,
    "recursion": """
        #include <stdio.h>
        int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }
        int main(void) {
            printf("%d\\n", fib(17));
            return 0;
        }
    """,
    "switch_dispatch": """
        #include <stdio.h>
        int kind(int c) {
            switch (c & 7) {
                case 0: return 1;
                case 1: case 2: return 2;
                case 3: return 3;
                case 6: return 6;
                default: return 0;
            }
        }
        int main(void) {
            int total = 0;
            for (int c = 0; c < 100; c++) total += kind(c) * c;
            printf("%d\\n", total);
            return 0;
        }
    """,
    "printf_formats": """
        #include <stdio.h>
        void show(int i) {
            printf("%d %u %x %c %05d %-4d|%s\\n",
                   -i, (unsigned)i * 3u, i * 17, 'a' + (i % 26),
                   i * 9, i, i % 2 ? "odd" : "even");
        }
        int main(void) {
            for (int i = 0; i < 12; i++) show(i);
            return 0;
        }
    """,
}


def _signature(result) -> dict:
    return {
        "status": result.status,
        "stdout": bytes(result.stdout),
        "stderr": bytes(result.stderr),
        "bugs": [str(bug) for bug in result.bugs],
        "crashed": result.crashed,
        "crash_message": result.crash_message,
        "limit_exceeded": result.limit_exceeded,
        "internal_error": result.internal_error,
    }


def _differential(source: str, filename: str) -> None:
    interp = SafeSulongRunner(jit_threshold=None)
    jit = SafeSulongRunner(jit_threshold=1)
    spec = SafeSulongRunner(speculate=True, jit_threshold=2)
    expected = _signature(interp.run(source, filename=filename))
    assert _signature(jit.run(source, filename=filename)) == expected
    assert _signature(spec.run(source, filename=filename)) == expected


@pytest.mark.parametrize("name", sorted(SNIPPETS))
def test_snippet_tiers_agree(name):
    _differential(SNIPPETS[name], name + ".c")


@pytest.mark.parametrize(
    "path", EXAMPLES, ids=[os.path.basename(p) for p in EXAMPLES])
def test_example_tiers_agree(path):
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    _differential(source, path)


def test_examples_corpus_not_empty():
    assert EXAMPLES, f"no example programs under {EXAMPLES_DIR}"


# --------------------------------------------------------------------
# Reduced repros from the generative oracle (repro.gen) sweep.  Each
# entry is a program that previously diverged between tiers (or
# miscompiled outright); they are pinned here with their expected
# output and must agree across interpreter, JIT, optimized (interpreted
# and compiled), native, and asan executions forever after.

GEN_REGRESSIONS = {
    # Struct-by-value parameters were lowered as register values: the
    # callee spilled the struct *address* into a struct-typed slot,
    # raising a raw TypeError in the managed tiers and computing
    # garbage on the native machine.  Fixed by the aggregate ABI
    # (caller-side byval copies).
    "struct_byval_param": (
        """
        #include <stdio.h>
        typedef struct { int x; int y; } P;
        int dot(P a, P b) { return a.x * b.x + a.y * b.y; }
        int main(void) {
            P a; a.x = 3; a.y = 4;
            P b; b.x = 5; b.y = 6;
            printf("%d\\n", dot(a, b));
            /* callee writes must not alias the caller's object */
            dot(a, a);
            printf("%d %d\\n", a.x, a.y);
            return 0;
        }
        """,
        b"39\n3 4\n",
    ),
    # Struct returns previously produced "expression is not an lvalue
    # (Call)" when initializing a local, and returning a local struct
    # handed back the address of a dead callee alloca.  Fixed by the
    # hidden sret parameter.
    "struct_return_sret": (
        """
        #include <stdio.h>
        typedef struct { int x; int y; } P;
        P mk(int x, int y) { P p; p.x = x; p.y = y; return p; }
        P addp(P a, P b) { P r; r.x = a.x + b.x; r.y = a.y + b.y; return r; }
        int main(void) {
            P a = mk(3, 4);
            P c = addp(a, mk(10, 20));
            printf("%d %d\\n", c.x, c.y);
            printf("%d\\n", mk(7, 8).y);          /* member of call */
            c = addp(mk(1, 1), mk(2, 2));          /* assign from call */
            printf("%d %d\\n", c.x, c.y);
            return 0;
        }
        """,
        b"13 24\n8\n3 3\n",
    ),
    # Address constants into global aggregates (&table[2], &s.field,
    # array decay in a pointer initializer) were rejected with
    # "initializer is not a constant expression".
    "global_address_constants": (
        """
        #include <stdio.h>
        int table[5] = {10, 20, 30, 40, 50};
        struct S { int a; int b; } s = {7, 8};
        int *gp = &table[2];
        int *gfirst = table;
        int *gfield = &s.b;
        int main(void) {
            printf("%d %d %d\\n", *gp, *gfirst, *gfield);
            printf("%d\\n", (int)(gp - gfirst));
            return 0;
        }
        """,
        b"30 10 8\n2\n",
    ),
}


def _five_tiers():
    from repro.tools import AsanRunner, NativeRunner
    return {
        "interp": SafeSulongRunner(jit_threshold=None),
        "jit": SafeSulongRunner(jit_threshold=1),
        "safe-o2": SafeSulongRunner(speculate=True),
        "speculate": SafeSulongRunner(speculate=True, jit_threshold=2),
        "native": NativeRunner(0),
        "asan": AsanRunner(0),
    }


@pytest.mark.parametrize("name", sorted(GEN_REGRESSIONS))
def test_gen_regression_tiers_agree(name):
    source, expected = GEN_REGRESSIONS[name]
    for tier, runner in _five_tiers().items():
        result = runner.run(source, filename=name + ".c")
        assert not result.crashed, (tier, result.crash_message)
        assert result.status == 0, (tier, result.status)
        assert bytes(result.stdout) == expected, (tier, result.stdout)
