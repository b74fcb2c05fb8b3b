"""The native execution model: silent corruption, segfaults, layout."""

import pytest

from repro.native import NativeMachine, Segfault, compile_native, run_native
from repro.native import memory as layout
from repro.native.machine import Tool


def native(source, **kwargs):
    module = compile_native(source)
    return run_native(module, **kwargs)


class TestSilentUndefinedBehaviour:
    def test_stack_overflow_corrupts_neighbour(self):
        # The canonical native failure mode: the OOB write lands in
        # another local and the program computes a wrong result.
        result = native("""
            int main(void) {
                int victim = 1;
                int a[2];
                a[2] = 77;          /* writes into victim */
                return victim;
            }
        """)
        assert not result.crashed
        assert result.status == 77

    def test_heap_overflow_is_silent(self):
        result = native("""
            #include <stdlib.h>
            int main(void) {
                int *p = malloc(4 * sizeof(int));
                p[4] = 5;   /* allocator slack: no visible effect */
                return 0;
            }
        """)
        assert result.status == 0 and not result.crashed

    def test_use_after_free_reads_stale_data(self):
        result = native("""
            #include <stdlib.h>
            int main(void) {
                int *p = malloc(8);
                p[0] = 123;
                free(p);
                return p[0];  /* data still there */
            }
        """)
        assert result.status == 123

    def test_malloc_reuses_freed_block(self):
        result = native("""
            #include <stdlib.h>
            int main(void) {
                char *a = malloc(16);
                free(a);
                char *b = malloc(16);
                return a == b;  /* immediate reuse */
            }
        """)
        assert result.status == 1

    def test_uninitialized_local_reads_stale_stack(self):
        result = native("""
            static void put(int v) { int slot = v; (void)slot; }
            static int peek(void) { int slot; return slot; }
            int main(void) {
                put(42);
                return peek();  /* sees put()'s dead frame */
            }
        """)
        assert result.status == 42


class TestTraps:
    def test_null_dereference_segfaults(self):
        result = native("int main(void){ int *p = 0; return *p; }")
        assert result.crashed and "SIGSEGV" in result.crash_message

    def test_wild_pointer_segfaults(self):
        result = native("""
            int main(void) {
                int *p = (int *)0xFFFFFFF0;
                return *p;
            }
        """)
        assert result.crashed

    def test_division_by_zero_traps(self):
        result = native("int main(void){ int z = 0; return 7 / z; }")
        assert result.crashed

    def test_call_through_data_pointer_faults(self):
        result = native("""
            int main(void) {
                int x = 5;
                int (*f)(void) = (int (*)(void))&x;
                return f();
            }
        """)
        assert result.crashed


class TestArgvEnvironment:
    def test_argv_strings_readable(self):
        result = native("""
            #include <stdio.h>
            int main(int argc, char **argv) {
                printf("%d %s\\n", argc, argv[1]);
                return 0;
            }
        """, argv=["tool", "arg"])
        assert result.stdout == b"2 arg\n"

    def test_argv_overflow_reads_environment(self):
        # Figure 10's exploitability: the OOB argv read leaks env data.
        result = native("""
            #include <stdio.h>
            int main(int argc, char **argv) {
                printf("%s\\n", argv[argc + 1]);
                return 0;
            }
        """, argv=["tool"])
        assert b"SULONG_SECRET" in result.stdout

    def test_envp_parameter(self):
        result = native("""
            #include <stdio.h>
            int main(int argc, char **argv, char **envp) {
                puts(envp[0]);
                return 0;
            }
        """)
        assert b"=" in result.stdout


class TestMachineInternals:
    def test_memory_layout_constants(self):
        assert layout.GLOBALS_BASE < layout.HEAP_BASE < layout.STACK_LIMIT
        assert layout.STACK_TOP == layout.ARGV_BASE
        assert layout.MEMORY_SIZE > layout.ARGV_BASE

    def test_reset_restores_globals(self):
        module = compile_native("""
            int counter = 10;
            int main(void) { return ++counter; }
        """)
        machine = NativeMachine(module)
        assert machine.run_main() == 11
        assert machine.run_main() == 12  # state persists ...
        machine.reset()
        assert machine.run_main() == 11  # ... until reset

    def test_stack_exhaustion_segfaults(self):
        result = native("""
            int deep(int n) { int pad[64]; pad[0] = n;
                              return deep(pad[0] + 1); }
            int main(void) { return deep(0); }
        """, max_steps=50_000_000)
        assert result.crashed

    def test_out_of_heap_returns_null(self):
        result = native("""
            #include <stdlib.h>
            int main(void) {
                void *p = malloc(100 * 1024 * 1024);
                return p == 0;
            }
        """)
        assert result.status == 1


class _Failing(Tool):
    """Raises ``error`` at the program's first store, as a host fault
    inside the tool would."""

    def __init__(self, error: BaseException):
        self.error = error

    def on_write(self, machine, address, size, loc):
        raise self.error


class TestRunOutcome:
    """A native run ends the way a managed run does (engine.run_outcome)."""

    SOURCE = "int main(void) { int x = 1; return x; }"

    def test_host_memory_exhaustion_is_a_limit(self):
        result = native(self.SOURCE, tool=_Failing(MemoryError("simulated")))
        assert result.limit_exceeded
        assert result.crash_message == "host memory exhausted: simulated"

    def test_tool_recursion_is_an_internal_error(self):
        result = native(self.SOURCE, tool=_Failing(RecursionError("deep")))
        assert result.internal_error == \
            "RecursionError escaped to the engine boundary: deep"


class TestDifferentialWithManaged:
    SOURCES = [
        """
        int main(void) {
            int acc = 0;
            for (int i = 1; i <= 10; i++) acc = acc * 2 + i % 3;
            return acc & 0x7F;
        }
        """,
        """
        #include <string.h>
        int main(void) {
            char buf[32];
            strcpy(buf, "delta");
            return (int)strlen(buf) + buf[0];
        }
        """,
        """
        #include <stdlib.h>
        int main(void) {
            int *v = malloc(sizeof(int) * 10);
            for (int i = 0; i < 10; i++) v[i] = i * i;
            int sum = 0;
            for (int i = 0; i < 10; i++) sum += v[i];
            free(v);
            return sum & 0x7F;
        }
        """,
    ]

    @pytest.mark.parametrize("index", range(len(SOURCES)))
    def test_same_result(self, engine, index):
        source = self.SOURCES[index]
        managed = engine.run_source(source)
        nat = native(source)
        assert managed.status == nat.status
        assert managed.stdout == nat.stdout
