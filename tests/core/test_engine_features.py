"""Engine-level behavior: I/O plumbing, exit codes, leak detection,
use-after-scope (extensions), and the no-native-code policy."""

import pytest

from repro import ir
from repro.core import SafeSulong
from repro.core.errors import BugKind
from repro.obs.observer import Observer
from repro.tools import AsanRunner, MemcheckRunner, NativeRunner


class TestProcessModel:
    def test_exit_status_from_main(self, engine):
        assert engine.run_source("int main(void){return 41;}").status == 41

    def test_exit_call_unwinds(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            #include <stdlib.h>
            void stop(void) { exit(7); }
            int main(void) { puts("before"); stop(); puts("after"); }
        """)
        assert result.status == 7
        assert result.stdout == b"before\n"

    def test_atexit_handlers_run(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            #include <stdlib.h>
            static void bye(void) { puts("bye"); }
            static void last(void) { puts("last"); }
            int main(void) {
                atexit(last);
                atexit(bye);
                exit(0);
            }
        """)
        assert result.stdout == b"bye\nlast\n"  # reverse order

    def test_negative_status_wraps_like_posix(self, engine):
        result = engine.run_source("int main(void){ return -1; }")
        assert result.status == -1

    def test_argv_passed(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            int main(int argc, char **argv) {
                for (int i = 0; i < argc; i++) puts(argv[i]);
                return argc;
            }
        """, argv=["tool", "alpha", "beta"])
        assert result.status == 3
        assert result.stdout == b"tool\nalpha\nbeta\n"

    def test_stdin_stdout_roundtrip(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            int main(void) {
                int c;
                while ((c = getchar()) != EOF) putchar(c + 1);
                return 0;
            }
        """, stdin=b"HAL")
        assert result.stdout == b"IBM"

    def test_stderr_separate(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            int main(void) {
                fprintf(stderr, "oops\\n");
                fprintf(stdout, "fine\\n");
                return 0;
            }
        """)
        assert result.stdout == b"fine\n"
        assert result.stderr == b"oops\n"

    def test_virtual_filesystem(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            int main(void) {
                FILE *f = fopen("config.txt", "r");
                char line[32];
                if (f == NULL) return 1;
                fgets(line, 32, f);
                fclose(f);
                printf("got: %s", line);
                return 0;
            }
        """, vfs={"config.txt": b"threshold=9\n"})
        assert result.stdout == b"got: threshold=9\n"

    def test_file_write_and_read_back(self, engine):
        result = engine.run_source("""
            #include <stdio.h>
            int main(void) {
                FILE *out = fopen("data.txt", "w");
                fputs("hello file", out);
                fclose(out);
                FILE *in = fopen("data.txt", "r");
                char buf[32];
                fgets(buf, 32, in);
                fclose(in);
                puts(buf);
                return 0;
            }
        """)
        assert result.stdout == b"hello file\n"


class TestNoNativeInterop:
    def test_unknown_function_rejected_at_link(self, engine):
        # §5: Safe Sulong provides no native function interface.
        with pytest.raises(ir.LinkError, match="native"):
            engine.compile("""
                int mystery_native_function(int);
                int main(void) { return mystery_native_function(1); }
            """)


class TestLeakDetection:
    def test_unfreed_allocation_reported(self):
        engine = SafeSulong(detect_leaks=True)
        result = engine.run_source("""
            #include <stdlib.h>
            int main(void) {
                malloc(32);
                return 0;
            }
        """)
        assert len(result.bugs) == 1
        assert result.bugs[0].kind == BugKind.MEMORY_LEAK

    def test_freed_allocation_not_reported(self):
        engine = SafeSulong(detect_leaks=True)
        result = engine.run_source("""
            #include <stdlib.h>
            int main(void) {
                void *p = malloc(32);
                free(p);
                return 0;
            }
        """)
        assert not result.bugs

    def test_leaks_deduped_by_alloc_site(self):
        # Three leaks from the same malloc site collapse into one report
        # carrying the aggregate block/byte counts (LeakSanitizer-style).
        engine = SafeSulong(detect_leaks=True)
        result = engine.run_source("""
            #include <stdlib.h>
            int main(void) {
                for (int i = 0; i < 3; i++) malloc(8);
                void *kept = malloc(8);
                free(kept);
                return 0;
            }
        """)
        assert len(result.bugs) == 1
        leak = result.bugs[0]
        assert "24 bytes in 3 block(s)" in leak.message
        assert "allocated at" in leak.message
        assert leak.alloc_site is not None


class TestUseAfterScope:
    def test_use_after_return_detected_when_enabled(self):
        engine = SafeSulong(detect_use_after_scope=True)
        result = engine.run_source("""
            int *escape(void) {
                int local = 5;
                return &local;
            }
            int main(void) {
                int *p = escape();
                return *p;
            }
        """)
        assert result.detected_bug
        assert result.bugs[0].kind in (BugKind.USE_AFTER_SCOPE,
                                       BugKind.USE_AFTER_FREE)

    # f compiles at its second call when the JIT is on; the escaped
    # local of its last call is read after that call returned.
    ESCAPE_IN_LOOP = """
        int *f(int v) { int x = v; return &x; }
        int main(void) {
            int *p = 0;
            for (int i = 0; i < 5; i++) p = f(i);
            return *p;
        }
    """

    @pytest.mark.parametrize("options", [
        {}, {"jit_threshold": 2}, {"jit_threshold": 2, "speculate": True},
    ], ids=["interpreter", "jit", "speculate"])
    def test_detected_on_every_tier(self, options):
        result = SafeSulong(detect_use_after_scope=True,
                            **options).run_source(self.ESCAPE_IN_LOOP)
        assert [str(bug) for bug in result.bugs] == [
            "use-after-scope read of stack object at program.c:6:21: "
            "read of x after its scope ended"]
        assert result.runtime.compiled_functions == 0

    def test_gc_semantics_by_default(self, engine):
        # The paper's Safe Sulong keeps escaped stack objects alive (GC
        # semantics) — no use-after-scope report by default.
        result = engine.run_source("""
            int *escape(void) {
                static int fallback = 9;
                int local = 5;
                int *p = &local;
                return *p == 5 ? p : &fallback;
            }
            int main(void) { return *escape(); }
        """)
        assert not result.detected_bug
        assert result.status == 5


class TestInterpreterLimits:
    def test_step_budget(self):
        engine = SafeSulong(max_steps=10_000)
        result = engine.run_source("""
            int main(void) { for (;;) {} return 0; }
        """)
        assert result.limit_exceeded

    # Every executor runs the interpreter's block loop: the managed
    # interpreter as prepared with no observer, with counting steps and
    # with recording steps, and the native machine under each tool.
    BUDGETED = {
        "interpreter": lambda: SafeSulong(max_steps=100),
        "counting": lambda: SafeSulong(max_steps=100, observer=Observer()),
        "block-trace": lambda: SafeSulong(
            max_steps=100, observer=Observer(block_trace=True)),
        "clang-O0": lambda: NativeRunner(0),
        "asan-O0": lambda: AsanRunner(0),
        "memcheck-O0": lambda: MemcheckRunner(0),
    }

    @pytest.mark.parametrize("executor", sorted(BUDGETED))
    def test_step_budget_on_every_executor(self, libc, executor):
        runner = self.BUDGETED[executor]()
        source = "int main(void) { for (;;); }\n"
        if isinstance(runner, SafeSulong):
            result = runner.run_source(source)
        else:
            result = runner.run(source, max_steps=100)
        assert result.limit_exceeded
        assert result.crash_message == "exceeded 100 interpreter steps"
        assert result.runtime.steps == 101
