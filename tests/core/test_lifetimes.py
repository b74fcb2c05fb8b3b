"""Object lifetimes: a finished run frees itself.

Once a caller drops a run's ``ExecutionResult``, reference counting
alone must free its ``Runtime`` (for the native baselines, its
``NativeMachine``); the cycle collector is left with the program's IR.
Each lifetime case runs with ``gc`` disabled, so a runtime kept alive
by a reference cycle shows up as a live weak reference (DESIGN.md,
"Object lifetimes").
"""

import gc
import weakref

import pytest

from repro.core.engine import SafeSulong
from repro.corpus.manifest import ENTRIES
from repro.obs.observer import Observer
from repro.tools import AsanRunner, MemcheckRunner, NativeRunner

from .test_speculate import FIELD_CALL, OOB_CALL

# name: (source, expected status, expected bug kinds)
PROGRAMS = {
    "direct-calls": (
        "int f(int x) { return x + 1; }\n"
        "int main(void) { int s = 0;\n"
        "  for (int i = 0; i < 5; i++) s += f(i);\n"
        "  return s; }\n", 15, []),
    "out-of-bounds": (
        "int main(void) { int a[4]; int i = 4; a[i] = 1; return 0; }\n",
        None, ["out-of-bounds"]),
    # *p loads through a register: the load node's _check_pointer.
    "null-checked-load": (
        "int main(void) { int *p = 0; return *p; }\n",
        None, ["null-dereference"]),
    # p->b is a gep whose only use is the load: the fused node.
    "null-fused-gep-load": (
        "struct s { int a; int b; };\n"
        "int main(void) { struct s *p = 0; return p->b; }\n",
        None, ["null-dereference"]),
    "malloc-free": (
        "#include <stdlib.h>\n"
        "int main(void) { int *p = malloc(16); p[0] = 1; int r = p[0];\n"
        "  free(p); return r; }\n", 1, []),
    "use-after-free": (
        "#include <stdlib.h>\n"
        "int main(void) { int *p = malloc(16); free(p); return p[0]; }\n",
        None, ["use-after-free"]),
    "function-pointers": (
        "int a(int x) { return x; }\n"
        "int b(int x) { return x * 2; }\n"
        "int main(void) { int (*fs[2])(int) = {a, b}; int s = 0;\n"
        "  for (int i = 0; i < 6; i++) s += fs[i % 2](i);\n"
        "  return s; }\n", 24, []),
    "exit": (
        "#include <stdlib.h>\n"
        "int main(void) { exit(3); }\n", 3, []),
    "recursion": (
        "int fib(int n) { return n < 2 ? n : fib(n - 1) + fib(n - 2); }\n"
        "int main(void) { return fib(8); }\n", 21, []),
}

TIERS = {
    "reference": {},
    "jit": {"jit_threshold": 1},
    "speculate": {"speculate": True, "jit_threshold": 2},
}

LEAKY = ("#include <stdlib.h>\n"
         "int *keep(void) { return malloc(8); }\n"
         "int main(void) { int *p = keep(); p = keep(); free(p);\n"
         "  return 0; }\n")
DEEP = ("int down(int n) { return n ? down(n - 1) + 1 : 0; }\n"
        "int main(void) { return down(50); }\n")
GREEDY = ("#include <stdlib.h>\n"
          "int main(void) { for (int i = 0; i < 64; i++) {\n"
          "  char *p = malloc(1024); p[0] = 1; } return 0; }\n")


def _runtime_freed(run, source, check) -> bool:
    """``run`` ``source`` with ``gc`` disabled, ``check`` the result,
    drop it, and tell whether its runtime is gone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        result = run(source)
        check(result)
        runtime = weakref.ref(result.runtime)
        del result
        return runtime() is None
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("tier", sorted(TIERS))
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_dropped_result_frees_its_runtime(libc, program, tier):
    source, status, kinds = PROGRAMS[program]

    def check(result):
        assert result.bug_kinds() == kinds
        assert result.status == status

    assert _runtime_freed(SafeSulong(**TIERS[tier]).run_source, source,
                          check)


# name: (engine factory, source, check of the result)
CONFIGURATIONS = {
    "detect-leaks": (lambda: SafeSulong(detect_leaks=True), LEAKY,
                     lambda r: r.bug_kinds() == ["memory-leak"]),
    "observer": (lambda: SafeSulong(observer=Observer(), jit_threshold=2),
                 PROGRAMS["function-pointers"][0],
                 lambda r: r.status == 24),
    "use-after-scope": (lambda: SafeSulong(detect_use_after_scope=True),
                        PROGRAMS["direct-calls"][0],
                        lambda r: r.status == 15),
    "call-depth-quota": (lambda: SafeSulong(max_call_depth=8), DEEP,
                         lambda r: r.limit_exceeded),
    "heap-quota": (lambda: SafeSulong(max_heap_bytes=16 * 1024), GREEDY,
                   lambda r: r.limit_exceeded),
}


@pytest.mark.parametrize("name", sorted(CONFIGURATIONS))
def test_configurations_free_their_runtime(libc, name):
    engine, source, expected = CONFIGURATIONS[name]

    def check(result):
        assert expected(result), result

    assert _runtime_freed(engine().run_source, source, check)


@pytest.mark.parametrize("source", [OOB_CALL, FIELD_CALL],
                         ids=["guard-trip-bug", "guard-trip-clean"])
def test_deopt_frees_its_runtime(libc, source):
    def check(result):
        assert result.runtime.guard_trips == result.runtime.deopts == 1

    engine = SafeSulong(speculate=True, jit_threshold=2)
    assert _runtime_freed(engine.run_source, source, check)


NATIVE_RUNNERS = {"clang-O0": NativeRunner, "asan-O0": AsanRunner,
                  "memcheck-O0": MemcheckRunner}

# name: (source, bug kinds asan-O0 and memcheck-O0 report; clang-O0
# reports none).  The two bugs take asan's check and free raise sites.
NATIVE_PROGRAMS = {
    "direct-calls": (PROGRAMS["direct-calls"][0], []),
    "function-pointers": (PROGRAMS["function-pointers"][0], []),
    "exit": (PROGRAMS["exit"][0], []),
    "use-after-free": (PROGRAMS["use-after-free"][0], ["use-after-free"]),
    "double-free": (
        "#include <stdlib.h>\n"
        "int main(void) { int *p = malloc(16); free(p); free(p);\n"
        "  return 0; }\n", ["double-free"]),
}


@pytest.mark.parametrize("program", sorted(NATIVE_PROGRAMS))
@pytest.mark.parametrize("tool", sorted(NATIVE_RUNNERS))
def test_native_run_frees_its_machine(tool, program):
    source, kinds = NATIVE_PROGRAMS[program]

    def check(result):
        assert result.runtime is not None
        assert result.bug_kinds() == ([] if tool == "clang-O0" else kinds)

    assert _runtime_freed(NATIVE_RUNNERS[tool](0).run, source, check)


def test_corpus_verdicts_leave_little_cyclic_garbage(libc):
    """What a corpus verdict leaves to the cycle collector is its
    program's IR: a few hundred objects, not the runtime's node tree
    (about 1,500 objects on average, 13,000 at worst, while call
    nodes captured the runtime)."""
    gc.collect()
    unreachable = {}
    for entry in ENTRIES:
        result = SafeSulong(max_steps=2_000_000).run_source(
            entry.source(), argv=entry.argv, stdin=entry.stdin,
            filename=entry.name + ".c", vfs=entry.vfs)
        assert result.bugs, entry.name
        del result
        unreachable[entry.name] = gc.collect()
    worst = max(unreachable, key=unreachable.get)
    assert unreachable[worst] <= 1000, (worst, unreachable[worst])
