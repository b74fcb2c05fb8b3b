"""Golden crash-provenance tests: ASan-style reports with managed call
stacks, allocation sites, and free sites — identical across tiers.

The managed model records provenance exactly: the stack is the real
activation chain the fault unwound through, and the object's
allocation/free sites were stamped when those events happened.  These
tests pin the report content for one program per bug class and assert
tier equivalence (the dynamic tier must never lose or reorder
provenance relative to the interpreter).
"""

import pytest

from repro.core import SafeSulong
from repro.obs.provenance import render_bug_report, render_heap_dump

UAF = """
#include <stdlib.h>
int use(int *p) { return *p; }
int main(void) {
    int *p = malloc(16);
    p[0] = 7;
    free(p);
    return use(p);
}
"""

DOUBLE_FREE = """
#include <stdlib.h>
int main(void) {
    int *p = malloc(8);
    free(p);
    free(p);
    return 0;
}
"""

HEAP_OOB = """
#include <stdlib.h>
int main(void) {
    int *p = malloc(4 * sizeof(int));
    return p[6];
}
"""

STACK_OOB = """
int main(void) {
    int a[4];
    a[0] = 1;
    return a[6];
}
"""

NULL_DEREF = """
int main(void) {
    int *p = 0;
    return *p;
}
"""


def _bug(source: str, filename: str, jit_threshold=None):
    engine = SafeSulong(jit_threshold=jit_threshold)
    result = engine.run_source(source, filename=filename)
    assert len(result.bugs) == 1, result.bugs
    return result.bugs[0]


class TestGoldenReports:
    def test_uaf_report_has_stack_alloc_and_free_sites(self):
        bug = _bug(UAF, "uaf.c")
        assert bug.kind == "use-after-free"
        # Innermost frame is the faulting read in use(); the caller
        # frame points at the call site in main().
        assert bug.stack[0][0] == "use"
        assert str(bug.stack[0][1]).startswith("uaf.c:3")
        assert bug.stack[1][0] == "main"
        assert str(bug.stack[1][1]).startswith("uaf.c:8")
        assert str(bug.alloc_site).startswith("uaf.c:5")
        assert str(bug.free_site).startswith("uaf.c:7")
        report = render_bug_report(bug)
        assert "== safe-sulong: ERROR: use-after-free" in report
        assert "#0 use uaf.c:3" in report
        assert "#1 main uaf.c:8" in report
        assert "allocated at uaf.c:5" in report
        assert "freed at uaf.c:7" in report

    def test_double_free_reports_first_free_site(self):
        bug = _bug(DOUBLE_FREE, "dfree.c")
        assert bug.kind == "double-free"
        # The fault is the second free; the provenance must point at
        # the *first* free, which is what made the second one a bug.
        assert str(bug.location).startswith("dfree.c:6")
        assert str(bug.free_site).startswith("dfree.c:5")
        assert str(bug.alloc_site).startswith("dfree.c:4")

    def test_heap_oob_names_object_and_alloc_site(self):
        bug = _bug(HEAP_OOB, "oob.c")
        assert bug.kind == "out-of-bounds"
        assert bug.object_label == "malloc(16)"
        assert bug.object_size == 16
        assert str(bug.alloc_site).startswith("oob.c:4")
        report = render_bug_report(bug)
        assert "object: malloc(16), 16 bytes" in report
        assert "allocated at oob.c:4" in report
        assert "freed at" not in report

    def test_stack_oob_alloc_site_is_the_declaration(self):
        bug = _bug(STACK_OOB, "stk.c")
        assert bug.kind == "out-of-bounds"
        assert bug.memory_kind == "stack"
        assert bug.object_label == "a"
        # Stack objects are stamped at their alloca: the declaration.
        assert str(bug.alloc_site).startswith("stk.c:3")
        assert str(bug.location).startswith("stk.c:5")

    def test_null_deref_has_stack_but_no_object(self):
        bug = _bug(NULL_DEREF, "null.c")
        assert bug.kind == "null-dereference"
        assert bug.stack[0][0] == "main"
        assert bug.alloc_site is None
        assert bug.free_site is None
        report = render_bug_report(bug)
        assert "#0 main null.c:4" in report
        assert "allocated at" not in report


class TestTierEquivalence:
    """The acceptance criterion: the same program must yield an
    identical provenance report whether the fault fires in the
    interpreter or in dynamically compiled code."""

    @pytest.mark.parametrize("name,source", [
        ("uaf.c", UAF),
        ("dfree.c", DOUBLE_FREE),
        ("oob.c", HEAP_OOB),
        ("stk.c", STACK_OOB),
        ("null.c", NULL_DEREF),
    ])
    def test_interpreter_and_jit_reports_match(self, name, source):
        interp = _bug(source, name, jit_threshold=None)
        # Threshold 1 compiles every function before its first run, so
        # the fault fires inside generated code.
        jit = _bug(source, name, jit_threshold=1)
        assert render_bug_report(interp) == render_bug_report(jit)
        assert [(fn, str(loc)) for fn, loc in interp.stack] \
            == [(fn, str(loc)) for fn, loc in jit.stack]


class TestHeapDump:
    def test_dump_shows_live_and_freed_with_sites(self):
        source = """
        #include <stdlib.h>
        int main(void) {
            int *kept = malloc(32);
            int *dropped = malloc(8);
            free(dropped);
            kept[0] = 1;
            return 0;
        }
        """
        engine = SafeSulong(track_heap=True)
        result = engine.run_source(source, filename="dump.c")
        dump = render_heap_dump(result.runtime)
        assert "heap dump: 2 tracked allocation(s)" in dump
        assert "[live " in dump and "[freed]" in dump
        assert "allocated at dump.c:4" in dump
        assert "freed at dump.c:6" in dump
        assert "1 live (32 B), 1 freed" in dump

    def test_dump_without_tracking_says_so(self):
        engine = SafeSulong()
        result = engine.run_source("int main(void){return 0;}",
                                   filename="t.c")
        assert "unavailable" in render_heap_dump(result.runtime)
