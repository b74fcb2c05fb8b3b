"""The dynamic-compilation tier (the Graal stand-in): equivalence with
the interpreter, safe semantics, and the background-compiler model."""

import pytest

from repro.bench.harness import PROGRAMS as SHOOTOUT
from repro.bench.harness import program_source
from repro.core import SafeSulong
from repro.core.errors import BugKind
from repro.obs.observer import Observer

PROGRAMS = {
    "arith": ("""
        int work(int n) {
            int acc = 0;
            for (int i = 0; i < n; i++) acc = acc * 3 + i;
            return acc & 0xFFFF;
        }
        int main(void) {
            int total = 0;
            for (int r = 0; r < 20; r++) total += work(r);
            return total & 0x7F;
        }
    """, None),
    "strings": ("""
        #include <stdio.h>
        #include <string.h>
        int main(void) {
            char buf[64] = "";
            for (int i = 0; i < 6; i++) strcat(buf, "ab");
            printf("%s %d\\n", buf, (int)strlen(buf));
            return 0;
        }
    """, None),
    "floats": ("""
        #include <math.h>
        #include <stdio.h>
        int main(void) {
            double acc = 0.0;
            for (int i = 1; i < 50; i++) acc += sqrt((double)i);
            printf("%.6f\\n", acc);
            return 0;
        }
    """, None),
    "heap": ("""
        #include <stdlib.h>
        int main(void) {
            int total = 0;
            for (int r = 0; r < 10; r++) {
                int *data = malloc(sizeof(int) * 8);
                for (int i = 0; i < 8; i++) data[i] = i * r;
                total += data[7];
                free(data);
            }
            return total;
        }
    """, None),
}


class TestTierEquivalence:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_same_output_and_status(self, name):
        source, argv = PROGRAMS[name]
        interpreted = SafeSulong().run_source(source, argv=argv)
        compiled = SafeSulong(jit_threshold=1).run_source(source, argv=argv)
        assert compiled.runtime.compiled_functions > 0
        assert interpreted.status == compiled.status
        assert interpreted.stdout == compiled.stdout

    def test_compiled_functions_counted(self):
        engine = SafeSulong(jit_threshold=2)
        result = engine.run_source("""
            int hot(int x) { return x * 2; }
            int main(void) {
                int n = 0;
                for (int i = 0; i < 10; i++) n += hot(i);
                return n;
            }
        """)
        assert result.runtime.compiled_functions >= 1


class TestSafeSemantics:
    """Dynamic compilation cannot optimize away a bug (contrast P2)."""

    def test_oob_detected_in_compiled_code(self):
        engine = SafeSulong(jit_threshold=1)
        result = engine.run_source("""
            int poke(int *a, int i) { return a[i]; }
            int main(void) {
                int data[4] = {1, 2, 3, 4};
                int sum = 0;
                for (int i = 0; i <= 4; i++) sum += poke(data, i);
                return sum;
            }
        """)
        assert result.detected_bug
        assert result.bugs[0].kind == BugKind.OUT_OF_BOUNDS
        assert result.runtime.compiled_functions >= 1

    def test_dead_oob_store_not_removed_by_tier(self):
        # Figure 3's loop: the static optimizer deletes it; the dynamic
        # compiler must not.
        engine = SafeSulong(jit_threshold=1)
        result = engine.run_source("""
            static int fill(unsigned long length) {
                int arr[10] = {0};
                for (unsigned long i = 0; i < length; i++) arr[i] = (int)i;
                return 0;
            }
            int main(void) {
                for (int r = 0; r < 5; r++) fill(9);
                return fill(12);
            }
        """)
        assert result.detected_bug

    def test_uaf_detected_in_compiled_code(self):
        engine = SafeSulong(jit_threshold=1)
        result = engine.run_source("""
            #include <stdlib.h>
            int read_slot(int *p) { return p[0]; }
            int main(void) {
                for (int i = 0; i < 5; i++) {
                    int *p = malloc(8);
                    p[0] = i;
                    read_slot(p);
                    free(p);
                }
                int *stale = malloc(8);
                free(stale);
                return read_slot(stale);
            }
        """)
        assert result.detected_bug
        assert result.bugs[0].kind == BugKind.USE_AFTER_FREE

    def test_bug_location_preserved_in_compiled_code(self):
        engine = SafeSulong(jit_threshold=1)
        result = engine.run_source("""
            int get(int *a, int i) { return a[i]; }
            int main(void) {
                int d[2] = {0, 1};
                int n = 0;
                for (int i = 0; i < 3; i++) n += get(d, i);
                return n;
            }
        """, filename="located.c")
        assert result.detected_bug
        assert result.bugs[0].location is not None
        assert result.bugs[0].location.filename == "located.c"


class TestBackgroundCompilerModel:
    def test_latency_defers_compilation(self):
        from repro.core.interpreter import Runtime
        from repro.core.intrinsics import default_intrinsics
        engine = SafeSulong()
        module = engine.compile("""
            int hot(int x) { return x + 1; }
            int main(void) {
                int n = 0;
                for (int i = 0; i < 50; i++) n += hot(i);
                return n & 0x7F;
            }
        """)
        runtime = Runtime(module, intrinsics=default_intrinsics(),
                          jit_threshold=2, jit_compile_latency=3600.0)
        runtime.run_main()
        # Threshold was crossed, but the "compiler thread" has not
        # caught up yet.
        assert runtime.compiled_functions == 0
        assert runtime.compile_queue

    def test_compile_log_records_events(self):
        observer = Observer()
        engine = SafeSulong(jit_threshold=1, observer=observer)
        engine.run_source("""
            int a(int x) { return x + 1; }
            int b(int x) { return a(x) * 2; }
            int main(void) {
                int n = 0;
                for (int i = 0; i < 4; i++) n += b(i);
                return n;
            }
        """)
        names = [event["function"] for event in observer.events
                 if event["event"] == "jit-compile"]
        assert "a" in names and "b" in names


# The third call spins long after the function was compiled at its
# second: only compiled code's own step count can stop it.
SPIN = """
    int spin(int n) {
        int s = 0;
        for (int i = 0; i < n; i++) s += i;
        return s;
    }
    int main(void) { spin(1); spin(1); return spin(50000) & 1; }
"""

TIERS = {"interpreter": {}, "jit": {"jit_threshold": 2},
         "speculate": {"jit_threshold": 2, "speculate": True}}


class TestStepCount:
    """Compiled code counts a step at every block transfer, where the
    interpreter's block loop counts one, against the same budget."""

    @pytest.mark.parametrize("tier", list(TIERS))
    def test_budget_stops_a_loop_in_a_compiled_function(self, tier):
        result = SafeSulong(max_steps=10_000, **TIERS[tier]).run_source(SPIN)
        assert result.limit_exceeded
        assert result.crash_message == "exceeded 10000 interpreter steps"
        assert result.runtime.steps == 10_001
        compiled = result.runtime.prepared["spin"].compiled
        assert (compiled is None) == (tier == "interpreter")

    @pytest.mark.parametrize("name", SHOOTOUT)
    def test_steps_equal_across_tiers(self, name):
        source = program_source(name)
        runs = {tier: SafeSulong(**options).run_source(source)
                for tier, options in TIERS.items()}
        assert runs["jit"].runtime.compiled_functions
        steps = {tier: run.runtime.steps for tier, run in runs.items()}
        assert len(set(steps.values())) == 1, steps
        assert len({run.stdout for run in runs.values()}) == 1
