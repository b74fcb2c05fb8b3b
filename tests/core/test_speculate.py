"""Speculative check elision: guard/deopt correctness.

The speculation contract (DESIGN.md §6): in compiled code, a
loop-invariant guard at the preheader proves, once per loop entry,
everything the per-iteration checks it replaces would have proven; when
the guard fails, compiled code raises ``DeoptSignal`` and the call
re-runs on the fully checked interpreter, so detection is never lost,
only the fast path.
"""

import re

import pytest

from repro.core.engine import SafeSulong
from repro.tools import SafeSulongRunner

# Static functions get a process-global rename counter
# (name.static.N); compiling the same source twice in one process
# yields different N, so provenance comparison normalizes it away.
_STATIC = re.compile(r"\.static\.\d+")

pytestmark = pytest.mark.speculate


SPECULABLE = """
int total(int *a, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) s += a[i];
  return s;
}
int main(void) {
  int buf[64];
  for (int i = 0; i < 64; i++) buf[i] = i;
  int acc = 0;
  for (int r = 0; r < 40; r++) acc += total(buf, 64);
  %s
  return acc & 127;
}
"""

CLEAN = SPECULABLE % ""
OOB_CALL = SPECULABLE % "acc += total(buf + 32, 64);"
# A struct field is not an int array: the guard's array-kind check
# fails, but both reads stay inside the struct.
FIELD_CALL = SPECULABLE % (
    "struct pair { int a; int b; } p = {7, 8}; acc += total(&p.a, 2);")


def _signature(result):
    return {
        "status": result.status,
        "stdout": bytes(result.stdout),
        "bugs": [(bug.kind, bug.message, str(bug.location),
                  [(_STATIC.sub(".static", fn), str(loc))
                   for fn, loc in bug.stack])
                 for bug in result.bugs],
        "crashed": result.crashed,
        "crash_message": result.crash_message,
    }


class TestInterpreterGuards:
    """Compiled guards and the interpreter they deopt to.  The
    interpreter itself speculates nothing."""

    def test_clean_run_speculates_without_trips(self):
        plain = SafeSulong().run_source(CLEAN)
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(CLEAN)
        assert _signature(spec) == _signature(plain)
        total = spec.runtime.prepared["total"]
        assert total.compiled is not None
        assert len(total.speculation.plans) == 1
        assert spec.runtime.guard_trips == 0
        assert spec.runtime.deopts == 0

    def test_guard_trip_falls_back_and_detects(self):
        # The last call's index range pokes past the object: the
        # hoisted bounds guard fails, the call re-runs fully checked,
        # and the out-of-bounds is reported exactly as without
        # speculation.
        plain = SafeSulong().run_source(OOB_CALL)
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(OOB_CALL)
        assert plain.bugs and plain.bugs[0].kind == "out-of-bounds"
        assert _signature(spec) == _signature(plain)
        assert spec.runtime.guard_trips == spec.runtime.deopts == 1
        # The deopt undoes the steps the replayed activation counted.
        assert spec.runtime.steps == plain.runtime.steps

    def test_guard_trip_without_bug_stays_correct(self):
        # A struct field passed where the guard expects an int array:
        # the guard fails (wrong object kind), but the accesses are in
        # bounds — the fully checked re-run gives the bug-free result.
        plain = SafeSulong().run_source(FIELD_CALL)
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(FIELD_CALL)
        assert not plain.bugs
        assert _signature(spec) == _signature(plain)
        assert spec.runtime.guard_trips == spec.runtime.deopts == 1
        assert spec.runtime.steps == plain.runtime.steps

    def test_interpreter_prepares_one_block_per_ir_block(self):
        spec = SafeSulong(speculate=True).run_source(CLEAN)
        assert spec.runtime.prepared
        for prepared in spec.runtime.prepared.values():
            assert len(prepared.blocks) == len(prepared.function.blocks)


class TestDeopt:
    def test_compiled_guard_failure_deopts_and_redetects(self):
        plain = SafeSulong().run_source(OOB_CALL)
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(OOB_CALL)
        assert _signature(spec) == _signature(plain)
        # The hot function compiled speculatively, then the bad call
        # tripped the compiled guard: DeoptSignal → invalidate → the
        # interpreter re-runs the call fully checked.
        assert spec.runtime.deopts + spec.runtime.guard_trips >= 1

    def test_deopt_invalidates_the_speculative_plan(self):
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(OOB_CALL)
        runtime = spec.runtime
        assert runtime.deopts == 1  # compiled before the bad call
        assert runtime.prepared["total"].compiled is None

    def test_deopt_is_not_a_compile_bailout(self):
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(OOB_CALL)
        assert spec.runtime.deopts == 1
        assert spec.runtime.compile_bailouts == []

    def test_clean_compiled_run_no_deopt(self):
        plain = SafeSulong().run_source(CLEAN)
        spec = SafeSulong(speculate=True,
                          jit_threshold=2).run_source(CLEAN)
        assert _signature(spec) == _signature(plain)
        assert spec.runtime.deopts == 0


class TestPlantedBugs:
    """Generated programs with planted spatial/temporal bugs must be
    caught under --speculate with byte-identical provenance."""

    SEEDS = [1, 3, 5, 7, 11, 15]  # odd: spatial (4k+1) / temporal (4k+3)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_planted_bug_identical_under_speculation(self, seed):
        from repro.gen import GenConfig, choose_plant, generate
        plant = choose_plant(seed, "mixed")
        assert plant in ("spatial", "temporal")
        program = generate(seed, GenConfig(plant=plant))
        plain = SafeSulongRunner(jit_threshold=None).run(
            program.source, filename=program.filename)
        spec = SafeSulongRunner(speculate=True).run(
            program.source, filename=program.filename)
        spec_jit = SafeSulongRunner(speculate=True, jit_threshold=2).run(
            program.source, filename=program.filename)
        assert _signature(spec) == _signature(plain)
        assert _signature(spec_jit) == _signature(plain)
