"""Safe-tier -O2 (opt/pipeline.run_safe_o2): mem2reg + GVN + LICM +
detection-preserving DCE, constrained to transformations valid under
managed semantics.

The contract under test: the optimized IR computes the same values AND
detects the same bugs — a safe-tier pass may remove redundant pure
work, never an instruction whose execution is how an error gets found
(loads, stores, geps, calls, division).
"""

import hashlib
import json
import os
import re
import time

import pytest

from repro import ir
from repro.bench.harness import PROGRAMS, program_source
from repro.cfront import compile_source
from repro.core.engine import SafeSulong
from repro.corpus import ENTRIES
from repro.gen import GenConfig, generate
from repro.ir import instructions as inst
from repro.ir.printer import print_function
from repro.libc import libc_module
from repro.obs.slices import _stable_label
from repro.opt import gvn, licm, mem2reg
from repro.opt.pipeline import (optimized_clone, run_safe_o2,
                                run_safe_o2_function)

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_safe_o2.json")


def _main(source):
    module = compile_source(source, include_dirs=[])
    return module, module.functions["main"]


def _count(function, kind):
    return sum(1 for i in function.instructions()
               if isinstance(i, kind))


class TestGvn:
    def test_eliminates_redundant_computation(self):
        _module, main = _main("""
            int main(void) {
                int a = 7, b = 9;
                int x = a * b + a;
                int y = a * b + a;
                return x + y - 124;
            }
        """)
        mem2reg.run(main)
        before = _count(main, inst.BinOp)
        assert gvn.run(main)
        assert _count(main, inst.BinOp) < before

    def test_does_not_merge_across_stores(self):
        source = """
            int main(void) {
                int a[2]; a[0] = 3;
                int x = a[0];
                a[0] = 5;
                int y = a[0];
                return x + y;  /* 8, not 6 or 10 */
            }
        """
        module, main = _main(source)
        run_safe_o2_function(main)
        assert SafeSulong().run_module(module).status == 8

    def test_division_not_unified_when_it_may_trap(self):
        # Two identical divisions: GVN may unify them (same trap), but
        # the *result* must still trap when the divisor is zero.
        module, _main_fn = _main("""
            int main(void) {
                int z = 0;
                int a = 10 / z;
                return a;
            }
        """)
        run_safe_o2(module)
        result = SafeSulong().run_module(module)
        assert result.crashed and "division" in result.crash_message


class TestLicm:
    def test_hoists_invariant_arithmetic(self):
        _module, main = _main("""
            int main(void) {
                int n = 1000, a = 13, b = 29, s = 0;
                for (int i = 0; i < n; i++)
                    s += a * b + 7;
                return s & 0xff;
            }
        """)
        mem2reg.run(main)
        # The invariant `a * b + 7` sits in a loop body block before
        # LICM and in a non-loop (preheader) block after.
        from repro.analysis.cfg import ControlFlowGraph
        cfg = ControlFlowGraph(main)
        body = set().union(*cfg.loops.values())
        invariant_in_body = sum(
            1 for block in body for i in block.instructions
            if isinstance(i, inst.BinOp))
        assert licm.run(main)
        cfg = ControlFlowGraph(main)
        body = set().union(*cfg.loops.values())
        remaining = sum(
            1 for block in body for i in block.instructions
            if isinstance(i, inst.BinOp))
        assert remaining < invariant_in_body

    def test_division_never_hoisted(self):
        # 100 / d is invariant but the loop never runs, so hoisting it
        # would *introduce* a trap that the original program does not
        # have.
        module, main = _main("""
            int main(void) {
                int d = 0, s = 0;
                for (int i = 0; i < 0; i++)
                    s += 100 / d;
                return s;
            }
        """)
        run_safe_o2_function(main)
        result = SafeSulong().run_module(module)
        assert not result.crashed
        assert result.status == 0


class TestDetectionPreservingDce:
    def test_dead_load_survives(self):
        # The load's result is unused, but executing it is what detects
        # the out-of-bounds: DCE must keep it.
        module, main = _main("""
            int main(void) {
                int a[4];
                a[0] = 1;
                int i = 5;
                int dead = a[i];
                (void)dead;
                return 0;
            }
        """)
        def gep_loads(function):
            defs = {id(i.result): i for i in function.instructions()
                    if i.result is not None}
            return sum(1 for i in function.instructions()
                       if isinstance(i, inst.Load)
                       and isinstance(defs.get(id(i.pointer)), inst.Gep))

        before = gep_loads(main)
        assert before
        run_safe_o2_function(main)
        # mem2reg legitimately removes scalar-slot loads; the checked
        # array access must survive even though its result is dead.
        assert gep_loads(main) == before
        result = SafeSulong().run_module(module)
        assert result.bugs and result.bugs[0].kind == "out-of-bounds"

    def test_dead_arithmetic_removed(self):
        _module, main = _main("""
            int main(void) {
                int a = 6, b = 7;
                int dead = a * b + a - b;
                (void)dead;
                return 0;
            }
        """)
        mem2reg.run(main)
        run_safe_o2_function(main)
        # The unused multiply/add/sub chain is gone.
        assert _count(main, inst.BinOp) == 0


class TestPipeline:
    PROGRAMS = [
        ("""
         int fib(int n) { return n < 2 ? n : fib(n-1) + fib(n-2); }
         int main(void) { return fib(15) & 0xff; }
         """, 610 & 0xff),
        ("""
         int main(void) {
             int a[16], s = 0;
             for (int i = 0; i < 16; i++) a[i] = i * i;
             for (int i = 0; i < 16; i++) s += a[i];
             return s & 0xff;
         }
         """, 1240 & 0xff),
    ]

    @pytest.mark.parametrize("source,expected", PROGRAMS)
    def test_optimized_matches_plain(self, source, expected):
        plain = SafeSulong().run_source(source)
        module = compile_source(source, include_dirs=[])
        run_safe_o2(module)
        optimized = SafeSulong().run_module(module)
        assert plain.status == optimized.status == expected

    def test_optimized_clone_memoized_and_original_untouched(self):
        module, main = _main("""
            int main(void) {
                int a = 3, b = 4;
                return a * b + a * b - 23;
            }
        """)
        before = _count(main, inst.BinOp)
        clone = optimized_clone(main)
        assert optimized_clone(main) is clone
        assert _count(main, inst.BinOp) == before  # original intact
        assert _count(clone, inst.BinOp) <= before

    def test_speculative_engine_runs_safe_o2_clone(self):
        # speculate=True is what routes execution through the safe-O2
        # clone; output must match the plain tier.
        source = """
            int main(void) {
                int a[64], s = 0;
                for (int i = 0; i < 64; i++) a[i] = i ^ 21;
                for (int r = 0; r < 10; r++)
                    for (int i = 0; i < 64; i++) s += a[i];
                return s & 0xff;
            }
        """
        plain = SafeSulong().run_source(source)
        spec = SafeSulong(speculate=True).run_source(source)
        assert plain.status == spec.status
        assert plain.stdout == spec.stdout

    def test_mem2reg_cost_on_scanf_core(self):
        # libc's scanf core (1,055 instructions, 191 blocks, 64 allocas)
        # gets about 11k maximal phis.  A pass that rescans the function
        # per promoted load or removed phi takes close to a minute on
        # it; the substitution-map pass takes a small fraction of a
        # second.
        scan_core = next(
            function for name, function in libc_module().functions.items()
            if name.startswith("__scan_core.static."))
        clone = ir.clone_function(scan_core)
        started = time.perf_counter()
        assert mem2reg.run(clone)
        assert time.perf_counter() - started < 2.0
        ir.validate_function(clone)


class TestGolden:
    """One SHA-256 per defined function of libc, the shootout programs,
    the bug corpus and a fixed gen sample, over the printed safe-O2
    clone.  Any change to what the optimized tier executes shows up
    here.  Regenerate after an intentional change with
    ``REPRO_UPDATE_GOLDEN=1 pytest tests/opt/test_safe_o2.py``."""

    _GLOBAL_NAME = re.compile(r"@([\w.$]+)")
    _ANON_STRUCT = re.compile(r"%anon\.\d+")
    _LOC_DIR = re.compile(r"; [^;\n]*/(?=[^/;\n]+:\d)")

    @classmethod
    def _stable_ir(cls, function):
        """The clone's printed IR minus what depends on compile order
        or checkout location: the front end's process-wide name
        counters and the directories of source locations."""
        text = print_function(optimized_clone(function))
        text = cls._GLOBAL_NAME.sub(
            lambda match: "@" + _stable_label(match.group(1)), text)
        text = cls._ANON_STRUCT.sub("%anon", text)
        return cls._LOC_DIR.sub("; ", text)

    @staticmethod
    def _pinned_functions():
        libc = libc_module()
        for function in libc.functions.values():
            if function.is_definition:
                yield "libc/" + _stable_label(function.name), function
        programs = [(f"shootout/{name}", program_source(name))
                    for name in PROGRAMS]
        programs += [(f"corpus/{entry.name}", entry.source())
                     for entry in ENTRIES]
        programs += [(f"gen/{plant}/{seed}",
                      generate(seed, GenConfig(plant=plant)).source)
                     for plant in ("none", "spatial", "temporal")
                     for seed in range(30)]
        engine = SafeSulong()
        for prefix, source in programs:
            module = engine.compile(
                source, filename=prefix.replace("/", "-") + ".c")
            for function in module.functions.values():
                if function.is_definition \
                        and libc.functions.get(function.name) is not function:
                    yield f"{prefix}/{_stable_label(function.name)}", \
                        function

    def test_safe_o2_output_matches_golden_file(self):
        digests, failed = {}, []
        for key, function in self._pinned_functions():
            assert key not in digests, key
            digests[key] = hashlib.sha256(
                self._stable_ir(function).encode()).hexdigest()
            if getattr(function, "_safe_o2_error", None):
                failed.append(key)
        assert failed == []
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
                json.dump(digests, handle, sort_keys=True, indent=1)
                handle.write("\n")
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            want = json.load(handle)
        drifted = sorted(key for key in want.keys() | digests.keys()
                         if want.get(key) != digests.get(key))
        assert not drifted, (
            f"safe-O2 output drifted for {len(drifted)} functions "
            f"(first: {drifted[:5]}); if the change is intentional, "
            "regenerate with REPRO_UPDATE_GOLDEN=1")


# Defines malloc over a static pool, so linking it re-points libc's
# strdup at this malloc; the safe-O2 clone of strdup then calls it.
DEFINES_MALLOC = """
#include <stddef.h>
#include <string.h>
static char pool[256];
static size_t used;
void *malloc(size_t size) {
    void *p = pool + used;
    used += size;
    return p;
}
int main(void) { return strdup("abc")[2] == 'c' ? 0 : 1; }
"""
HEAP_OVERFLOW = """
#include <string.h>
int main(void) {
    char *p = strdup("hi");
    p[3] = 'x';
    return 0;
}
"""


class TestCloneAfterRelink:
    def test_next_program_reports_as_if_run_alone(self, monkeypatch):
        from repro.libc import loader
        monkeypatch.setattr(loader, "_CACHED", loader._CACHED)

        def report(source):
            result = SafeSulong(speculate=True,
                                jit_threshold=3).run_source(source)
            return result.status, [str(bug) for bug in result.bugs]

        libc_module(force_reload=True)
        alone = report(HEAP_OVERFLOW)
        assert "out-of-bounds write" in alone[1][0]
        libc_module(force_reload=True)
        assert report(DEFINES_MALLOC) == (0, [])
        assert report(HEAP_OVERFLOW) == alone
