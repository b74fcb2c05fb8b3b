"""Proven-safe check elision: annotation correctness, and — crucially —
that elision never loses a bug (it is a proof pass, not a heuristic)."""

import copy
import hashlib
import json
import os

import pytest

from repro.analysis.interproc import analyze_module
from repro.bench.harness import PROGRAMS, program_source
from repro.cache import CompilationCache
from repro.cfront import compile_source
from repro.core import SafeSulong
from repro.corpus import ENTRIES
from repro.gen import GenConfig, generate
from repro.ir import instructions as inst
from repro.libc import include_dir, libc_module, loader
from repro.obs.slices import _stable_label
from repro.opt import elide
from repro.opt.pipeline import optimized_clone

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_elide.json")


def compile_with_libc_headers(source, filename="fixture.c"):
    return compile_source(source, filename=filename,
                          include_dirs=[include_dir()],
                          defines={"__SAFE_SULONG__": "1"})


def annotated(source, name="f"):
    module = compile_with_libc_headers(source)
    function = module.functions[name]
    elide.run(function)
    return function


def loads(function):
    return [i for i in function.instructions()
            if isinstance(i, inst.Load)]


def stores(function):
    return [i for i in function.instructions()
            if isinstance(i, inst.Store)]


class TestAnnotation:
    def test_local_scalar_reaches_level_two(self):
        function = annotated("""
            int f(void) {
                int x = 3;
                return x + 1;
            }
        """)
        # The store of 3 and the load of x hit a stack slot at a
        # constant in-bounds offset: no check of any kind can fire.
        assert all(s.elide == 2 for s in stores(function))
        assert all(l.elide == 2 for l in loads(function))

    def test_bounded_loop_index_reaches_level_two(self):
        function = annotated("""
            int f(void) {
                int a[8];
                int s = 0;
                for (int i = 0; i < 8; i++) a[i] = i;
                for (int i = 0; i < 8; i++) s += a[i];
                return s;
            }
        """)
        gep_results = {id(i.result) for i in function.instructions()
                       if isinstance(i, inst.Gep)}
        assert gep_results
        array_stores = [s for s in stores(function)
                        if id(s.pointer) in gep_results]
        assert array_stores
        # i is refined to [0, 7] by the branch, so every a[i] access is
        # proven in bounds of the (non-freeable) stack array.
        assert all(s.elide == 2 for s in array_stores)
        assert all(g.proven_nonnull for g in function.instructions()
                   if isinstance(g, inst.Gep))

    def test_heap_access_capped_at_level_one(self):
        function = annotated("""
            #include <stdlib.h>
            int f(void) {
                int *p = malloc(4);
                if (!p) return 1;
                *p = 5;
                return *p;
            }
        """)
        # The null check is elidable on the heap pointer (proof: fresh
        # allocation, null tested), but the lifetime check must stay:
        # level 1 at most, never 2.  (Accesses to p's own stack slot
        # are a different object and may legitimately reach level 2.)
        definitions = {id(i.result): i for i in function.instructions()
                       if i.result is not None}
        heap_accesses = [
            a for a in loads(function) + stores(function)
            if isinstance(definitions.get(id(a.pointer)),
                          (inst.Load, inst.Call))]
        assert heap_accesses
        assert all(a.elide <= 1 for a in heap_accesses)
        assert any(a.elide == 1 for a in heap_accesses)

    def test_unknown_pointer_keeps_full_checks(self):
        function = annotated("""
            int f(int *p) {
                return *p;
            }
        """)
        # *p dereferences a value loaded from the parameter slot; that
        # pointer could be anything, so no elision is provable there.
        definitions = {id(i.result): i for i in function.instructions()
                       if i.result is not None}
        derefs = [l for l in loads(function)
                  if isinstance(definitions.get(id(l.pointer)),
                                inst.Load)]
        assert derefs
        assert all(l.elide == 0 for l in derefs)

    def test_variable_index_keeps_bounds_check(self):
        function = annotated("""
            int f(int i) {
                int a[8];
                a[0] = 1;
                return a[i];
            }
        """)
        # a[i] with unbounded i: non-null is provable (level 1), but
        # the in-bounds proof is not, so level 2 must not be granted.
        variable_geps = [g for g in function.instructions()
                         if isinstance(g, inst.Gep)
                         and any(not hasattr(index, "signed_value")
                                 for index in g.indices)]
        assert variable_geps
        results = {id(g.result) for g in variable_geps}
        indexed_loads = [l for l in loads(function)
                         if id(l.pointer) in results]
        assert indexed_loads
        assert all(l.elide <= 1 for l in indexed_loads)

    def test_idempotent(self):
        module = compile_with_libc_headers("""
            int f(void) { int x = 1; return x; }
        """)
        function = module.functions["f"]
        first = elide.run(function)
        assert first > 0
        assert elide.run(function) == 0  # already annotated


BUGGY = [
    ("out of bounds", """
        int main(void) {
            volatile int i = 12;
            int a[4];
            a[0] = 1;
            return a[i];
        }
     """, "out-of-bounds"),
    ("use after free", """
        #include <stdlib.h>
        int main(void) {
            int *p = malloc(4);
            if (!p) return 1;
            *p = 1;
            free(p);
            return *p;
        }
     """, "use-after-free"),
    ("null deref", """
        int main(void) {
            volatile int zero = 0;
            int *p = (int *)zero;
            return *p;
        }
     """, "null-dereference"),
]


class TestDetectionPreserved:
    """The acceptance bar: with elision on, every dynamically detected
    bug is still detected — in the interpreter and through the JIT."""

    @pytest.mark.parametrize("label,source,kind",
                             BUGGY, ids=[b[0] for b in BUGGY])
    def test_interpreter_still_detects(self, label, source, kind):
        plain = SafeSulong().run_source(source)
        elided = SafeSulong(elide_checks=True).run_source(source)
        assert plain.bug_kinds() == [kind]
        assert elided.bug_kinds() == plain.bug_kinds()

    @pytest.mark.parametrize("label,source,kind",
                             BUGGY, ids=[b[0] for b in BUGGY])
    def test_jit_still_detects(self, label, source, kind):
        elided = SafeSulong(elide_checks=True,
                            jit_threshold=1).run_source(source)
        assert elided.bug_kinds() == [kind]

    def test_output_identical_with_elision(self):
        source = """
            #include <stdio.h>
            int main(void) {
                int a[16];
                long s = 0;
                for (int i = 0; i < 16; i++) a[i] = i * i;
                for (int r = 0; r < 50; r++)
                    for (int i = 0; i < 16; i++) s += a[i];
                printf("%ld\\n", s);
                return 0;
            }
        """
        plain = SafeSulong().run_source(source)
        elided = SafeSulong(elide_checks=True).run_source(source)
        jit = SafeSulong(elide_checks=True,
                         jit_threshold=1).run_source(source)
        assert plain.status == 0 and not plain.bugs
        assert elided.stdout == plain.stdout
        assert elided.status == plain.status
        assert jit.stdout == plain.stdout

    def test_plain_engine_unaffected_by_shared_annotations(self):
        # The libc module is process-cached and shared: annotating it in
        # one engine must not change a plain engine's behaviour.
        source = """
            #include <string.h>
            int main(void) {
                char buffer[8];
                strcpy(buffer, "hi");
                return (int)strlen(buffer);
            }
        """
        SafeSulong(elide_checks=True).run_source(source)
        plain = SafeSulong().run_source(source)
        assert plain.status == 2 and not plain.bugs


# -- exact marks per call-graph SCC ------------------------------------------

def link_shootout(name):
    unit = compile_with_libc_headers(program_source(name), name + ".c")
    return libc_module().link(unit, name=name + ".c")


def mark_digest(function):
    """Digest of one function's marks by instruction ordinal."""
    encoded = []
    for ordinal, instruction in enumerate(function.instructions()):
        if isinstance(instruction, (inst.Load, inst.Store)):
            encoded.append([ordinal, instruction.elide])
        elif isinstance(instruction, inst.Gep):
            encoded.append([ordinal, int(instruction.proven_nonnull)])
    return hashlib.sha256(json.dumps(encoded).encode()).hexdigest()[:16]


def golden_programs():
    """(prefix, source) of every program the golden marks cover."""
    programs = [(f"shootout/{name}", program_source(name))
                for name in PROGRAMS]
    programs += [(f"corpus/{entry.name}", entry.source())
                 for entry in ENTRIES]
    programs += [(f"gen/{plant}/{seed}",
                  generate(seed, GenConfig(plant=plant)).source)
                 for plant in ("none", "spatial", "temporal")
                 for seed in range(10)]
    return programs


def golden_digests(module, prefix):
    """Per-function mark digests of one linked program: libc functions
    under ``libc/``, the program's own under ``prefix``, with the front
    end's process-wide ``.static.N`` counters stripped."""
    libc = libc_module()
    digests = {}
    for function in module.functions.values():
        if not function.is_definition:
            continue
        if libc.functions.get(function.name) is function:
            key = "libc/" + _stable_label(function.name)
        else:
            key = f"{prefix}/{_stable_label(function.name)}"
        assert key not in digests, key
        digests[key] = mark_digest(function)
    return digests


@pytest.fixture
def restore_libc(monkeypatch):
    """Tests that reload the libc put the session's copy back after."""
    monkeypatch.setattr(loader, "_CACHED", loader._CACHED)


class TestModuleCount:
    def test_count_does_not_depend_on_what_ran_before(self, restore_libc):
        names = ("binarytrees", "fannkuchredux")
        alone = {}
        for name in names:
            libc_module(force_reload=True)
            alone[name] = elide.run_module(link_shootout(name))
        libc_module(force_reload=True)
        together = {name: elide.run_module(link_shootout(name))
                    for name in names}
        assert together == alone

    def test_next_program_misses_only_its_own_sccs(self):
        elide.run_module(link_shootout("binarytrees"))
        module = link_shootout("fasta")
        analysis = analyze_module(module, transform=False)
        libc = libc_module()
        own = {name for name, function in module.functions.items()
               if function.is_definition
               and libc.functions.get(name) is not function}
        holding = sum(1 for scc in analysis.callgraph.sccs
                      if own.intersection(scc))
        assert holding >= 1
        assert analysis.stats["scc_misses"] == holding
        assert analysis.stats["scc_hits"] == \
            analysis.stats["sccs"] - holding


def fresh_digests():
    """Each golden program elided over a freshly loaded libc, as a new
    process would elide it."""
    digests = {}
    for prefix, source in golden_programs():
        libc_module(force_reload=True)
        module = SafeSulong().compile(
            source, filename=prefix.replace("/", "-") + ".c")
        elide.run_module(module)
        for key, digest in golden_digests(module, prefix).items():
            assert digests.setdefault(key, digest) == digest, key
    return digests


class TestGoldenMarks:
    """Marks must equal what a fresh process computes.  The golden file
    holds one digest per function of libc and of each program, made with
    a freshly loaded libc for every program (:func:`fresh_digests`); the
    tests below reach the same marks through the in-process memo and
    through the cache.  Regenerate after an intentional change with
    ``REPRO_UPDATE_GOLDEN=1 pytest tests/opt/test_elide.py``."""

    @pytest.fixture(scope="class")
    def warmed(self, tmp_path_factory):
        """Every golden program elided in sequence over one libc (the
        memo path) with a cache attached; the cache is left warm."""
        previous = loader._CACHED
        root = str(tmp_path_factory.mktemp("elide-cache"))
        cache = CompilationCache(root)
        try:
            libc_module(force_reload=True, cache=cache)
            engine = SafeSulong(cache=cache)
            digests = {}
            for prefix, source in golden_programs():
                module = engine.compile(
                    source, filename=prefix.replace("/", "-") + ".c")
                elide.run_module(module, cache=cache)
                for key, digest in golden_digests(module, prefix).items():
                    assert digests.setdefault(key, digest) == digest, key
        finally:
            loader._CACHED = previous
        return root, digests

    @staticmethod
    def drifted(digests):
        with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
            want = json.load(handle)
        return sorted(key for key in want.keys() | digests.keys()
                      if want.get(key) != digests.get(key))

    def test_memo_path_matches_golden(self, warmed, restore_libc):
        _root, digests = warmed
        if os.environ.get("REPRO_UPDATE_GOLDEN"):
            fresh = fresh_digests()
            with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
                json.dump(fresh, handle, sort_keys=True, indent=1)
                handle.write("\n")
        assert self.drifted(digests) == []

    def test_apply_path_matches_golden(self, warmed, restore_libc):
        root, _digests = warmed
        cache = CompilationCache(root)  # fresh memory tier: disk only
        libc_module(force_reload=True, cache=cache)
        engine = SafeSulong(cache=cache)
        digests = {}
        for prefix, source in golden_programs():
            module = engine.compile(
                source, filename=prefix.replace("/", "-") + ".c")
            analysis = analyze_module(module, cache=cache, transform=False)
            assert analysis.stats["scc_misses"] == 0, prefix
            for key, digest in golden_digests(module, prefix).items():
                assert digests.setdefault(key, digest) == digest, key
        assert cache.stats.rejects == 0
        assert self.drifted(digests) == []


FAULTY = """
#include <stdlib.h>
int main(void) {
    int a[4];
    for (int i = 0; i < 4; i++) a[i] = i;
    int *p = malloc(sizeof(int));
    if (!p) return 1;
    *p = a[3];
    free(p);
    return *p;
}
"""


def _out_of_range(function, marks):
    return marks + [[len(list(function.instructions())) + 4, 1]]


def _on_a_call(function, marks):
    ordinal = next(i for i, instruction in enumerate(function.instructions())
                   if isinstance(instruction, inst.Call))
    return sorted(marks + [[ordinal, 1]])


def _level_three(function, marks):
    return [[ordinal, 3 if index == 0 else level]
            for index, (ordinal, level) in enumerate(marks)]


class TestCachedMarkFaults:
    @pytest.mark.parametrize("corrupt", [_out_of_range, _on_a_call,
                                         _level_three])
    def test_unfit_marks_are_rejected(self, tmp_path, monkeypatch, corrupt):
        cold_module = SafeSulong().compile(FAULTY, "faulty.c")
        elide.run_module(cold_module)
        cold_marks = elide.marks(cold_module.functions["main"])
        cold = SafeSulong(elide_checks=True).run_source(
            FAULTY, filename="faulty.c")
        assert cold_marks and cold.bug_kinds() == ["use-after-free"]

        SafeSulong(cache=CompilationCache(str(tmp_path)),
                   elide_checks=True).run_source(FAULTY,
                                                 filename="faulty.c")
        cache = CompilationCache(str(tmp_path))  # fresh memory tier
        real_get = cache.get_analysis

        def corrupting_get(key):
            payload = real_get(key)
            if payload is not None and "main" in payload.get("marks", {}):
                payload = copy.deepcopy(payload)
                payload["marks"]["main"] = corrupt(
                    cold_module.functions["main"], payload["marks"]["main"])
            return payload

        monkeypatch.setattr(cache, "get_analysis", corrupting_get)
        engine = SafeSulong(cache=cache, elide_checks=True)
        module = engine.compile(FAULTY, "faulty.c")
        result = engine.run_module(module)
        assert cache.stats.rejects == 1
        assert elide.marks(module.functions["main"]) == cold_marks
        assert result.bug_kinds() == cold.bug_kinds()
        assert (result.status, result.stdout) == (cold.status, cold.stdout)


# f prints the same for both sizes: only the layout of S differs, and
# with it whether p[6] is in bounds.
LAYOUT = """
struct S { char tag; char body[SIZE]; };
int f(void) {
    struct S s;
    char *p = (char *)&s;
    p[6] = 1;
    return p[6];
}
int main(void) { return f(); }
"""


class TestCacheKey:
    def test_struct_layout_is_part_of_the_key(self, tmp_path):
        cache = CompilationCache(str(tmp_path))
        for size in (8, 4):
            source = LAYOUT.replace("SIZE", str(size))
            cached = SafeSulong(cache=cache, elide_checks=True)
            module = cached.compile(source, "layout.c")
            result = cached.run_module(module)
            cold = SafeSulong(elide_checks=True)
            cold_module = cold.compile(source, "layout.c")
            cold_result = cold.run_module(cold_module)
            assert elide.marks(module.functions["f"]) == \
                elide.marks(cold_module.functions["f"])
            assert [str(bug) for bug in result.bugs] == \
                [str(bug) for bug in cold_result.bugs]
        assert cold_result.bug_kinds() == ["out-of-bounds"]


SHARED = """
int *hook(void);
int caller(void) {
    int *p = hook();
    *p = 1;
    return *p;
}
"""
# A malloc wrapper: its result carries a fresh heap object's proof.
WRAPPER_HOOK = """
#include <stdlib.h>
int *hook(void) { return malloc(sizeof(int)); }
"""
# Non-null, but of no object the caller's analysis can name.
STATIC_HOOK = "int *hook(void) { static int slot; return &slot; }"


class TestKeyChange:
    def test_relinked_callee_recomputes_marks(self):
        def program(source, name):
            return compile_with_libc_headers(source, name)

        def fresh_caller(hook_source):
            shared = program(SHARED, "shared.c")
            linked = shared.link(program(hook_source, "hook.c"))
            elide.run_module(linked)
            return linked.functions["caller"]

        shared = program(SHARED, "shared.c")
        caller = shared.functions["caller"]
        elide.run_module(shared.link(program(WRAPPER_HOOK, "wrapper.c")))
        wrapper_marks = elide.marks(caller)
        wrapper_clone = optimized_clone(caller)

        second = shared.link(program(STATIC_HOOK, "static.c"))
        analysis = analyze_module(second, transform=False)
        assert analysis.stats["scc_hits"] == 0
        assert analysis.stats["scc_misses"] == 2
        relinked = fresh_caller(STATIC_HOOK)
        assert elide.marks(caller) != wrapper_marks
        assert elide.marks(caller) == elide.marks(relinked)
        assert wrapper_marks == elide.marks(fresh_caller(WRAPPER_HOOK))
        # The memoized safe-O2 clone went with the old marks.
        assert optimized_clone(caller) is not wrapper_clone
        assert elide.marks(optimized_clone(caller)) == \
            elide.marks(optimized_clone(relinked))
