"""Interpreter-vs-JIT differential checks with a pre-warmed cache.

The cache must be invisible to the differential property: for every
program, interpreted and JIT-tiered executions stay indistinguishable
whether the artifacts come from a cold compile, a warm store, or a
store that was corrupted and silently rebuilt.
"""

import pytest

from repro.cache import CompilationCache
from repro.core import SafeSulong
from repro.harness import faults

pytestmark = pytest.mark.differential

SNIPPETS = {
    "arith_loop": """
        #include <stdio.h>
        int mix(int a, int b) { return (a * 31 + b) ^ (a >> 3); }
        int main(void) {
            int acc = 1;
            for (int i = 0; i < 200; i++) acc = mix(acc, i);
            printf("%d\\n", acc);
            return 0;
        }
    """,
    "function_pointers": """
        #include <stdio.h>
        int add(int a, int b) { return a + b; }
        int sub(int a, int b) { return a - b; }
        int mul(int a, int b) { return a * b; }
        int main(void) {
            int (*ops[3])(int, int) = {add, sub, mul};
            int acc = 7;
            for (int i = 0; i < 60; i++) acc = ops[i % 3](acc, i);
            printf("%d\\n", acc);
            return 0;
        }
    """,
    "heap_strings": """
        #include <stdio.h>
        #include <stdlib.h>
        #include <string.h>
        int main(void) {
            char *buf = malloc(64);
            strcpy(buf, "warm");
            for (int i = 0; i < 20; i++) {
                size_t n = strlen(buf);
                if (n + 2 < 64) { buf[n] = 'a' + i % 26; buf[n + 1] = 0; }
            }
            printf("%s %zu\\n", buf, strlen(buf));
            free(buf);
            return 0;
        }
    """,
    "oob_write_bug": """
        #include <stdlib.h>
        int grow(int *p, int i) { p[i] = i; return p[i]; }
        int main(void) {
            int *p = malloc(8 * sizeof(int));
            int acc = 0;
            for (int i = 0; i < 9; i++) acc += grow(p, i);
            return acc;
        }
    """,
    "use_after_free": """
        #include <stdlib.h>
        int deref(int *p) { return *p; }
        int main(void) {
            int *p = malloc(sizeof(int));
            *p = 5;
            int warm = 0;
            for (int i = 0; i < 10; i++) warm += deref(p);
            free(p);
            return warm + deref(p);
        }
    """,
}


def _signature(result):
    return {
        "status": result.status,
        "stdout": bytes(result.stdout),
        "bugs": [str(bug) for bug in result.bugs],
        "crashed": result.crashed,
        "limit": result.limit_exceeded,
    }


def _run(source, name, cache, jit_threshold):
    engine = SafeSulong(cache=cache, jit_threshold=jit_threshold)
    return _signature(engine.run_source(source, filename=name + ".c"))


@pytest.mark.parametrize("name", sorted(SNIPPETS))
def test_differential_with_prewarmed_store(tmp_path, libc, name):
    source = SNIPPETS[name]
    root = str(tmp_path / "cache")

    # Cold reference, no cache at all.
    reference = {
        tier: _run(source, name, None, threshold)
        for tier, threshold in (("interp", None), ("jit", 1))
    }
    assert reference["interp"] == reference["jit"]

    # Warm the store, then replay both tiers from a fresh store view
    # (disk tier only — the stand-in for a new process).
    for threshold in (None, 1):
        _run(source, name, CompilationCache(root), threshold)
    for tier, threshold in (("interp", None), ("jit", 1)):
        warm_cache = CompilationCache(root)
        assert _run(source, name, warm_cache, threshold) \
            == reference[tier], f"warm {tier} diverged"
        assert warm_cache.stats.hits > 0

    # Corrupt every entry: both tiers must still match the reference
    # (acceptance: differential green after an injected cache fault).
    faults.corrupt_cache_entries(root)
    rejects = 0
    for tier, threshold in (("interp", None), ("jit", 1)):
        hurt_cache = CompilationCache(root)
        assert _run(source, name, hurt_cache, threshold) \
            == reference[tier], f"post-corruption {tier} diverged"
        rejects += hurt_cache.stats.rejects
    assert rejects > 0
