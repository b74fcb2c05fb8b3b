"""The part of repro that the pipeline benchmark (``perfbench/``) uses.

Tier-1 does not run the benchmark: it sits outside ``testpaths``, and
each of its shootout smoke cases takes about 25 s.  This test imports
the benchmark's workload modules the way ``perfbench/run.py`` does,
drives its shootout tiers on one small program and runs one corpus
verdict, so a change to any name, option or attribute the benchmark
reaches fails here first.
"""

import os
import sys
from types import SimpleNamespace

import pytest

from repro.cfront import compile_source
from repro.core.errors import ProgramExit
from repro.core.interpreter import Runtime
from repro.core.intrinsics import default_intrinsics
from repro.corpus.manifest import ENTRIES
from repro.libc import include_dir, libc_module

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)))), "perfbench")

# A counted loop over a local array, so the optimized tier plans it.
SOURCE = """
#include <stdio.h>
int main(void) {
    int a[64];
    long total = 0;
    for (int round = 0; round < 4; round++)
        for (int i = 0; i < 64; i++) {
            a[i] = i * round;
            total += a[i];
        }
    printf("%ld\\n", total);
    return 0;
}
"""


@pytest.fixture(scope="module")
def workloads():
    """perfbench/run.py runs from its own directory and imports each
    workload module, and through it ``common`` and ``tracing``, as a
    top-level module."""
    sys.path.insert(0, PERFBENCH)
    try:
        import corpus
        import serve  # noqa: F401
        import shootout
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return SimpleNamespace(corpus=corpus, shootout=shootout,
                           tracing=tracing)


def _iterate(runtime: Runtime) -> bytes:
    """One shootout ``Program.iterate`` without the timing."""
    runtime.reset()
    try:
        runtime.run_main()
    except ProgramExit:
        pass
    return bytes(runtime.stdout)


def test_shootout_tiers_run_what_the_benchmark_reads(workloads):
    shootout = workloads.shootout
    tracer = workloads.tracing.Tracer()
    unit = compile_source(SOURCE, filename="contract.c",
                          include_dirs=[include_dir()],
                          defines={"__SAFE_SULONG__": "1"})
    module = libc_module().link(unit, name="contract.c")
    assert shootout.elide.run_module(module) > 0
    for tier, options in shootout.TIERS.items():
        with tracer.phase(f"setup.{tier}"):
            runtime = Runtime(module, intrinsics=default_intrinsics(),
                              **options)
            outputs = [_iterate(runtime)
                       for _ in range(shootout.WARMUP[tier])]
        assert outputs == [b"12096\n"] * len(outputs), tier
        plans = sum(len(prepared.speculation.plans)
                    for prepared in runtime.prepared.values()
                    if prepared.speculation is not None)
        assert runtime.steps > 0
        assert runtime.compile_bailouts == []
        assert runtime.compile_errors == []
        assert (runtime.guard_trips, runtime.deopts) == (0, 0)
        if tier == "ref":
            assert (runtime.compiled_functions, plans) == (0, 0)
        else:
            assert runtime.compiled_functions >= 1 and plans >= 1
    assert tracer.by_subject("opt.safe_o2")["main"] > 0
    assert tracer.by_subject("opt.speculate")["main"] > 0


class _Checks:
    """The part of perfbench's run context that a verdict uses."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, reason: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(reason)
        return ok


def test_corpus_verdict_reads_the_finished_runtime(workloads):
    # The traced corpus pass reads the runtime of a finished verdict:
    # its prepared functions and its steps.
    corpus = workloads.corpus
    entry = next(entry for entry in ENTRIES
                 if entry.name == "null_list_head")
    ctx = _Checks()
    result = corpus.Result()
    corpus.verdict(ctx, entry, entry.source(), result)
    assert (ctx.attempted, ctx.failures) == (1, [])
    assert result.metrics["core.prepared_functions"] > 0
    assert result.metrics["core.steps"] > 0
