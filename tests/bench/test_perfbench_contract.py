"""The part of repro that the pipeline benchmark (``perfbench/``) uses.

Tier-1 does not run the benchmark: it sits outside ``testpaths``, and
each of its shootout smoke cases takes about 25 s.  This test imports
the benchmark's workload modules the way ``perfbench/run.py`` does and
drives its shootout tiers on one small program, so a change to any
name, option or attribute the benchmark reaches fails here first.
"""

import os
import sys

import pytest

from repro.cfront import compile_source
from repro.core.errors import ProgramExit
from repro.core.interpreter import Runtime
from repro.core.intrinsics import default_intrinsics
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
        import corpus  # noqa: F401
        import serve  # noqa: F401
        import shootout
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return shootout, tracing


def _iterate(runtime: Runtime) -> bytes:
    """One shootout ``Program.iterate`` without the timing."""
    runtime.reset()
    try:
        runtime.run_main()
    except ProgramExit:
        pass
    return bytes(runtime.stdout)


def test_shootout_tiers_run_what_the_benchmark_reads(workloads):
    shootout, tracing = workloads
    tracer = tracing.Tracer()
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
