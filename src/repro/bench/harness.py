"""Benchmark harness: sessions that run one program repeatedly under each
execution configuration, as the paper's warm-up/peak harness does (§4.3:
"we had to account for the adaptive compilation techniques of Truffle and
Graal by setting up a harness that warmed up the benchmarks").
"""

from __future__ import annotations

import os
import time

from ..core.config import EngineConfig
from ..core.engine import SafeSulong
from ..core.errors import ProgramExit
from ..native import NativeMachine, compile_native
from ..sanitizers.asan import AsanTool, instrument_module
from ..sanitizers.memcheck import MemcheckTool

PROGRAMS = ["binarytrees", "fannkuchredux", "fasta", "fastaredux",
            "mandelbrot", "meteor", "nbody", "spectralnorm", "whetstone"]

# Excluded from the Figure 16 plot (shown separately), as in the paper.
FIGURE16_PROGRAMS = [p for p in PROGRAMS if p != "binarytrees"]


def programs_dir() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "programs")


def program_source(name: str) -> str:
    path = os.path.join(programs_dir(), name + ".c")
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


class Session:
    """One warmed-up execution configuration for one program."""

    name = "session"

    def run_iteration(self) -> bytes:
        """Run main() once; returns its stdout."""
        raise NotImplementedError

    def timed_iteration(self) -> tuple[float, bytes]:
        started = time.perf_counter()
        output = self.run_iteration()
        return time.perf_counter() - started, output


class ManagedSession(Session):
    """Safe Sulong: managed interpreter + optional dynamic compilation."""

    def __init__(self, source: str,
                 config: EngineConfig = EngineConfig(jit_threshold=3),
                 observer=None, filename: str = "bench.c",
                 fuse: bool = True, jit_compile_latency: float = 0):
        self.name = "safe-sulong"
        engine = SafeSulong(config, observer=observer, fuse=fuse)
        self.runtime = engine.new_runtime(
            engine.compile(source, filename),
            jit_compile_latency=jit_compile_latency)

    def run_iteration(self) -> bytes:
        runtime = self.runtime
        runtime.reset()
        try:
            runtime.run_main()
        except ProgramExit:
            pass
        return bytes(runtime.stdout)

    @property
    def compiled_functions(self) -> int:
        return self.runtime.compiled_functions


class NativeSession(Session):
    """Clang-compiled execution, optionally under a tool."""

    def __init__(self, source: str, opt_level: int = 0,
                 tool_factory=None, name: str | None = None,
                 filename: str = "bench.c",
                 prepare_eagerly: bool = False):
        self.name = name or f"clang-O{opt_level}"
        self.module = compile_native(source, filename=filename,
                                     opt_level=opt_level)
        if tool_factory is not None and tool_factory is AsanTool:
            instrument_module(self.module)
        self.tool_factory = tool_factory
        self.machine = self._new_machine()
        if prepare_eagerly:
            for function in self.module.functions.values():
                if function.is_definition:
                    self.machine.prepared_function(function)

    def _new_machine(self) -> NativeMachine:
        tool = self.tool_factory() if self.tool_factory else None
        return NativeMachine(self.module, tool=tool)

    def run_iteration(self) -> bytes:
        # Reset data state (globals, heap, stack, tool shadow) like a
        # process re-exec; the prepared code is reused.
        machine = self.machine
        machine.reset()
        try:
            machine.run_main()
        except ProgramExit:
            pass
        return bytes(machine.stdout)


_INTERP = EngineConfig()
_JIT = EngineConfig(jit_threshold=3)

# Managed configurations: name -> (engine config, Observer keywords or
# None, extra ManagedSession keywords).
MANAGED_CONFIGURATIONS = {
    "safe-sulong": (_JIT, None, {}),
    # Background-compiler model: functions compile one by one while the
    # program keeps interpreting (Figure 15's gradual ramp).
    "safe-sulong-warmup": (_JIT, None, {"jit_compile_latency": 0.5}),
    "safe-sulong-interp": (_INTERP, None, {}),
    "safe-sulong-interp-elide": (EngineConfig(elide_checks=True), None, {}),
    # The pre-superinstruction dispatch baseline (BENCH_speculate.json).
    "safe-sulong-interp-nofuse": (_INTERP, None, {"fuse": False}),
    # The treatment side of benchmarks/test_speculative_elision.py.
    "safe-sulong-interp-speculate": (EngineConfig(speculate=True), None,
                                     {}),
    # Observability costs.  A disabled observer must specialize to the
    # plain fast paths (the <3% contracts in BENCH_obs/BENCH_explain).
    "safe-sulong-obs": (_INTERP, {"enabled": True}, {}),
    "safe-sulong-obs-disabled": (_INTERP, {"enabled": False}, {}),
    "safe-sulong-blocktrace": (
        _INTERP, {"enabled": True, "block_trace": True}, {}),
    "safe-sulong-blocktrace-disabled": (
        _INTERP, {"enabled": False, "block_trace": True}, {}),
    "safe-sulong-lines": (_INTERP, {"enabled": True, "lines": True}, {}),
    "safe-sulong-provenance": (EngineConfig(track_heap=True), None, {}),
}

# Native configurations: name -> (optimization level, tool factory).
NATIVE_CONFIGURATIONS = {
    "clang-O0": (0, None),
    "clang-O3": (3, None),
    "asan-O0": (0, AsanTool),
    "memcheck-O0": (0, MemcheckTool),
}


def make_session(program: str, configuration: str) -> Session:
    """Configurations used across the performance experiments."""
    source = program_source(program)
    filename = program + ".c"
    if configuration in NATIVE_CONFIGURATIONS:
        opt_level, tool_factory = NATIVE_CONFIGURATIONS[configuration]
        return NativeSession(source, opt_level, tool_factory=tool_factory,
                             name=configuration, filename=filename)
    config, observer, extra = MANAGED_CONFIGURATIONS[configuration]
    if observer is not None:
        from ..obs import Observer
        observer = Observer(**observer)
    return ManagedSession(source, config, observer=observer,
                          filename=filename, **extra)
