"""Uniform runner interface over every bug-finding configuration in the
paper's evaluation (§4.1): Safe Sulong, ASan at -O0/-O3, Valgrind-style
memcheck at -O0/-O3, and plain native execution at -O0/-O3.

Each runner takes C source and returns an
:class:`~repro.core.engine.ExecutionResult`; ``detected()`` applies the
evaluation's notion of "the tool found the bug" (a tool report, or a
visible hardware trap such as the NULL-dereference SIGSEGV that needs no
tool at all).
"""

from __future__ import annotations

from .core.config import EngineConfig
from .core.engine import ExecutionResult, SafeSulong
from .native import compile_native, run_native
from .sanitizers.asan import AsanTool, instrument_module
from .sanitizers.memcheck import MemcheckTool


def engine_version() -> str:
    """One string naming everything that can change what the engine
    detects: the package version, the JIT codegen version, and the
    static-analysis version.  The service's bug database keys
    regression flips on it — a bug that disappears across an
    engine-version change is attributed to the engine, not counted as
    a flaky regression."""
    from . import __version__
    from .analysis.interproc.driver import ANALYSIS_VERSION
    from .cache import CODEGEN_VERSION
    return (f"repro-{__version__}+codegen{CODEGEN_VERSION}"
            f"+analysis{ANALYSIS_VERSION}")


def detected(result: ExecutionResult) -> bool:
    """Did this run surface the bug?  Tool reports count; so do hardware
    traps (SIGSEGV/SIGFPE), which are visible without any tool."""
    if result.bugs:
        return True
    if result.crashed and "SIG" in result.crash_message:
        return True
    return False


class ToolRunner:
    name = "tool"

    def run(self, source: str, argv: list[str] | None = None,
            stdin: bytes = b"", vfs: dict[str, bytes] | None = None,
            max_steps: int | None = 2_000_000,
            filename: str = "program.c") -> ExecutionResult:
        raise NotImplementedError


class SafeSulongRunner(ToolRunner):
    """The paper's tool: the managed engine (optionally with the dynamic
    compilation tier enabled), with optional resource quotas for batch
    campaigns."""

    name = "safe-sulong"

    def __init__(self, config: EngineConfig = EngineConfig(), *,
                 observer=None, **options):
        self.config = config._replace(**options)
        # Not JSON-shippable, so not part of the config: workers build
        # their own Observer from the job's ``collect_metrics`` flag.
        self.observer = observer
        # The compilation cache, by contrast, IS shippable: workers get
        # the directory path via the config and open the shared store
        # themselves (atomic writes make concurrent sharing safe).
        self.cache = None
        if self.config.use_cache or self.config.cache_dir:
            from .cache import resolve_cache
            self.cache = resolve_cache(self.config.cache_dir)

    def run(self, source, argv=None, stdin=b"", vfs=None,
            max_steps=2_000_000, filename="program.c"):
        engine = SafeSulong(self.config, max_steps=max_steps,
                            observer=self.observer, cache=self.cache)
        return engine.run_source(source, argv=argv, stdin=stdin,
                                 filename=filename, vfs=vfs)


class NativeRunner(ToolRunner):
    """Plain Clang-compiled execution (the performance baseline; finds
    only bugs that trap)."""

    def __init__(self, opt_level: int = 0):
        self.opt_level = opt_level
        self.name = f"clang-O{opt_level}"

    def run(self, source, argv=None, stdin=b"", vfs=None,
            max_steps=2_000_000, filename="program.c"):
        module = compile_native(source, filename=filename,
                                opt_level=self.opt_level)
        return run_native(module, argv=argv, stdin=stdin, vfs=vfs,
                          max_steps=max_steps, detector=self.name)


class AsanRunner(ToolRunner):
    """Compile-time instrumentation baseline.

    ``fno_common=True`` mirrors the paper's setup ("we had to enable the
    -fno-common compiler flag for ASan").  ``intercept_strtok`` defaults
    to the 2017 behaviour (no interceptor).
    """

    def __init__(self, opt_level: int = 0, fno_common: bool = True,
                 intercept_strtok: bool = False,
                 quarantine_bytes: int = 1 << 18, redzone: int = 16,
                 load_widening: bool = False):
        self.opt_level = opt_level
        self.fno_common = fno_common
        self.intercept_strtok = intercept_strtok
        self.quarantine_bytes = quarantine_bytes
        self.redzone = redzone
        self.load_widening = load_widening
        self.name = f"asan-O{opt_level}"

    def run(self, source, argv=None, stdin=b"", vfs=None,
            max_steps=2_000_000, filename="program.c"):
        module = compile_native(source, filename=filename,
                                opt_level=self.opt_level,
                                load_widening=self.load_widening)
        instrument_module(module)
        tool = AsanTool(fno_common=self.fno_common,
                        intercept_strtok=self.intercept_strtok,
                        quarantine_bytes=self.quarantine_bytes,
                        redzone=self.redzone)
        return run_native(module, tool=tool, argv=argv, stdin=stdin,
                          vfs=vfs, max_steps=max_steps, detector=self.name)


class MemcheckRunner(ToolRunner):
    """Run-time instrumentation baseline (Valgrind's memcheck)."""

    def __init__(self, opt_level: int = 0,
                 track_uninitialized: bool = True):
        self.opt_level = opt_level
        self.track_uninitialized = track_uninitialized
        self.name = f"memcheck-O{opt_level}"

    def run(self, source, argv=None, stdin=b"", vfs=None,
            max_steps=2_000_000, filename="program.c"):
        module = compile_native(source, filename=filename,
                                opt_level=self.opt_level)
        tool = MemcheckTool(track_uninitialized=self.track_uninitialized)
        result = run_native(module, tool=tool, argv=argv, stdin=stdin,
                            vfs=vfs, max_steps=max_steps,
                            detector=self.name)
        # Valgrind reports and continues; surface accumulated reports.
        result.bugs.extend(tool.reports)
        return result


def all_runners() -> dict[str, ToolRunner]:
    """The §4.1 evaluation matrix."""
    return {
        "safe-sulong": SafeSulongRunner(),
        "asan-O0": AsanRunner(opt_level=0),
        "asan-O3": AsanRunner(opt_level=3),
        "memcheck-O0": MemcheckRunner(opt_level=0),
        "memcheck-O3": MemcheckRunner(opt_level=3),
        "clang-O0": NativeRunner(opt_level=0),
        "clang-O3": NativeRunner(opt_level=3),
    }


def make_runner(tool: str, options: dict | None = None,
                observer=None) -> ToolRunner:
    """Build a runner by name: the constructor the batch harness uses in
    worker processes and for each ladder rung.  ``options`` is the
    safe-sulong config's wire dict; baseline tools take their
    configuration from the tool name.  ``observer`` (not JSON-safe, so
    not an option) attaches to safe-sulong only."""
    if tool == "safe-sulong":
        return SafeSulongRunner(EngineConfig.from_json(options),
                                observer=observer)
    runner = all_runners().get(tool)
    if runner is None:
        raise ValueError(f"unknown tool {tool!r}; choose from "
                         f"{', '.join(all_runners())}")
    return runner
