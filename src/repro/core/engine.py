"""The Safe Sulong engine: the paper's Figure 4 pipeline, end to end.

``program.c`` (+ the bundled libc) → front end (clang -O0 analogue) → IR →
managed interpreter with automatic checks → optional dynamic-compilation
tier.  Bugs abort execution and are reported as structured
:class:`~repro.core.errors.BugReport` values.
"""

from __future__ import annotations

from .. import ir
from ..cfront import compile_source
from ..libc import include_dir, libc_module
from ..obs.spans import span
from . import leakcheck
from .config import EngineConfig
from .errors import (BugReport, DeoptSignal, InterpreterLimit, ProgramBug,
                     ProgramCrash)
from .interpreter import Runtime
from .intrinsics import default_intrinsics


class ExecutionResult:
    """Outcome of one program run under any engine/tool in this repo.

    ``limit_exceeded`` covers every bounded-resource stop (step budget,
    heap quota, call-depth quota, output cap, host memory exhaustion);
    ``timed_out`` marks a wall-clock watchdog kill (set by the batch
    harness, which is the only layer with a clock on the run);
    ``internal_error`` records a *tool* failure — the run says nothing
    about the program, and the harness triages it separately from
    program bugs.
    """

    __slots__ = ("detector", "status", "stdout", "stderr", "bugs",
                 "crashed", "crash_message", "limit_exceeded", "runtime",
                 "timed_out", "internal_error")

    def __init__(self, detector: str, status: int | None = None,
                 stdout: bytes = b"", stderr: bytes = b"",
                 bugs: list[BugReport] | None = None, crashed: bool = False,
                 crash_message: str = "", limit_exceeded: bool = False,
                 runtime=None, timed_out: bool = False,
                 internal_error: str | None = None):
        self.detector = detector
        self.status = status
        self.stdout = stdout
        self.stderr = stderr
        self.bugs = bugs or []
        self.crashed = crashed
        self.crash_message = crash_message
        self.limit_exceeded = limit_exceeded
        self.runtime = runtime
        self.timed_out = timed_out
        self.internal_error = internal_error

    @property
    def detected_bug(self) -> bool:
        return bool(self.bugs)

    def bug_kinds(self) -> list[str]:
        return [bug.kind for bug in self.bugs]

    def __repr__(self) -> str:
        if self.bugs:
            return f"<ExecutionResult[{self.detector}] BUG: {self.bugs[0]}>"
        if self.internal_error:
            return (f"<ExecutionResult[{self.detector}] INTERNAL: "
                    f"{self.internal_error}>")
        if self.timed_out:
            return f"<ExecutionResult[{self.detector}] TIMEOUT>"
        if self.crashed:
            return (f"<ExecutionResult[{self.detector}] CRASH: "
                    f"{self.crash_message}>")
        return f"<ExecutionResult[{self.detector}] exit={self.status}>"


class SafeSulong:
    """Public API of the managed bug-finding engine.  Engine options
    come as an :class:`~repro.core.config.EngineConfig` and/or keywords.

    >>> engine = SafeSulong()
    >>> result = engine.run_source('int main(void){ return 42; }')
    >>> result.status
    42
    """

    name = "safe-sulong"

    def __init__(self, config: EngineConfig = EngineConfig(), *,
                 detect_use_after_scope: bool = False,
                 detect_leaks: bool = False,
                 max_steps: int | None = None,
                 use_libc: bool = True,
                 observer=None, cache=None,
                 fuse: bool = True, **options):
        self.config = config._replace(**options)
        # Superinstruction fusion in the interpreter's prepare step.
        # Benchmarks pass fuse=False to time the one-node-per-
        # instruction dispatch baseline.
        self.fuse = fuse
        # Optional repro.cache.CompilationCache.  When attached, the
        # front end and the interprocedural analysis look artifacts up
        # before doing the work (and store what they build).  Semantics
        # are unaffected: every artifact is verified on load and
        # anything suspect falls back to the cold path.
        self.cache = cache
        # Optional obs.Observer; when attached and enabled, the runtime
        # counts checks/instructions/calls and emits JIT + quota events.
        # Disabled or absent, the engine runs the exact pre-obs code.
        self.observer = observer
        self.detect_use_after_scope = detect_use_after_scope
        self.detect_leaks = detect_leaks
        self.max_steps = max_steps
        self.use_libc = use_libc
        self.intrinsics = default_intrinsics()

    # -- compilation -----------------------------------------------------------

    def compile(self, source: str, filename: str = "program.c") -> ir.Module:
        """Compile a C program and link it against the managed libc."""
        cache = self.cache
        if cache is not None:
            cache.observer = self.observer
            program = cache.compile_source(
                source, filename=filename, include_dirs=[include_dir()],
                defines={"__SAFE_SULONG__": "1"})
        else:
            program = compile_source(source, filename=filename,
                                     include_dirs=[include_dir()],
                                     defines={"__SAFE_SULONG__": "1"})
        if self.use_libc:
            libc = libc_module(cache=cache)
            with span("link", module=filename):
                program = libc.link(program, name=filename)
        self._check_resolvable(program)
        return program

    def _check_resolvable(self, module: ir.Module) -> None:
        missing = [name for name in module.undefined_functions()
                   if name not in self.intrinsics]
        if missing:
            raise ir.LinkError(
                "unresolved functions (Safe Sulong executes no native "
                f"code, §5): {', '.join('@' + m for m in missing)}")

    # -- execution ---------------------------------------------------------------

    def new_runtime(self, module: ir.Module, **runtime_options) -> Runtime:
        """A runtime for ``module`` under this engine's config, with the
        implications between options applied: use-after-scope hunting
        (exact lifetimes) rules out speculative data caching."""
        config = self.config
        speculate = config.speculate and not self.detect_use_after_scope
        if self.cache is not None:
            self.cache.observer = self.observer
        return Runtime(
            module, intrinsics=self.intrinsics, max_steps=self.max_steps,
            detect_use_after_scope=self.detect_use_after_scope,
            jit_threshold=config.jit_threshold,
            track_heap=self.detect_leaks or config.track_heap,
            max_heap_bytes=config.max_heap_bytes,
            max_call_depth=config.max_call_depth,
            max_output_bytes=config.max_output_bytes,
            observer=self.observer, speculate=speculate,
            fuse=self.fuse, **runtime_options)

    def run_module(self, module: ir.Module, argv: list[str] | None = None,
                   stdin: bytes = b"",
                   vfs: dict[str, bytes] | None = None) -> ExecutionResult:
        runtime = self.new_runtime(module)
        if vfs:
            runtime.vfs = {path: bytearray(data)
                           for path, data in vfs.items()}
        obs = runtime._obs
        try:
            with span("execute", entry="main"):
                status = runtime.run_main(argv=argv, stdin=stdin)
        except ProgramBug as bug:
            return ExecutionResult(
                self.name, stdout=bytes(runtime.stdout),
                stderr=bytes(runtime.stderr), bugs=[bug.report(self.name)],
                runtime=runtime)
        except ProgramCrash as crash:
            return ExecutionResult(
                self.name, stdout=bytes(runtime.stdout),
                stderr=bytes(runtime.stderr), crashed=True,
                crash_message=str(crash), runtime=runtime)
        except InterpreterLimit as limit:
            if obs is not None:
                obs.emit("quota", kind=type(limit).__name__,
                         message=str(limit))
            return ExecutionResult(
                self.name, stdout=bytes(runtime.stdout),
                stderr=bytes(runtime.stderr), limit_exceeded=True,
                crash_message=str(limit), runtime=runtime)
        except MemoryError as exhausted:
            # The host allocator gave out before (or without) a heap
            # quota: a bounded-resource stop, not a caller-killing error.
            if obs is not None:
                obs.emit("quota", kind="MemoryError",
                         message=str(exhausted or "MemoryError"))
            return ExecutionResult(
                self.name, stdout=bytes(runtime.stdout),
                stderr=bytes(runtime.stderr), limit_exceeded=True,
                crash_message=f"host memory exhausted: "
                              f"{exhausted or 'MemoryError'}",
                runtime=runtime)
        except DeoptSignal as signal:
            # Deopts are consumed at the innermost compiled-call boundary
            # (Runtime._dispatch_call); one reaching the engine means an
            # execution-tier invariant broke — report it as an internal
            # error rather than mislabel it a program behavior.
            return ExecutionResult(
                self.name, stdout=bytes(runtime.stdout),
                stderr=bytes(runtime.stderr),
                internal_error=f"DeoptSignal escaped to the engine "
                               f"boundary: {signal}",
                runtime=runtime)
        except RecursionError as overflow:
            # Program-driven recursion is converted to ProgramCrash at
            # the call sites (interpreter/JIT); one that escapes to this
            # boundary means the *tool* recursed — an internal error.
            return ExecutionResult(
                self.name, stdout=bytes(runtime.stdout),
                stderr=bytes(runtime.stderr),
                internal_error=f"RecursionError escaped to the engine "
                               f"boundary: {overflow or 'stack overflow'}",
                runtime=runtime)
        finally:
            if obs is not None:
                obs.record_run(runtime)
        bugs = []
        if self.detect_leaks:
            bugs = leakcheck.find_leaks(runtime)
        return ExecutionResult(
            self.name, status=status, stdout=bytes(runtime.stdout),
            stderr=bytes(runtime.stderr), bugs=bugs, runtime=runtime)

    def run_source(self, source: str, argv: list[str] | None = None,
                   stdin: bytes = b"", filename: str = "program.c",
                   vfs: dict[str, bytes] | None = None) -> ExecutionResult:
        module = self.compile(source, filename)
        return self.run_module(module, argv=argv, stdin=stdin, vfs=vfs)
