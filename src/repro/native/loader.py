"""Compile C for the native execution model and run it.

The native pipeline mirrors a real toolchain: front end → (optional)
optimizer passes → "backend" folds that happen even at -O0 (§4.1 case 3)
→ the native machine with the precompiled builtin libc.
"""

from __future__ import annotations

from .. import ir
from ..cfront import compile_source
from ..core.engine import ExecutionResult, run_outcome
from ..libc import include_dir
from .machine import NativeMachine, Tool


def compile_native(source: str, filename: str = "program.c",
                   opt_level: int = 0,
                   load_widening: bool = False) -> ir.Module:
    module = compile_source(source, filename=filename,
                            include_dirs=[include_dir()],
                            defines={"__NATIVE__": "1"})
    from ..opt import pipeline
    if opt_level >= 2:
        pipeline.run_o3(module, load_widening=load_widening)
    pipeline.run_backend_folds(module)
    return module


def run_native(module: ir.Module, tool: Tool | None = None,
               argv: list[str] | None = None, stdin: bytes = b"",
               vfs: dict[str, bytes] | None = None,
               max_steps: int | None = None,
               detector: str = "native") -> ExecutionResult:
    machine = NativeMachine(module, tool=tool, max_steps=max_steps)
    machine.mount(vfs)
    return run_outcome(detector, machine, argv, stdin)
