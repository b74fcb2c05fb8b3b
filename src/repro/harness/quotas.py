"""Per-run resource quotas for batch campaigns.

A hostile program can try to outlast the campaign (infinite loop), crush
it (heap blowup), bury it (unbounded output), or knock the interpreter
over (unbounded recursion).  Each axis gets an explicit budget that the
managed engine enforces deterministically and surfaces as
``ExecutionResult.limit_exceeded`` — never as a Python exception — while
the wall-clock axis is owned by the pool's watchdog, the only layer that
can stop a run that stopped making progress entirely.
"""

from __future__ import annotations

from typing import NamedTuple

from ..core.config import EngineConfig

DEFAULT_MAX_STEPS = 2_000_000
DEFAULT_HEAP_BYTES = 64 * 1024 * 1024
DEFAULT_OUTPUT_BYTES = 1024 * 1024
DEFAULT_CALL_DEPTH: int | None = None  # Python's own stack already bounds it
DEFAULT_TIMEOUT = 10.0


class Quotas(NamedTuple):
    """Budget for one program run (everything but wall-clock)."""

    max_steps: int | None = DEFAULT_MAX_STEPS
    max_heap_bytes: int | None = DEFAULT_HEAP_BYTES
    max_call_depth: int | None = DEFAULT_CALL_DEPTH
    max_output_bytes: int | None = DEFAULT_OUTPUT_BYTES

    def config(self, options: dict | None) -> EngineConfig:
        """``options`` (a wire dict), its unset quotas filled from here."""
        return EngineConfig.from_json({**self._asdict(), **(options or {})})
