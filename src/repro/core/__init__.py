"""Safe Sulong: the paper's primary contribution.

A managed execution engine for C that finds memory errors *exactly* by
representing C objects as managed objects and relying on the host
language's automatic checks (bounds, NULL, type, and free-state checks).
"""

from .config import EngineConfig
from .engine import ExecutionResult, SafeSulong
from .errors import (AccessKind, BugKind, BugReport, MemoryKind, ProgramBug,
                     ProgramCrash, ProgramExit)
from .objects import Address, ManagedObject

__all__ = [
    "EngineConfig", "ExecutionResult", "SafeSulong",
    "AccessKind", "BugKind", "BugReport", "MemoryKind", "ProgramBug",
    "ProgramCrash", "ProgramExit",
    "Address", "ManagedObject",
]
