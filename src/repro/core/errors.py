"""Bug taxonomy and runtime exceptions of the managed engine.

The kinds mirror the paper's §2.1 categories: spatial errors (out-of-bounds
accesses, split by read/write, under-/overflow and memory kind, as in
Table 2), temporal errors (use-after-free), NULL dereferences, and "other"
errors (invalid free, double free, variadic-argument errors).
"""

from __future__ import annotations

from ..source import SourceLocation


class BugKind:
    OUT_OF_BOUNDS = "out-of-bounds"
    USE_AFTER_FREE = "use-after-free"
    DOUBLE_FREE = "double-free"
    INVALID_FREE = "invalid-free"
    NULL_DEREFERENCE = "null-dereference"
    VARARGS = "varargs"
    TYPE_VIOLATION = "type-violation"
    UNINITIALIZED_READ = "uninitialized-read"
    MEMORY_LEAK = "memory-leak"
    USE_AFTER_SCOPE = "use-after-scope"

    ALL = (OUT_OF_BOUNDS, USE_AFTER_FREE, DOUBLE_FREE, INVALID_FREE,
           NULL_DEREFERENCE, VARARGS, TYPE_VIOLATION, UNINITIALIZED_READ,
           MEMORY_LEAK, USE_AFTER_SCOPE)


class MemoryKind:
    """Where the illegally-accessed object lives (paper Table 2)."""

    STACK = "stack"
    HEAP = "heap"
    GLOBAL = "global"
    MAIN_ARGS = "main-args"


class AccessKind:
    READ = "read"
    WRITE = "write"
    FREE = "free"


class BugReport:
    """A structured description of one detected bug.

    Beyond the kind/location pair, a report can carry *provenance*: the
    managed call stack active at the fault (innermost frame first, as
    ``(function name, SourceLocation)`` pairs), the faulting object's
    label and size, where it was allocated, and — for temporal errors —
    where it was freed.  The managed model records these as the fault
    unwinds, so they are exact, not reconstructed from shadow state.
    """

    __slots__ = ("kind", "access", "memory_kind", "direction", "message",
                 "location", "offset", "size", "detector", "stack",
                 "alloc_site", "free_site", "object_label", "object_size")

    def __init__(self, kind: str, message: str,
                 access: str | None = None,
                 memory_kind: str | None = None,
                 direction: str | None = None,
                 location: SourceLocation | None = None,
                 offset: int | None = None,
                 size: int | None = None,
                 detector: str = "safe-sulong",
                 stack: list | None = None,
                 alloc_site: SourceLocation | None = None,
                 free_site: SourceLocation | None = None,
                 object_label: str | None = None,
                 object_size: int | None = None):
        self.kind = kind
        self.access = access
        self.memory_kind = memory_kind
        self.direction = direction  # "underflow" | "overflow" | None
        self.message = message
        self.location = location
        self.offset = offset
        self.size = size
        self.detector = detector
        self.stack = stack or []
        self.alloc_site = alloc_site
        self.free_site = free_site
        self.object_label = object_label
        self.object_size = object_size

    def __str__(self) -> str:
        parts = [self.kind]
        if self.access:
            parts.append(self.access)
        if self.direction:
            parts.append(self.direction)
        if self.memory_kind:
            parts.append(f"of {self.memory_kind} object")
        head = " ".join(parts)
        where = f" at {self.location}" if self.location else ""
        return f"{head}{where}: {self.message}"

    def __repr__(self) -> str:
        return f"BugReport({self})"

    def to_dict(self) -> dict:
        """The JSON form workers report and explain packets carry, with
        every source location as its ``file:line:col`` string;
        :meth:`from_dict` reads it back."""
        return {
            "kind": self.kind,
            "message": self.message,
            "location": _location_text(self.location),
            "access": self.access,
            "memory_kind": self.memory_kind,
            "direction": self.direction,
            "alloc_site": _location_text(self.alloc_site),
            "free_site": _location_text(self.free_site),
            "stack": [[function, _location_text(loc)]
                      for function, loc in self.stack],
            "object_label": self.object_label,
            "object_size": self.object_size,
        }

    @classmethod
    def from_dict(cls, data: dict, detector: str) -> "BugReport":
        """A report from :meth:`to_dict`'s form; its locations stay
        strings, which print as the originals did."""
        return cls(data.get("kind", "?"), data.get("message", ""),
                   access=data.get("access"),
                   memory_kind=data.get("memory_kind"),
                   direction=data.get("direction"),
                   location=data.get("location"),
                   detector=detector,
                   stack=[(function, loc) for function, loc
                          in data.get("stack") or []],
                   alloc_site=data.get("alloc_site"),
                   free_site=data.get("free_site"),
                   object_label=data.get("object_label"),
                   object_size=data.get("object_size"))


def _location_text(loc) -> str | None:
    return str(loc) if loc else None


class SulongError(Exception):
    """Base of all errors raised while executing a program."""


class ProgramBug(SulongError):
    """A memory-safety (or varargs) bug detected in the executed program.

    Raised by the managed object model's automatic checks; converted to a
    :class:`BugReport` at the engine boundary.
    """

    kind = "bug"

    # Frames past this depth are summarized, not recorded (a runaway
    # recursive fault would otherwise build a giant stack).
    MAX_STACK_FRAMES = 64

    def __init__(self, message: str, access: str | None = None,
                 memory_kind: str | None = None,
                 direction: str | None = None,
                 offset: int | None = None, size: int | None = None,
                 object_label: str | None = None,
                 object_size: int | None = None,
                 alloc_site: SourceLocation | None = None,
                 free_site: SourceLocation | None = None):
        super().__init__(message)
        self.message = message
        self.access = access
        self.memory_kind = memory_kind
        self.direction = direction
        self.offset = offset
        self.size = size
        self.location: SourceLocation | None = None
        # Managed call stack, built one frame per activation as the
        # exception unwinds through the tiers (innermost frame first).
        self.stack: list[tuple[str, SourceLocation | None]] = []
        self.frames_dropped = 0
        self.object_label = object_label
        self.object_size = object_size
        self.alloc_site = alloc_site
        self.free_site = free_site

    def attach_location(self, loc: SourceLocation | None) -> None:
        if self.location is None and loc is not None:
            self.location = loc

    def note_frame(self, function: str,
                   loc: SourceLocation | None) -> None:
        """Record one managed activation while unwinding.  Each frame's
        except handler (interpreter node or the compiled function's
        bottom handler) calls this exactly once, so the list reads
        innermost → outermost."""
        if len(self.stack) < self.MAX_STACK_FRAMES:
            self.stack.append((function, loc))
        else:
            self.frames_dropped += 1

    def report(self, detector: str = "safe-sulong") -> BugReport:
        return BugReport(self.kind, self.message, access=self.access,
                         memory_kind=self.memory_kind,
                         direction=self.direction, location=self.location,
                         offset=self.offset, size=self.size,
                         detector=detector, stack=list(self.stack),
                         alloc_site=self.alloc_site,
                         free_site=self.free_site,
                         object_label=self.object_label,
                         object_size=self.object_size)


class OutOfBoundsError(ProgramBug):
    kind = BugKind.OUT_OF_BOUNDS


class UseAfterFreeError(ProgramBug):
    kind = BugKind.USE_AFTER_FREE


class DoubleFreeError(ProgramBug):
    kind = BugKind.DOUBLE_FREE


class InvalidFreeError(ProgramBug):
    kind = BugKind.INVALID_FREE


class NullDereferenceError(ProgramBug):
    kind = BugKind.NULL_DEREFERENCE


class VarargsError(ProgramBug):
    kind = BugKind.VARARGS


class TypeViolationError(ProgramBug):
    kind = BugKind.TYPE_VIOLATION


class UseAfterScopeError(ProgramBug):
    kind = BugKind.USE_AFTER_SCOPE


class MemoryLeakError(ProgramBug):
    kind = BugKind.MEMORY_LEAK


class DeoptSignal(SulongError):
    """Internal control transfer: a compiled function's speculation guard
    failed before any side effect occurred, so the activation must be
    replayed on the full-checks interpreter tier.

    This is *not* a program error: it never reaches a bug report or an
    :class:`ExecutionResult`.  The runtime catches it at the innermost
    compiled-call boundary (``Runtime._dispatch_call``), invalidates the
    speculative artifact, and re-runs the call interpreted.  The guard
    placement analysis (``opt/speculate.py``) only permits the raise when
    every path from function entry to the guard is effect-free, which is
    what makes the replay sound.
    """

    def __init__(self, function_name: str = "", reason: str = ""):
        super().__init__(f"deoptimize {function_name}: {reason}")
        self.function_name = function_name
        self.reason = reason


class ProgramCrash(SulongError):
    """A non-memory-safety runtime failure (division by zero, unreachable,
    call stack exhaustion) — reported as a crash, not a bug report."""


class ProgramExit(SulongError):
    """Raised when the program calls exit() or abort()."""

    def __init__(self, status: int):
        super().__init__(f"exit({status})")
        self.status = status


class InterpreterLimit(SulongError):
    """Execution exceeded an engine limit (e.g. the step budget used by the
    corpus runner to bound runaway programs)."""


class QuotaExceeded(InterpreterLimit):
    """Execution exceeded a configured resource quota (harness hardening).

    Quotas bound what a hostile program can consume — heap bytes in the
    managed allocator, call depth, output volume — so a batch campaign
    survives pathological inputs.  Like the step budget, hitting a quota
    is reported as ``ExecutionResult.limit_exceeded``, never as a bug in
    the program and never as a Python exception escaping the engine.
    """

    quota = "resource"


class HeapQuotaExceeded(QuotaExceeded):
    quota = "heap-bytes"


class CallDepthExceeded(QuotaExceeded):
    quota = "call-depth"


class OutputQuotaExceeded(QuotaExceeded):
    quota = "output-bytes"
