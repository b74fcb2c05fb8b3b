"""ASan-style rendering of bug reports and managed-heap state.

The managed execution model records provenance *exactly* — the call
stack is the real activation chain the fault unwound through, and the
allocation/free sites were stamped on the object when the events
happened — so the renderer never has to guess from shadow memory the
way a native sanitizer does.  The output deliberately mirrors
AddressSanitizer's shape (ERROR banner, ``#N`` stack frames,
"allocated by"/"freed by" sections) so people and scripts that read
ASan reports can read these.
"""

from __future__ import annotations

from ..core.errors import BugReport


def render_bug_report(bug: BugReport, detector: str | None = None) -> str:
    """Render one BugReport as a multi-line ASan-style block."""
    name = detector or bug.detector or "safe-sulong"
    lines: list[str] = []
    head = [f"== {name}: ERROR: {bug.kind}"]
    if bug.access:
        head.append(bug.access)
    if bug.direction:
        head.append(f"({bug.direction})")
    if bug.memory_kind:
        head.append(f"of {bug.memory_kind} object")
    if bug.location:
        head.append(f"at {bug.location}")
    lines.append(" ".join(head))
    lines.append(f"  {bug.message}")
    stack = list(bug.stack or [])
    if stack:
        for index, (function, loc) in enumerate(stack):
            where = str(loc) if loc is not None else "<unknown>"
            lines.append(f"    #{index} {function} {where}")
    elif bug.location:
        lines.append(f"    #0 <unattributed> {bug.location}")
    described = bug.object_label or bug.alloc_site or bug.free_site \
        or bug.object_size is not None
    if described:
        label = bug.object_label or "<object>"
        size = f", {bug.object_size} bytes" if bug.object_size is not None \
            else ""
        lines.append(f"  object: {label}{size}")
        if bug.alloc_site is not None:
            lines.append(f"    allocated at {bug.alloc_site}")
        if bug.free_site is not None:
            lines.append(f"    freed at {bug.free_site}")
    return "\n".join(lines)


def render_heap_dump(runtime, limit: int = 16) -> str:
    """A bounded snapshot of the managed heap (``--heap-dump``).  Needs
    a runtime created with ``track_heap`` on; otherwise reports that
    tracking was off rather than pretending the heap is empty."""
    objects = getattr(runtime, "heap_objects", None) or []
    if not getattr(runtime, "track_heap", False):
        return "-- heap dump: unavailable (heap tracking off) --"
    lines = [f"-- heap dump: {len(objects)} tracked allocation(s) --"]
    live = freed = live_bytes = 0
    shown = 0
    for obj in objects:
        is_freed = obj.is_freed() if hasattr(obj, "is_freed") else False
        size = getattr(obj, "size", None)
        if size is None:
            size = getattr(obj, "byte_size", 0)
        if is_freed:
            freed += 1
        else:
            live += 1
            live_bytes += size
        if shown < limit:
            shown += 1
            state = "freed" if is_freed else "live"
            site = getattr(obj, "alloc_site", None)
            at = f"  allocated at {site}" if site is not None else ""
            free_at = getattr(obj, "free_site", None)
            if is_freed and free_at is not None:
                at += f"  freed at {free_at}"
            lines.append(f"  [{state:<5}] {obj.label:<24} "
                         f"{size:>8} B{at}")
    if len(objects) > limit:
        lines.append(f"  ... {len(objects) - limit} more")
    lines.append(f"  totals: {live} live ({live_bytes} B), {freed} freed")
    return "\n".join(lines)
